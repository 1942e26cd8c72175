// Serving quickstart: drive the MoE serving runtime with open-loop load
// and read the latency/SLO report.
//
//   $ ./examples/serving_quickstart
//
// Walks the serving plane end to end:
//  1. configure a small MoE model served at EP=4 with a 32-token iteration
//     budget and a bounded admission queue,
//  2. generate a seeded Poisson request stream (open loop: arrivals never
//     wait for the server),
//  3. serve it -- queue -> continuous batcher -> CometExecutor::RunBatchInto,
//     clock advanced by the timing plane -- and print per-request latency
//     percentiles, SLO attainment and throughput,
//  4. re-serve the SAME stream: the report is bit-identical, because a
//     serving run is a pure function of (seed, config).
#include <iostream>

#include "serve/server.h"
#include "util/table.h"

using namespace comet;

int main() {
  // A small MoE layer served expert-parallel on 4 simulated H800s.
  ModelConfig model;
  model.name = "serve-quickstart";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 64;
  model.ffn_hidden = 128;

  ServeOptions options;
  options.model = model;
  options.parallel = ParallelConfig{/*tp=*/1, /*ep=*/4};
  options.seed = 7;
  options.dtype = DType::kBF16;  // the data plane computes at bf16
  options.token_budget = 32;     // tokens per batcher iteration
  options.max_active = 16;       // backpressure bound on in-flight requests
  options.queue_capacity = 64;
  options.slo = SloTargets{.ttft_us = 2000.0, .itl_us = 500.0};
  MoeServer server(options, H800Cluster(4));

  // 60 requests, Poisson arrivals, mixed prompt/decode lengths.
  LoadGenOptions load;
  load.seed = 99;
  load.offered_rps = 10000.0;
  load.num_requests = 60;
  load.prompt = LengthDist::Uniform(4, 16);
  load.decode = LengthDist::Uniform(1, 8);
  LoadGenerator gen(load);
  const std::vector<RequestSpec> arrivals = gen.GenerateAll();

  const ServeReport report = server.Serve(arrivals);

  std::cout << "served " << report.completed.size() << "/" << report.offered
            << " requests (" << report.shed << " shed) in "
            << FormatUsAsMs(report.sim_duration_us) << " simulated ms over "
            << report.iterations << " iterations\n";
  std::cout << "throughput: "
            << FormatDouble(report.throughput_tokens_per_s, 0)
            << " tokens/s (simulated)\n\n";

  AsciiTable table({"metric", "p50 us", "p95 us", "p99 us"});
  const auto row = [&](const char* name, const LatencySummary& s) {
    table.AddRow({name, FormatDouble(s.p50, 1), FormatDouble(s.p95, 1),
                  FormatDouble(s.p99, 1)});
  };
  row("queue wait", report.queue_wait_us);
  row("time to first token", report.ttft_us);
  row("inter-token latency", report.itl_us);
  row("end to end", report.e2e_us);
  std::cout << table.Render() << "\n";
  std::cout << "SLO attainment (TTFT <= 2 ms, mean ITL <= 0.5 ms): "
            << FormatPercent(report.slo_attainment) << "\n\n";

  // Determinism: same arrivals + same config => bit-identical outputs and
  // identical simulated latencies, at ANY host thread count.
  const ServeReport again = server.Serve(arrivals);
  std::cout << "re-served the same stream: digests "
            << (again.combined_digest == report.combined_digest
                    ? "identical"
                    : "DIFFER (bug!)")
            << ", p99 TTFT identical: "
            << (again.ttft_us.p99 == report.ttft_us.p99 ? "yes" : "NO (bug!)")
            << "\n";
  return again.combined_digest == report.combined_digest ? 0 : 1;
}
