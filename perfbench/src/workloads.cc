#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hw/gpu_spec.h"
#include "util/check.h"

namespace perfbench {

using namespace comet;

namespace {

// Seed streams of one workload; see DeriveSeed.
constexpr uint64_t kWeightStream = 1;     // weights, gate, synthetic routing
constexpr uint64_t kRequestStream = 2;    // arrivals, lengths, request content
constexpr uint64_t kPlacementStream = 3;  // p2c sampling
constexpr uint64_t kSimStream = 4;        // RunModel routing draws
constexpr uint64_t kRetryStream = 5;      // cluster retry jitter

// Requests in one pass of each serving workload.
constexpr int64_t kDecodeRequests = 512;
constexpr int64_t kPrefillRequests = 64;
constexpr int64_t kClusterRequests = 512;
// cluster_skew's Poisson rate: 75% of the 2-replica fleet's simulated
// capacity, measured with `perfbench --workload cluster_skew --seed 1
// --calibrate` (the same 512 requests as one saturating burst).
constexpr double kClusterCapacityRps = 42569.9;
constexpr double kClusterRps = 0.75 * kClusterCapacityRps;

ModelConfig TinyModel(const char* name, int64_t n, int64_t k) {
  ModelConfig m;
  m.name = name;
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = n;
  m.ffn_hidden = k;
  return m;
}

ServeOptions BaseServeOptions(ModelConfig model, uint64_t seed, int threads,
                              int64_t token_budget, int64_t requests) {
  ServeOptions o;
  o.model = std::move(model);
  o.parallel = ParallelConfig{1, 4};
  o.seed = DeriveSeed(seed, kWeightStream);
  o.dtype = DType::kBF16;
  o.num_threads = threads;
  o.verify_transport = true;
  o.token_budget = token_budget;
  // The whole pass is admitted at once: nothing is ever shed.
  o.queue_capacity = requests;
  return o;
}

// `count` lengths spread evenly over [lo, hi] (both ends included).
std::vector<int64_t> EvenLengths(int64_t lo, int64_t hi, int64_t count) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < count; ++i) {
    out.push_back(lo + (hi - lo) * i / std::max<int64_t>(1, count - 1));
  }
  return out;
}

// `count` lengths of which `long_count` are `long_len`, the rest `short_len`.
std::vector<int64_t> BimodalLengths(int64_t short_len, int64_t long_len,
                                    int64_t long_count, int64_t count) {
  std::vector<int64_t> out(static_cast<size_t>(count), short_len);
  std::fill(out.begin(), out.begin() + long_count, long_len);
  return out;
}

// One pass's request stream. The prompt and decode lengths are fixed
// multisets, so every seed offers the same work; the seed shuffles which
// request gets which length, draws each request's content seed, and (when
// rps > 0) lays Poisson arrivals on the simulated clock. rps == 0 offers
// everything at t = 0.
std::vector<RequestSpec> MakeRequests(uint64_t seed,
                                      std::vector<int64_t> prompts,
                                      std::vector<int64_t> decodes,
                                      double rps) {
  COMET_CHECK_EQ(prompts.size(), decodes.size());
  Rng rng(DeriveSeed(seed, kRequestStream));
  rng.Shuffle(prompts);
  rng.Shuffle(decodes);
  std::vector<RequestSpec> requests(prompts.size());
  double clock_us = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    RequestSpec& r = requests[i];
    r.id = static_cast<int64_t>(i);
    r.session = i;
    r.seed = rng.NextU64();
    r.prompt_tokens = prompts[i];
    r.decode_tokens = decodes[i];
    if (rps > 0.0) {
      clock_us += -std::log(1.0 - rng.NextDouble()) * 1e6 / rps;
    }
    r.arrival_us = clock_us;
  }
  return requests;
}

MoeServer::RunBounds BoundsOf(const std::vector<RequestSpec>& requests) {
  MoeServer::RunBounds b;
  b.expected_requests = static_cast<int64_t>(requests.size());
  for (const RequestSpec& r : requests) {
    b.expected_tokens += r.TotalTokens();
    b.max_prompt_tokens = std::max(b.max_prompt_tokens, r.prompt_tokens);
    b.max_decode_tokens = std::max(b.max_decode_tokens, r.decode_tokens);
  }
  return b;
}

void AddSummary(Checks& checks, const char* name, const LatencySummary& s) {
  const std::string n = name;
  checks.emplace_back(n + ".count", std::to_string(s.count));
  checks.emplace_back(n + ".mean", ExactDouble(s.mean));
  checks.emplace_back(n + ".p50", ExactDouble(s.p50));
  checks.emplace_back(n + ".p95", ExactDouble(s.p95));
  checks.emplace_back(n + ".p99", ExactDouble(s.p99));
  checks.emplace_back(n + ".max", ExactDouble(s.max));
}

template <typename Report>
void AddReportChecks(Checks& checks, const Report& r) {
  checks.emplace_back("combined_digest", Hex64(r.combined_digest));
  checks.emplace_back("completed", std::to_string(r.completed.size()));
  checks.emplace_back("iterations", std::to_string(r.iterations));
  checks.emplace_back("batched_tokens", std::to_string(r.batched_tokens));
  checks.emplace_back("padding_tokens", std::to_string(r.padding_tokens));
  checks.emplace_back("sim_duration_us", ExactDouble(r.sim_duration_us));
  AddSummary(checks, "queue_wait_us", r.queue_wait_us);
  AddSummary(checks, "ttft_us", r.ttft_us);
  AddSummary(checks, "itl_us", r.itl_us);
  AddSummary(checks, "e2e_us", r.e2e_us);
  checks.emplace_back("promotions", std::to_string(r.promotions));
  checks.emplace_back("retirements", std::to_string(r.retirements));
  checks.emplace_back("replicated_rows", std::to_string(r.replicated_rows));
}

uint64_t FoldDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1aAdd(h, &bits, sizeof(bits));
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kServeDecode:
      return "serve_decode";
    case WorkloadKind::kServePrefill:
      return "serve_prefill";
    case WorkloadKind::kClusterSkew:
      return "cluster_skew";
    case WorkloadKind::kSimSweep:
      return "sim_sweep";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (const WorkloadKind k :
       {WorkloadKind::kServeDecode, WorkloadKind::kServePrefill,
        WorkloadKind::kClusterSkew, WorkloadKind::kSimSweep}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

ServeWorkload MakeServeWorkload(WorkloadKind kind, uint64_t seed,
                                int threads) {
  ServeWorkload w;
  switch (kind) {
    case WorkloadKind::kServeDecode:
      w.options = BaseServeOptions(TinyModel("perfbench-decode", 64, 128),
                                   seed, threads, 32, kDecodeRequests);
      w.requests = MakeRequests(seed, EvenLengths(1, 4, kDecodeRequests),
                                EvenLengths(16, 48, kDecodeRequests), 0.0);
      break;
    case WorkloadKind::kServePrefill:
      w.options = BaseServeOptions(TinyModel("perfbench-prefill", 256, 512),
                                   seed, threads, 256, kPrefillRequests);
      w.requests = MakeRequests(seed, EvenLengths(64, 256, kPrefillRequests),
                                EvenLengths(1, 2, kPrefillRequests), 0.0);
      break;
    case WorkloadKind::kClusterSkew: {
      ServeOptions& o = w.options;
      o = BaseServeOptions(TinyModel("perfbench-cluster", 128, 256), seed,
                           threads, 64, kClusterRequests);
      o.granularity = 16;
      o.routing = ServeRoutingMode::kSynthetic;
      o.synthetic_load_std = 0.1;
      o.drift_period_us = 2000.0;
      o.adaptation.enabled = true;
      o.adaptation.ewma_decay = 0.15;
      o.adaptation.hot_factor = 1.4;
      o.adaptation.cool_factor = 1.15;
      o.adaptation.max_replicated_experts = 2;
      o.adaptation.cooldown_iterations = 16;
      ClusterOptions& c = w.cluster_options;
      c.server = o;
      c.replicas = 2;
      c.placement = PlacementPolicy::kPowerOfTwo;
      c.placement_seed = DeriveSeed(seed, kPlacementStream);
      c.retry_seed = DeriveSeed(seed, kRetryStream);
      // Bimodal prompts: 8 or 96 tokens, 20% long.
      w.requests = MakeRequests(
          seed, BimodalLengths(8, 96, kClusterRequests / 5, kClusterRequests),
          EvenLengths(4, 32, kClusterRequests), kClusterRps);
      break;
    }
    case WorkloadKind::kSimSweep:
      COMET_CHECK(false) << "sim_sweep is not a serving workload";
  }
  w.cluster = H800Cluster(w.options.parallel.world());
  w.bounds = BoundsOf(w.requests);
  return w;
}

void WarmUpServer(MoeServer& server, const ServeWorkload& w, int steps) {
  server.BeginRun(w.bounds);
  for (const RequestSpec& r : w.requests) {
    server.Offer(r);
  }
  double now = 0.0;
  for (int i = 0; i < steps && server.HasWork(); ++i) {
    double end = 0.0;
    server.StepIteration(now, &end);
    now = end;
  }
}

PassResult RunServerPass(MoeServer& server, const ServeWorkload& w,
                         std::vector<double>* step_ms, const StepHook& hook) {
  server.BeginRun(w.bounds);
  for (const RequestSpec& r : w.requests) {
    server.Offer(r);
  }
  double now = 0.0;
  int64_t seen_rows = 0;
  while (server.HasWork()) {
    double end = 0.0;
    const Clock::time_point t0 = Clock::now();
    const bool stepped = server.StepIteration(now, &end);
    const Clock::time_point t1 = Clock::now();
    COMET_CHECK(stepped) << "server reported work but packed nothing";
    step_ms->push_back(MsBetween(t0, t1));
    if (hook) {
      const RunView v = server.View();
      const int64_t rows = v.batched_tokens + v.padding_tokens;
      hook(rows - seen_rows, t0, t1);
      seen_rows = rows;
    }
    now = end;
  }
  const ServeReport r = server.BuildReport(now);
  PassResult out;
  out.offered = r.offered;
  out.completed = static_cast<int64_t>(r.completed.size());
  out.failed = r.offered - out.completed;  // shed or never finished
  out.tokens = r.batched_tokens;
  out.padding = r.padding_tokens;
  out.iterations = r.iterations;
  out.promotions = r.promotions;
  out.retirements = r.retirements;
  out.replicated_rows = r.replicated_rows;
  AddReportChecks(out.checks, r);
  return out;
}

PassResult RunClusterPass(MoeCluster& cluster, const ServeWorkload& w) {
  const ClusterReport r = cluster.Run(w.requests);
  PassResult out;
  out.offered = r.offered;
  out.completed = static_cast<int64_t>(r.completed.size());
  out.failed = r.shed + r.failed_in_flight + r.retries_exhausted;
  out.tokens = r.batched_tokens;
  out.padding = r.padding_tokens;
  out.iterations = r.iterations;
  out.promotions = r.promotions;
  out.retirements = r.retirements;
  out.replicated_rows = r.replicated_rows;
  AddReportChecks(out.checks, r);
  return out;
}

std::vector<SimPoint> SimGrid() {
  std::vector<SimPoint> grid;
  for (const ModelConfig& model : {Mixtral8x7B(), Qwen2Moe(), Phi35Moe()}) {
    for (const ParallelConfig& parallel :
         {ParallelConfig{1, 8}, ParallelConfig{2, 4}, ParallelConfig{4, 2}}) {
      if (model.ffn_hidden % parallel.tp != 0 ||
          model.num_experts % parallel.ep != 0) {
        continue;
      }
      for (const int64_t m : {4096, 8192, 16384}) {
        grid.push_back(SimPoint{model, parallel, m});
      }
    }
  }
  return grid;
}

std::vector<SimCall> SimCalls(SimSystems& systems,
                              const std::vector<SimPoint>& grid) {
  std::vector<SimCall> calls;
  const auto all = systems.All();
  for (size_t p = 0; p < grid.size(); ++p) {
    for (size_t s = 0; s < all.size(); ++s) {
      if (all[s].second->Supports(grid[p].parallel)) {
        calls.push_back(SimCall{p, static_cast<int>(s)});
      }
    }
  }
  return calls;
}

ModelRunConfig SimRunConfig(const SimPoint& point, uint64_t seed) {
  ModelRunConfig config;
  config.model = point.model;
  config.parallel = point.parallel;
  config.total_tokens = point.tokens;
  config.seed = DeriveSeed(seed, kSimStream);
  return config;
}

uint64_t FoldSimResult(uint64_t digest, const ModelRunResult& r) {
  digest = FoldDouble(digest, r.attention_us);
  digest = FoldDouble(digest, r.moe_us);
  digest = FoldDouble(digest, r.total_ms);
  digest = FoldDouble(digest, r.moe_only_ms);
  for (const double us : r.moe_layer.per_rank_us) {
    digest = FoldDouble(digest, us);
  }
  return digest;
}

}  // namespace perfbench
