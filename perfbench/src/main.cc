// perfbench: host-time benchmark of the COMET reproduction.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1
//             [--threads N] [--trace-out FILE]
//   perfbench --workload W --seed S --check-only [--threads N]
//   perfbench --workload cluster_skew --seed S --calibrate
//
// Untraced (--trace 0): set-up is repeated (at least five times), then whole
// passes of the workload run for T seconds; prints the end-to-end metrics.
// --threads sets ServeOptions::num_threads and the global pool (default 1).
// Traced (--trace 1): an untraced segment, then a traced one in which every
// step is followed by a replay of its layer calls; prints the per-layer
// metrics and writes the spans as Chrome-trace JSON.
// --check-only runs one pass and prints its simulated outputs (the pins and
// the num_threads = 1 reference come from this).
// Every mode prints one JSON object on stdout; run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hw/gpu_spec.h"
#include "util/check.h"
#include "util/thread_pool.h"

#include "bench_util.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace comet;

// Set-up is repeated at least kMinSetupReps times and until kMinSetupSeconds
// of set-up have run (at most kMaxSetupReps); setup_s is the median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 31;
constexpr double kMinSetupSeconds = 1.0;
// Steps of a single-server pass run as warm-up in each set-up.
constexpr int kWarmSteps = 8;
// Share of a traced run spent in its untraced segment.
constexpr double kUntracedShare = 0.4;
constexpr int kFanoutCalls = 64;
// Padded batch size of the data-plane probe on sim_sweep, whose own shapes
// are too large to execute on a host: serve_prefill's model at one budget.
constexpr int64_t kSimProbeTokens = 256;

struct Args {
  WorkloadKind kind = WorkloadKind::kServeDecode;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  bool check_only = false;
  bool calibrate = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload W --seed S --seconds T --trace "
               "0|1 [--threads N] [--trace-out FILE] [--check-only] "
               "[--calibrate]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      if (!ParseWorkload(value(), &a.kind)) {
        Usage("unknown workload '" + std::string(argv[i]) + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (flag == "--threads") {
      a.threads = std::stoi(value());
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--check-only") {
      a.check_only = true;
    } else if (flag == "--calibrate") {
      a.calibrate = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (a.threads <= 0) {
    Usage("--threads must be positive");
  }
  return a;
}

bool WantMoreSetups(const std::vector<double>& setup_s) {
  const int reps = static_cast<int>(setup_s.size());
  double total = 0.0;
  for (const double s : setup_s) {
    total += s;
  }
  return reps < kMinSetupReps ||
         (reps < kMaxSetupReps && total < kMinSetupSeconds);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Everything a mode produces.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  Checks checks;  // simulated outputs of the reference pass
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
};

// Compares a pass's simulated outputs with the reference pass's.
void CheckPass(const Checks& reference, const Checks& got, const char* what,
               Result& result) {
  if (got == reference) {
    return;
  }
  for (size_t i = 0; i < std::min(got.size(), reference.size()); ++i) {
    if (got[i] != reference[i]) {
      result.errors.push_back(std::string(what) + ": " + got[i].first + " = " +
                              got[i].second + ", reference pass has " +
                              reference[i].second);
      return;
    }
  }
  result.errors.push_back(std::string(what) + ": check lists differ in size");
}

std::vector<double> DurationsOf(const SpanRecorder& spans, const char* name) {
  std::vector<double> out;
  const std::string n = name;
  for (const Span& s : spans.spans()) {
    if (n == s.name) {
      out.push_back(MsBetween(s.start, s.end));
    }
  }
  return out;
}

double SumOf(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return sum;
}

// Self time of every span with nested children must be >= 0; returns the
// smallest one found (ms).
double MinContainerSelfMs(const SpanRecorder& spans) {
  const std::vector<Span>& all = spans.spans();
  std::vector<double> child_ms(all.size(), 0.0);
  std::vector<bool> has_child(all.size(), false);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += MsBetween(s.start, s.end);
      has_child[static_cast<size_t>(s.parent)] = true;
    }
  }
  double min_self = 0.0;
  bool any = false;
  for (size_t i = 0; i < all.size(); ++i) {
    if (!has_child[i]) {
      continue;
    }
    const double self = MsBetween(all[i].start, all[i].end) - child_ms[i];
    min_self = any ? std::min(min_self, self) : self;
    any = true;
  }
  return min_self;
}

void WriteChromeTrace(const SpanRecorder& spans, const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  COMET_CHECK(out.good()) << "cannot write trace " << path;
  const std::vector<Span>& all = spans.spans();
  const Clock::time_point origin = all.empty() ? Clock::now() : all[0].start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const double ts = MsBetween(origin, s.start) * 1000.0;
    const double dur = MsBetween(s.start, s.end) * 1000.0;
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << JsonNumber(ts)
        << ",\"dur\":" << JsonNumber(dur) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"replays\":" << s.replays
        << ",\"run\":" << s.run << "}}";
  }
  out << "\n]}\n";
}

// Host-time accumulators of a window of passes.
struct Window {
  int64_t tokens = 0;
  int64_t padding = 0;
  int64_t iterations = 0;
  int64_t calls = 0;
  std::vector<double> step_ms;           // one sample per step
  std::vector<double> pass_tokens_per_s;  // one sample per pass
  std::vector<double> pass_layers_per_s;
  std::vector<double> pass_p50;
  std::vector<double> pass_p90;
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;
  int passes = 0;

  void AddPass(const PassResult& p, double pass_s, size_t first_step) {
    tokens += p.tokens;
    padding += p.padding;
    iterations += p.iterations;
    promotions += p.promotions;
    retirements += p.retirements;
    replicated_rows += p.replicated_rows;
    ++passes;
    pass_tokens_per_s.push_back(static_cast<double>(p.tokens) / pass_s);
    pass_layers_per_s.push_back(static_cast<double>(p.iterations) / pass_s);
    const std::vector<double> steps(step_ms.begin() + first_step,
                                    step_ms.end());
    pass_p50.push_back(Quantile(steps, 0.5));
    pass_p90.push_back(Quantile(steps, 0.9));
  }
  double StepMeanMs() const { return Mean(step_ms); }
};

// Throughputs are medians over passes (a pass is a fixed unit of work);
// step percentiles pool every step of the window.
void AddEndToEnd(const Window& w, const std::vector<double>& setup_s,
                 Result& result) {
  const MetricClass kWall = MetricClass::kWall;
  result.metrics.push_back(MakeMetric("tokens_per_s",
                                      Quantile(w.pass_tokens_per_s, 0.5),
                                      "tok/s", kWall, w.pass_tokens_per_s));
  result.metrics.push_back(MakeMetric("layers_per_s",
                                      Quantile(w.pass_layers_per_s, 0.5),
                                      "1/s", kWall, w.pass_layers_per_s));
  result.metrics.push_back(MakeMetric("step_ms_p50", Quantile(w.step_ms, 0.5),
                                      "ms", kWall, w.pass_p50));
  result.metrics.push_back(MakeMetric("step_ms_p90", Quantile(w.step_ms, 0.9),
                                      "ms", kWall, w.pass_p90));
  result.metrics.push_back(
      MakeMetric("setup_s", Quantile(setup_s, 0.5), "s", kWall, setup_s));
  result.metrics.push_back(MakeMetric("peak_rss_mb", PeakRssMb(), "MiB",
                                      MetricClass::kMemory, {}));
}

// ---- traced-run metrics ----------------------------------------------------

struct LayerInputs {
  double step_ms = 0.0;           // traced step mean
  double untraced_step_ms = 0.0;  // untraced segment step mean
  double tokens_per_step = 0.0;
  double padding_share = 0.0;
  double promotions = 0.0;  // per pass
  double retirements = 0.0;
  double replicated_row_share = 0.0;
  bool gate_on_path = true;
  bool sim_steps = false;  // sim_sweep: a step is one RunModel call
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  double replay_tokens = 0.0;
  ReplayWork work;  // summed over every data-plane replay
  double prepare_ms = 0.0;
};

void AddPerLayer(const SpanRecorder& spans, const LayerInputs& in,
                 Result& result) {
  const auto add = [&](const char* name, double v, const char* unit,
                       MetricClass cls, std::vector<double> samples = {},
                       double scale = 1.0) {
    for (double& x : samples) {
      x *= scale;
    }
    result.metrics.push_back(MakeMetric(name, v, unit, cls, samples));
  };
  const MetricClass kWall = MetricClass::kWall;
  const MetricClass kCount = MetricClass::kCount;
  const std::vector<double> gate = DurationsOf(spans, "moe.gate");
  const std::vector<double> plan = DurationsOf(spans, "moe.route_plan");
  const std::vector<double> timed = DurationsOf(spans, "core.exec.timed");
  const std::vector<double> functional =
      DurationsOf(spans, "core.exec.functional");
  const std::vector<double> gemm = DurationsOf(spans, "moe.gemm");
  const std::vector<double> act = DurationsOf(spans, "moe.activation");
  const std::vector<double> heap = DurationsOf(spans, "comm.heap.rows");
  const std::vector<double> fanout = DurationsOf(spans, "util.pool.fanout");

  // Step self time: the step minus the replayed calls the step itself makes.
  double children = in.sim_steps
                        ? Mean(DurationsOf(spans, "sim.exec.run"))
                        : Mean(plan) + Mean(functional);
  if (in.gate_on_path && !in.sim_steps) {
    children += Mean(gate);
  }
  const double self_ms = in.step_ms - children;
  add("serve.self_ms_per_step", self_ms, "ms", kWall);
  add("serve.tokens_per_step", in.tokens_per_step, "tok", kCount);
  add("serve.padding_share", in.padding_share, "share", kCount);
  add("serve.adapt.promotions", in.promotions, "count", kCount);
  add("serve.adapt.retirements", in.retirements, "count", kCount);
  add("serve.adapt.replicated_row_share", in.replicated_row_share, "share",
      kCount);

  add("moe.gate.us_per_token", SumOf(gate) * 1000.0 / in.replay_tokens, "us",
      kWall);
  add("moe.route_plan.us_per_step", Mean(plan) * 1000.0, "us", kWall, plan,
      1000.0);
  add("moe.gemm.ms_per_step", Mean(gemm), "ms", kWall, gemm);
  add("moe.gemm.gflop_per_s", in.work.gemm_flop / (SumOf(gemm) * 1e6),
      "GFLOP/s", kWall);
  add("moe.activation.us_per_step", Mean(act) * 1000.0, "us", kWall, act,
      1000.0);
  add("moe.activation.gb_per_s",
      in.work.activation_bytes / (SumOf(act) * 1e6), "GB/s", kWall);

  add("core.exec.timed_us_per_step", Mean(timed) * 1000.0, "us", kWall, timed,
      1000.0);
  add("core.exec.functional_ms_per_step", Mean(functional) - Mean(timed),
      "ms", kWall);
  const double lookups = in.memo_hits + in.memo_misses;
  add("core.exec.profile_memo_hit_ratio",
      lookups > 0.0 ? in.memo_hits / lookups : 0.0, "share", kCount);
  add("core.exec.prepare_ms", in.prepare_ms, "ms", kWall);
  const double adaptive = SumOf(DurationsOf(spans, "core.adaptive.adaptive"));
  const double fixed = SumOf(DurationsOf(spans, "core.adaptive.fixed"));
  add("core.adaptive.sweep_share", (adaptive - fixed) / adaptive, "share",
      kWall);

  add("comm.heap.bytes_per_token", in.work.exec_heap_bytes / in.replay_tokens,
      "B/tok", kCount);
  add("comm.heap.rows_verified_per_token",
      in.work.exec_rows_verified / in.replay_tokens, "rows/tok", kCount);
  add("comm.heap.row_us",
      SumOf(heap) * 1000.0 / static_cast<double>(in.work.heap_rows), "us",
      kWall);

  static const char* const kSimMetrics[] = {
      "sim.layer_ms_p50.comet", "sim.layer_ms_p50.megatron_cutlass",
      "sim.layer_ms_p50.megatron_te", "sim.layer_ms_p50.tutel",
      "sim.layer_ms_p50.fastermoe"};
  for (int i = 0; i < 5; ++i) {
    const std::vector<double> d = DurationsOf(spans, SimLayerSpanName(i));
    add(kSimMetrics[i], Quantile(d, 0.5), "ms", kWall, d);
  }
  add("util.pool.fanout_us", Mean(fanout) * 1000.0 / kFanoutCalls, "us", kWall,
      fanout, 1000.0 / kFanoutCalls);
  add("trace.overhead_ms_per_step", in.step_ms - in.untraced_step_ms, "ms",
      kWall);
  if (self_ms < 0.0) {
    result.errors.push_back(
        "negative serve.self_ms_per_step: the replay overcounts the step");
  }
}

// ---- serving workloads ------------------------------------------------------

Result RunServing(const Args& args) {
  const ServeWorkload w = MakeServeWorkload(args.kind, args.seed, args.threads);
  const bool cluster_mode = args.kind == WorkloadKind::kClusterSkew;
  Result result;

  if (args.calibrate) {
    COMET_CHECK(cluster_mode) << "--calibrate is for cluster_skew";
    ServeWorkload burst = w;
    for (RequestSpec& r : burst.requests) {
      r.arrival_us = 0.0;
    }
    MoeCluster cluster(burst.cluster_options, burst.cluster);
    const ClusterReport r = cluster.Run(burst.requests);
    std::cout << "{\"capacity_rps\":"
              << JsonNumber(static_cast<double>(r.completed.size()) /
                            (r.sim_duration_us * 1e-6))
              << ",\"sim_duration_us\":" << JsonNumber(r.sim_duration_us)
              << "}\n";
    std::exit(0);
  }

  // Set-up: construction (incl. PrepareServing) and, for a single server,
  // the first kWarmSteps steps of a pass; repeated, the last server kept.
  // A cluster is only constructed: every cluster pass runs on a fresh fleet
  // (see run_pass), so there is nothing to warm.
  std::vector<double> setup_s;
  std::unique_ptr<MoeServer> server;
  std::unique_ptr<MoeCluster> cluster;
  do {
    server.reset();
    cluster.reset();
    const Clock::time_point t0 = Clock::now();
    if (cluster_mode) {
      cluster = std::make_unique<MoeCluster>(w.cluster_options, w.cluster);
    } else {
      server = std::make_unique<MoeServer>(w.options, w.cluster);
      WarmUpServer(*server, w, kWarmSteps);
    }
    setup_s.push_back(SecondsSince(t0));
  } while (!args.check_only && WantMoreSetups(setup_s));

  // Division-point memo counters of the serving executors.
  const auto memo_stats = [&](double* hits, double* misses) {
    *hits = *misses = 0.0;
    const int n = cluster_mode ? cluster->num_replicas() : 1;
    for (int r = 0; r < n; ++r) {
      const CometExecutor& e =
          cluster_mode ? cluster->replica(r).executor() : server->executor();
      *hits += static_cast<double>(e.profile_memo_hits());
      *misses += static_cast<double>(e.profile_memo_misses());
    }
  };

  // One pass, timed; `hook` traces single-server steps. Each cluster pass
  // runs on a freshly constructed fleet (outside the timed interval): a
  // MoeCluster that ends a run with live hot-expert replicas cannot run
  // again, because MoeServer::BeginRun does not free the executor's
  // replica slots and the next promotion into a busy slot fails.
  const auto run_pass = [&](Window& win, const StepHook& hook) -> PassResult {
    const size_t first_step = win.step_ms.size();
    if (cluster_mode) {
      cluster.reset();
      cluster = std::make_unique<MoeCluster>(w.cluster_options, w.cluster);
    }
    const Clock::time_point t0 = Clock::now();
    PassResult p;
    if (cluster_mode) {
      p = RunClusterPass(*cluster, w);
    } else {
      p = RunServerPass(*server, w, &win.step_ms, hook);
    }
    const double pass_s = SecondsSince(t0);
    if (cluster_mode) {
      // Steps run inside MoeCluster::Run: one sample per pass, the mean
      // host time of a replica iteration.
      win.step_ms.push_back(pass_s * 1000.0 /
                            static_cast<double>(p.iterations));
    }
    win.AddPass(p, pass_s, first_step);
    // The first pass is the reference every later pass must reproduce.
    if (result.checks.empty()) {
      result.checks = p.checks;
    } else {
      CheckPass(result.checks, p.checks, "timed pass", result);
    }
    result.attempted += p.offered;
    result.failed += p.failed;
    return p;
  };

  const double untraced_s =
      args.trace ? args.seconds * kUntracedShare : args.seconds;
  Window untraced;
  untraced.step_ms.reserve(1 << 20);
  if (args.check_only) {
    run_pass(untraced, nullptr);
    return result;
  }
  {
    const Clock::time_point start = Clock::now();
    do {
      run_pass(untraced, nullptr);
    } while (SecondsSince(start) < untraced_s);
  }
  if (!args.trace) {
    AddEndToEnd(untraced, setup_s, result);
    return result;
  }

  // Traced segment.
  LayerReplay replay(ReplayConfigOf(w));
  const bool gate_on_path = w.options.routing == ServeRoutingMode::kGate;
  SpanRecorder spans(1 << 18);
  Window traced;
  traced.step_ms.reserve(1 << 16);
  ReplayWork work_sum;
  double replay_tokens = 0.0;
  // Memo counters over the traced segment: a delta on the one server, a
  // sum over the fresh fleets of the cluster passes.
  double hits = 0.0, misses = 0.0;
  const auto add_stats = [&](double sign) {
    double h, m;
    memo_stats(&h, &m);
    hits += sign * h;
    misses += sign * m;
  };
  if (!cluster_mode) {
    add_stats(-1.0);
  }
  const int64_t ep = w.options.parallel.ep;
  int run = 0;
  int pass_span = -1;
  // Replays the layer calls of `step` at padded batch size `m`, in a
  // "replay" span nested under `parent`.
  const auto replay_step = [&](int64_t m, int step, int parent) {
    replay.Warm(m);
    const int container = spans.Begin("replay", parent, run, step);
    const ReplayWork work =
        replay.ReplayDataPlane(m, spans, container, step, run, gate_on_path);
    replay.ReplayTimingPlane(m, spans, container, run);
    replay.ReplayPoolFanout(kFanoutCalls, spans, container, run);
    spans.End(container);
    work_sum.Add(work);
    replay_tokens += static_cast<double>(m);
  };
  const StepHook hook = [&](int64_t m, Clock::time_point t0,
                            Clock::time_point t1) {
    const int step = spans.Add("step", t0, t1, pass_span, run);
    replay_step(m, step, pass_span);
  };
  {
    const Clock::time_point start = Clock::now();
    do {
      pass_span = spans.Begin("pass", -1, run);
      const PassResult p = run_pass(traced, cluster_mode ? nullptr : hook);
      if (cluster_mode) {
        // The run's mean batch shape, replayed once per 16 iterations after
        // the pass (so the replays are not nested in it).
        spans.End(pass_span);
        add_stats(1.0);
        const int64_t rows_per_iter =
            (p.tokens + p.padding + p.iterations - 1) / p.iterations;
        const int64_t m = (rows_per_iter + ep - 1) / ep * ep;
        for (int64_t i = 0; i < std::max<int64_t>(1, p.iterations / 16);
             ++i) {
          replay_step(m, pass_span, -1);
        }
      } else {
        spans.End(pass_span);
      }
      ++run;
    } while (SecondsSince(start) < args.seconds - untraced_s);
  }
  if (!cluster_mode) {
    add_stats(1.0);
  }

  LayerInputs in;
  in.step_ms = traced.StepMeanMs();
  in.untraced_step_ms = untraced.StepMeanMs();
  const double rows = static_cast<double>(traced.tokens + traced.padding);
  in.tokens_per_step = static_cast<double>(traced.tokens) /
                       static_cast<double>(traced.iterations);
  in.padding_share = static_cast<double>(traced.padding) / rows;
  in.promotions = static_cast<double>(traced.promotions) / traced.passes;
  in.retirements = static_cast<double>(traced.retirements) / traced.passes;
  in.replicated_row_share = static_cast<double>(traced.replicated_rows) /
                            (rows * static_cast<double>(w.options.model.topk));
  in.gate_on_path = gate_on_path;
  in.memo_hits = hits;
  in.memo_misses = misses;
  in.replay_tokens = replay_tokens;
  in.work = work_sum;
  in.prepare_ms = replay.prepare_ms();
  AddPerLayer(spans, in, result);
  if (MinContainerSelfMs(spans) < 0.0) {
    result.errors.push_back("a span's self time is negative");
  }
  WriteChromeTrace(spans, args.trace_out);
  return result;
}

// ---- sim_sweep ---------------------------------------------------------------

Result RunSimSweep(const Args& args) {
  const std::vector<SimPoint> grid = SimGrid();
  const ClusterSpec h800 = H800Cluster(8);
  Result result;

  // Set-up: construct the five systems and run each once at the first grid
  // point; repeated.
  std::vector<double> setup_s;
  std::unique_ptr<SimSystems> systems;
  do {
    systems.reset();
    const Clock::time_point t0 = Clock::now();
    systems = std::make_unique<SimSystems>();
    for (const auto& [name, exec] : systems->All()) {
      if (exec->Supports(grid[0].parallel)) {
        RunModel(*exec, SimRunConfig(grid[0], args.seed), h800);
      }
    }
    setup_s.push_back(SecondsSince(t0));
  } while (!args.check_only && WantMoreSetups(setup_s));
  const std::vector<SimCall> calls = SimCalls(*systems, grid);
  const auto all = systems->All();
  // Per-call results of the first pass: every later call must reproduce
  // its own. `digest` folds the whole first pass.
  std::vector<uint64_t> reference(calls.size());
  bool have_reference = false;
  uint64_t digest = Fnv1aInit();
  CometExecutor fixed_nc(FixedNcOptions());

  std::unique_ptr<LayerReplay> replay;
  std::map<size_t, MoeWorkload> timed_workloads;  // per grid point
  SpanRecorder spans(args.trace ? (1 << 18) : 16);
  double probe_hits0 = 0.0, probe_misses0 = 0.0;
  ReplayWork probe_work;
  if (args.trace) {
    ServeWorkload probe =
        MakeServeWorkload(WorkloadKind::kServePrefill, args.seed, args.threads);
    replay = std::make_unique<LayerReplay>(ReplayConfigOf(probe));
    replay->Warm(kSimProbeTokens);
    for (size_t p = 0; p < grid.size(); ++p) {
      WorkloadOptions wo;
      wo.seed = SimRunConfig(grid[p], args.seed).seed;
      wo.materialize = false;
      timed_workloads.emplace(
          p, MakeWorkload(grid[p].model, grid[p].parallel, grid[p].tokens, wo));
    }
    probe_hits0 = static_cast<double>(replay->executor().profile_memo_hits());
    probe_misses0 =
        static_cast<double>(replay->executor().profile_memo_misses());
  }

  // Timed windows: cycle through the calls until time is up.
  const auto run_window = [&](double seconds, bool traced, Window& win) {
    win.step_ms.reserve(1 << 16);
    size_t next = 0;
    size_t pass_first_step = 0;
    Clock::time_point pass_start = Clock::now();
    int64_t pass_tokens = 0;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds || win.passes == 0) {
      const SimCall& c = calls[next];
      const SimPoint& point = grid[c.point];
      MoeLayerExecutor& exec = *all[static_cast<size_t>(c.system)].second;
      const ModelRunConfig rc = SimRunConfig(point, args.seed);
      const Clock::time_point t0 = Clock::now();
      try {
        const ModelRunResult r = RunModel(exec, rc, h800);
        const Clock::time_point t1 = Clock::now();
        const uint64_t folded = FoldSimResult(Fnv1aInit(), r);
        if (!have_reference) {
          reference[next] = folded;
          digest = FoldSimResult(digest, r);
        } else if (folded != reference[next]) {
          result.errors.push_back("sim_sweep: call " + std::to_string(next) +
                                  " (" + all[c.system].first + ", " +
                                  point.model.name +
                                  ") differs from the reference pass");
        }
        win.step_ms.push_back(MsBetween(t0, t1));
        if (traced) {
          const int step = spans.Add(SimLayerSpanName(c.system), t0, t1, -1,
                                     static_cast<int>(next));
          const int container =
              spans.Begin("replay", -1, static_cast<int>(next), step);
          const MoeWorkload& tw = timed_workloads.at(c.point);
          int id = spans.Begin("sim.exec.run", container,
                               static_cast<int>(next), step);
          exec.Run(tw, h800, ExecMode::kTimedOnly);
          spans.End(id);
          if (c.system == 0) {
            id = spans.Begin("core.adaptive.adaptive", container, 0);
            exec.Run(tw, h800, ExecMode::kTimedOnly);
            spans.End(id);
            id = spans.Begin("core.adaptive.fixed", container, 0);
            fixed_nc.Run(tw, h800, ExecMode::kTimedOnly);
            spans.End(id);
          }
          probe_work.Add(replay->ReplayDataPlane(kSimProbeTokens, spans,
                                                 container, -1, 0, true));
          replay->ReplayPoolFanout(kFanoutCalls, spans, container, 0);
          spans.End(container);
        }
      } catch (const std::exception& e) {
        ++result.failed;
        result.errors.push_back(std::string("sim_sweep: call threw: ") +
                                e.what());
      }
      ++win.calls;
      ++result.attempted;
      win.tokens += point.tokens;
      pass_tokens += point.tokens;
      if (++next == calls.size()) {
        const double pass_s = SecondsSince(pass_start);
        win.pass_tokens_per_s.push_back(static_cast<double>(pass_tokens) /
                                        pass_s);
        win.pass_layers_per_s.push_back(static_cast<double>(calls.size()) /
                                        pass_s);
        const std::vector<double> steps(win.step_ms.begin() + pass_first_step,
                                        win.step_ms.end());
        win.pass_p50.push_back(Quantile(steps, 0.5));
        win.pass_p90.push_back(Quantile(steps, 0.9));
        ++win.passes;
        have_reference = true;
        next = 0;
        pass_tokens = 0;
        pass_first_step = win.step_ms.size();
        pass_start = Clock::now();
      }
    }
  };

  const double untraced_s =
      args.trace ? args.seconds * kUntracedShare : args.seconds;
  Window untraced;
  run_window(args.check_only ? 0.0 : untraced_s, false, untraced);
  result.checks.emplace_back("sim_digest", Hex64(digest));
  result.checks.emplace_back("calls", std::to_string(calls.size()));
  if (args.check_only) {
    return result;
  }
  if (!args.trace) {
    AddEndToEnd(untraced, setup_s, result);
    return result;
  }
  Window traced;
  run_window(args.seconds - untraced_s, true, traced);

  LayerInputs in;
  in.step_ms = traced.StepMeanMs();
  in.untraced_step_ms = untraced.StepMeanMs();
  in.tokens_per_step = static_cast<double>(traced.tokens) /
                       static_cast<double>(traced.calls);
  in.sim_steps = true;
  const CometExecutor& probe = replay->executor();
  in.memo_hits = static_cast<double>(probe.profile_memo_hits()) - probe_hits0;
  in.memo_misses =
      static_cast<double>(probe.profile_memo_misses()) - probe_misses0;
  in.replay_tokens =
      static_cast<double>(DurationsOf(spans, "core.exec.functional").size()) *
      kSimProbeTokens;
  in.work = probe_work;
  in.prepare_ms = replay->prepare_ms();
  AddPerLayer(spans, in, result);
  if (MinContainerSelfMs(spans) < 0.0) {
    result.errors.push_back("a span's self time is negative");
  }
  WriteChromeTrace(spans, args.trace_out);
  return result;
}

void PrintResult(const Args& args, const Result& r) {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(WorkloadName(args.kind))
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"threads\":" << args.threads << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out << (i ? "," : "") << JsonString(r.errors[i]);
  }
  out << "],\"checks\":{";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    out << (i ? "," : "") << JsonString(r.checks[i].first) << ":"
        << JsonString(r.checks[i].second);
  }
  out << "},\"metrics\":[";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? "," : "") << "{\"name\":" << JsonString(m.name)
        << ",\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit)
        << ",\"class\":" << JsonString(MetricClassName(m.cls))
        << ",\"median\":" << JsonNumber(m.median)
        << ",\"q1\":" << JsonNumber(m.q1) << ",\"q3\":" << JsonNumber(m.q3)
        << ",\"samples\":" << m.samples << "}";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  // One pool at the benchmark's thread setting for every plane.
  comet::SetGlobalThreadCount(args.threads);
  try {
    const Result r = args.kind == WorkloadKind::kSimSweep ? RunSimSweep(args)
                                                          : RunServing(args);
    PrintResult(args, r);
    return r.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << WorkloadName(args.kind) << ": " << e.what()
              << "\n";
    return 1;
  }
}
