#include "replay.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "moe/activation.h"
#include "runtime/model_runner.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace comet;

namespace {

constexpr int64_t kTileN = 128;

// The serving executor's options (serve/server.cc derives the same ones).
CometOptions ExecutorOptionsOf(const ServeOptions& o) {
  CometOptions c;
  c.compute_dtype = o.dtype;
  c.num_threads = o.num_threads;
  c.signal_wait_timeout_ms = o.signal_wait_timeout_ms;
  c.verify_transport = o.verify_transport;
  c.max_replicated_experts =
      o.adaptation.enabled ? o.adaptation.max_replicated_experts : 0;
  c.tile_m = o.granularity;
  return c;
}

// The server's gate weight derivation (seed + 23, stddev 1/sqrt(N)).
Tensor GateWeightOf(const ServeOptions& o) {
  Rng rng(o.seed + 23);
  const float stddev = 1.0f / std::sqrt(static_cast<float>(o.model.embedding));
  return Tensor::Randn(Shape{o.model.embedding, o.model.num_experts}, rng,
                       stddev, DType::kF32);
}

int FanoutThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, hw));
}

}  // namespace

CometOptions FixedNcOptions() {
  CometOptions c;
  c.adaptive = false;
  return c;
}

const char* SimLayerSpanName(int system) {
  static const char* const kNames[] = {
      "sim.layer.comet", "sim.layer.megatron_cutlass", "sim.layer.megatron_te",
      "sim.layer.tutel", "sim.layer.fastermoe"};
  return kNames[system];
}

ReplayConfig ReplayConfigOf(const ServeWorkload& w) {
  ReplayConfig c;
  c.options = w.options;
  c.cluster = w.cluster;
  const int64_t ep = w.options.parallel.ep;
  c.max_tokens = (w.options.token_budget + ep - 1) / ep * ep;
  return c;
}

// Inputs of one padded batch size, built once.
struct LayerReplay::ShapeInputs {
  MoeWorkload workload;        // materialized; routing/plan from the gate
  MoeWorkload timed_workload;  // metadata only, for the timing-plane probes
  Tensor global;               // (m, N): the batch's token rows
  RoutingTable routing;
  GateScratch gate_scratch;
  // Per-expert GEMM operands: layer0 (rows_e, N) x (N, K) -> (rows_e, K),
  // then layer1 (rows_e, K) x (K, N) -> (rows_e, N).
  std::vector<Tensor> a0, c0, c1;
  GroupGemmProblem gemm0, gemm1;
  std::vector<GemmTileCoord> tiles0, tiles1;
  ReplayWork work;
};

LayerReplay::LayerReplay(ReplayConfig config)
    : config_(std::move(config)),
      gate_(GateWeightOf(config_.options)),
      exec_(ExecutorOptionsOf(config_.options)),
      fixed_nc_(FixedNcOptions()),
      heap_(config_.options.parallel.world(),
            HeapIntegrityOptions{config_.options.verify_transport, 0.0, 0}),
      fanout_pool_(FanoutThreads()) {
  const ServeOptions& o = config_.options;
  Rng weight_rng(o.seed + 17);
  weights_ = std::make_shared<ExpertWeights>(
      ExpertWeights::Random(o.model, weight_rng, 0.05f, o.dtype));
  sharded_ = std::make_shared<ShardedExpertWeights>(*weights_, o.parallel.tp);

  const Placement max_placement(o.model, o.parallel, config_.max_tokens);
  // PrepareServing cost: median of three fresh executors, then the one the
  // replays use.
  std::vector<double> prepare;
  for (int i = 0; i < 3; ++i) {
    CometExecutor fresh(ExecutorOptionsOf(o));
    const Clock::time_point t0 = Clock::now();
    fresh.PrepareServing(max_placement, config_.cluster);
    prepare.push_back(MsBetween(t0, Clock::now()));
  }
  prepare_ms_ = Quantile(prepare, 0.5);
  exec_.PrepareServing(max_placement, config_.cluster);
  plan_.Reserve(max_placement, config_.max_tokens);

  const int world = o.parallel.world();
  heap_buf_ = heap_.Allocate("perfbench-replay-rows",
                             Shape{config_.max_tokens * o.model.topk,
                                   o.model.embedding},
                             o.dtype);
  heap_scratch_.assign(static_cast<size_t>(world),
                       std::vector<float>(
                           static_cast<size_t>(o.model.embedding)));
}

LayerReplay::~LayerReplay() = default;

LayerReplay::ShapeInputs& LayerReplay::InputsFor(int64_t m) {
  auto it = shapes_.find(m);
  if (it != shapes_.end()) {
    return *it->second;
  }
  const ServeOptions& o = config_.options;
  const ModelConfig& model = o.model;
  auto s = std::make_unique<ShapeInputs>();

  WorkloadOptions wo;
  wo.seed = o.seed;
  wo.dtype = o.dtype;
  wo.load_std = o.synthetic_load_std;
  s->workload =
      MakeWorkloadWithWeights(model, o.parallel, m, weights_, sharded_, wo);
  WorkloadOptions timed = wo;
  timed.materialize = false;
  timed.dtype = DType::kF32;
  s->timed_workload = MakeWorkload(model, o.parallel, m, timed);

  s->global = Tensor(Shape{m, model.embedding}, o.dtype);
  const int64_t per_group = s->workload.placement.tokens_per_group();
  for (int64_t t = 0; t < m; ++t) {
    s->global.SetRow(t, s->workload.inputs[static_cast<size_t>(
                            t / per_group)].row(t % per_group));
  }
  if (o.routing == ServeRoutingMode::kGate) {
    // Content-based routing, as the server does: the executor replay then
    // runs the plan the gate replay builds.
    gate_.RouteInto(s->global, model.topk, s->gate_scratch, &s->routing);
    s->workload.routing = s->routing;
    s->workload.plan = RoutePlan(s->workload.placement, s->routing);
  } else {
    s->routing = s->workload.routing;
  }

  const std::vector<int64_t> loads =
      s->workload.routing.ExpertLoads(model.num_experts);
  int64_t next_row = 0;
  for (int64_t e = 0; e < model.num_experts; ++e) {
    const int64_t rows = loads[static_cast<size_t>(e)];
    if (rows == 0) {
      continue;
    }
    Tensor a(Shape{rows, model.embedding}, o.dtype);
    for (int64_t r = 0; r < rows; ++r) {
      a.SetRow(r, s->global.row(next_row++ % m));
    }
    s->a0.push_back(std::move(a));
    s->c0.emplace_back(Shape{rows, model.ffn_hidden}, o.dtype);
    s->c1.emplace_back(Shape{rows, model.embedding}, o.dtype);
    s->work.gemm_flop += 2.0 * 2.0 * static_cast<double>(rows) *
                         static_cast<double>(model.embedding) *
                         static_cast<double>(model.ffn_hidden);
    // f32 masters, read and written once.
    s->work.activation_bytes +=
        2.0 * 4.0 * static_cast<double>(rows * model.ffn_hidden);
  }
  size_t g = 0;
  for (int64_t e = 0; e < model.num_experts; ++e) {
    if (loads[static_cast<size_t>(e)] == 0) {
      continue;
    }
    s->gemm0.a.push_back(&s->a0[g]);
    s->gemm0.b.push_back(&weights_->W0(e));
    s->gemm0.c.push_back(&s->c0[g]);
    s->gemm1.a.push_back(&s->c0[g]);
    s->gemm1.b.push_back(&weights_->W1(e));
    s->gemm1.c.push_back(&s->c1[g]);
    ++g;
  }
  s->tiles0 = EnumerateTiles(s->gemm0, o.granularity, kTileN);
  s->tiles1 = EnumerateTiles(s->gemm1, o.granularity, kTileN);
  s->work.heap_rows = m * model.topk;
  auto [pos, inserted] = shapes_.emplace(m, std::move(s));
  return *pos->second;
}

void LayerReplay::Warm(int64_t m) {
  if (shapes_.count(m) != 0) {
    return;
  }
  InputsFor(m);
  SpanRecorder scratch(64);
  ReplayDataPlane(m, scratch, -1, -1, 0,
                  config_.options.routing == ServeRoutingMode::kGate);
  ReplayTimingPlane(m, scratch, -1, 0);
}

ReplayWork LayerReplay::ReplayDataPlane(int64_t m, SpanRecorder& spans,
                                        int parent, int step, int run,
                                        bool gate_on_path) {
  ShapeInputs& s = InputsFor(m);
  const ServeOptions& o = config_.options;
  const int threads = o.num_threads;
  ScopedThreadLimit limit(threads);

  // Gate: attributed to the step only when the step runs it.
  int id = spans.Begin("moe.gate", parent, run, gate_on_path ? step : -1);
  gate_.RouteInto(s.global, o.model.topk, s.gate_scratch, &s.routing);
  spans.End(id);

  id = spans.Begin("moe.route_plan", parent, run, step);
  plan_.Rebuild(s.workload.placement, s.workload.routing);
  spans.End(id);

  id = spans.Begin("core.exec.timed", parent, run, step);
  exec_.RunBatchInto(s.workload, config_.cluster, ExecMode::kTimedOnly,
                     &exec_out_);
  spans.End(id);

  const uint64_t verified_before = exec_.serving_heap_stats().rows_verified;
  id = spans.Begin("core.exec.functional", parent, run, step);
  exec_.RunBatchInto(s.workload, config_.cluster, ExecMode::kFunctional,
                     &exec_out_);
  spans.End(id);
  const CometExecutor::ServingHeapStats heap = exec_.serving_heap_stats();
  ReplayWork work = s.work;
  work.exec_heap_bytes = heap.total_traffic_bytes;
  work.exec_rows_verified =
      static_cast<double>(heap.rows_verified - verified_before);

  id = spans.Begin("moe.gemm", parent, run, step);
  RunGroupGemm(s.gemm0, s.tiles0);
  RunGroupGemm(s.gemm1, s.tiles1);
  spans.End(id);

  id = spans.Begin("moe.activation", parent, run, step);
  for (Tensor& c : s.c0) {
    ApplyActivation(c, ActivationKind::kGelu);
  }
  spans.End(id);

  // Dispatch-shaped row traffic: every (token, expert) row is put to the
  // next rank and read back (checksummed when verify_transport is on), the
  // ranks working concurrently as the executor's rank threads do.
  const int world = o.parallel.world();
  const int64_t rows = s.work.heap_rows;
  id = spans.Begin("comm.heap.rows", parent, run, step);
  ParallelFor(
      0, world, 1,
      [&](int64_t rank) {
        const int src = static_cast<int>(rank);
        const int dst = (src + 1) % world;
        std::vector<float>& out = heap_scratch_[static_cast<size_t>(src)];
        for (int64_t r = src; r < rows; r += world) {
          heap_.PutRow(heap_buf_, src, dst, r, s.global.row(r % m));
          heap_.CopyRow(heap_buf_, src, dst, r, out);
        }
      },
      threads);
  spans.End(id);
  return work;
}

void LayerReplay::ReplayTimingPlane(int64_t m, SpanRecorder& spans,
                                    int parent, int run) {
  ShapeInputs& s = InputsFor(m);
  const ServeOptions& o = config_.options;
  ModelRunConfig rc;
  rc.model = o.model;
  rc.parallel = o.parallel;
  rc.total_tokens = m;
  rc.seed = o.seed;
  rc.load_std = o.synthetic_load_std;
  const auto all = systems_.All();
  for (size_t i = 0; i < all.size(); ++i) {
    if (!all[i].second->Supports(o.parallel)) {
      continue;
    }
    const int id = spans.Begin(SimLayerSpanName(static_cast<int>(i)), parent,
                               run);
    RunModel(*all[i].second, rc, config_.cluster);
    spans.End(id);
  }
  int id = spans.Begin("core.adaptive.adaptive", parent, run);
  systems_.comet.Run(s.timed_workload, config_.cluster, ExecMode::kTimedOnly);
  spans.End(id);
  id = spans.Begin("core.adaptive.fixed", parent, run);
  fixed_nc_.Run(s.timed_workload, config_.cluster, ExecMode::kTimedOnly);
  spans.End(id);
}

void LayerReplay::ReplayPoolFanout(int calls, SpanRecorder& spans, int parent,
                                   int run) {
  const int threads = fanout_pool_.num_threads();
  const int id = spans.Begin("util.pool.fanout", parent, run);
  for (int i = 0; i < calls; ++i) {
    fanout_pool_.ParallelFor(0, threads, 1, [](int64_t) {});
  }
  spans.End(id);
}

}  // namespace perfbench
