// Per-layer replay for the traced run.
//
// The benchmark cannot see inside MoeServer::StepIteration, so after each
// traced step it replays that step's layer calls through the layers' own
// public entry points, at the step's batch shape, and records one span per
// call: gate -> route plan -> executor (timed-only, then functional) ->
// GEMM -> activation -> heap rows, plus the timing-plane and thread-pool
// probes. Inputs come from MakeWorkload at the workload's seed and dtype;
// per-shape inputs are built and warmed once, outside any span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "comm/symmetric_heap.h"
#include "core/comet_executor.h"
#include "moe/group_gemm.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "util/thread_pool.h"

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

// The data-plane shape a replay runs at, mirroring the server's options.
struct ReplayConfig {
  comet::ServeOptions options;
  comet::ClusterSpec cluster;
  int64_t max_tokens = 0;  // largest padded batch
};

ReplayConfig ReplayConfigOf(const ServeWorkload& w);

// Work done by the kernel replays of one step, computed from shapes.
struct ReplayWork {
  double gemm_flop = 0.0;
  double activation_bytes = 0.0;
  int64_t heap_rows = 0;
  // Symmetric-heap traffic of the functional executor replay (its serving
  // heap counts one iteration's bytes) and rows it checksum-verified.
  double exec_heap_bytes = 0.0;
  double exec_rows_verified = 0.0;

  void Add(const ReplayWork& o) {
    gemm_flop += o.gemm_flop;
    activation_bytes += o.activation_bytes;
    heap_rows += o.heap_rows;
    exec_heap_bytes += o.exec_heap_bytes;
    exec_rows_verified += o.exec_rows_verified;
  }
};

class LayerReplay {
 public:
  explicit LayerReplay(ReplayConfig config);
  ~LayerReplay();  // out-of-line: ShapeInputs is incomplete here

  // Median host ms of PrepareServing on fresh executors at the max shape.
  double prepare_ms() const { return prepare_ms_; }
  const comet::CometExecutor& executor() const { return exec_; }

  // Builds the inputs for padded token count `m` and runs every replayed
  // call once, untimed (so profile sweeps and first-touch costs stay out of
  // the spans).
  void Warm(int64_t m);

  // Replays the data-plane calls of one step at padded token count `m`.
  // Spans are recorded under `parent` and attributed to `step`; `on_path`
  // says whether the step itself runs the gate (false for synthetic
  // routing: the gate span then replays nothing the step did).
  ReplayWork ReplayDataPlane(int64_t m, SpanRecorder& spans, int parent,
                             int step, int run, bool gate_on_path);

  // Timing-plane probes at `m`: RunModel for each system (sim.layer.*) and
  // Comet's Run with adaptive vs fixed division points (core.adaptive.*).
  void ReplayTimingPlane(int64_t m, SpanRecorder& spans, int parent, int run);

  // An empty ParallelFor on a pool of min(4, nproc) threads, `calls` times,
  // as one util.pool.fanout span: the wake-up cost a multi-threaded step
  // pays (the timed runs themselves use one thread).
  void ReplayPoolFanout(int calls, SpanRecorder& spans, int parent, int run);

 private:
  struct ShapeInputs;
  ShapeInputs& InputsFor(int64_t m);

  ReplayConfig config_;
  std::shared_ptr<const comet::ExpertWeights> weights_;
  std::shared_ptr<const comet::ShardedExpertWeights> sharded_;
  comet::GateNetwork gate_;
  comet::CometExecutor exec_;
  comet::CometExecutor fixed_nc_;
  comet::LayerExecution exec_out_;
  comet::RoutePlan plan_;
  comet::SymmetricHeap heap_;
  comet::SymmetricBufferId heap_buf_ = 0;
  std::vector<std::vector<float>> heap_scratch_;  // one row per rank
  SimSystems systems_;
  comet::ThreadPool fanout_pool_;
  double prepare_ms_ = 0.0;
  std::map<int64_t, std::unique_ptr<ShapeInputs>> shapes_;
};

// Comet with the division point fixed instead of swept: the baseline of
// core.adaptive.sweep_share.
comet::CometOptions FixedNcOptions();

// Span names of the timing-plane probes, indexed like SimSystems::All().
const char* SimLayerSpanName(int system);

}  // namespace perfbench
