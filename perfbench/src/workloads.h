// The benchmark's four workloads: their fixed shapes, the seeded inputs the
// program receives, and one "pass" of each -- a fixed unit of work whose
// simulated outputs are deterministic, so every pass of a run can be checked
// against the first and against a pin.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "core/comet_executor.h"
#include "runtime/model_runner.h"
#include "serve/cluster.h"
#include "serve/server.h"

#include "bench_util.h"

namespace perfbench {

enum class WorkloadKind {
  kServeDecode,
  kServePrefill,
  kClusterSkew,
  kSimSweep,
};

const char* WorkloadName(WorkloadKind kind);
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

// Exact (name, value) pairs of simulated outputs and counts. Two passes of
// one (workload, seed) must produce identical lists at any thread count.
using Checks = std::vector<std::pair<std::string, std::string>>;

// Inputs of a serving workload (serve_decode, serve_prefill, cluster_skew).
struct ServeWorkload {
  comet::ServeOptions options;  // one replica
  comet::ClusterSpec cluster;   // one replica's EP group
  std::vector<comet::RequestSpec> requests;  // one pass, sorted by arrival
  comet::MoeServer::RunBounds bounds;
  // cluster_skew only.
  comet::ClusterOptions cluster_options;
};

// Builds the workload's inputs from `seed`. `threads` is the program's
// ServeOptions::num_threads.
ServeWorkload MakeServeWorkload(WorkloadKind kind, uint64_t seed,
                                int threads);

// Outcome of one pass.
struct PassResult {
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t failed = 0;  // shed + lost + retries exhausted
  int64_t tokens = 0;  // non-padding tokens served
  int64_t padding = 0;
  int64_t iterations = 0;
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;
  Checks checks;
};

// Called after every StepIteration of a traced single-server pass with the
// step's padded token count and its host interval.
using StepHook = std::function<void(int64_t padded_tokens, Clock::time_point,
                                    Clock::time_point)>;

// Set-up warm-up: begins a pass and runs its first `steps` steps (the run is
// abandoned; the next BeginRun resets it).
void WarmUpServer(comet::MoeServer& server, const ServeWorkload& w, int steps);

// One pass of a single-server workload through the dispatcher hooks: every
// request is offered at t=0 (a saturating backlog) and the server steps
// until it drains. Appends each StepIteration's host ms to `step_ms`.
PassResult RunServerPass(comet::MoeServer& server, const ServeWorkload& w,
                         std::vector<double>* step_ms,
                         const StepHook& hook = nullptr);

// One pass of cluster_skew: MoeCluster::Run over the pass's arrivals.
PassResult RunClusterPass(comet::MoeCluster& cluster, const ServeWorkload& w);

// ---- sim_sweep -------------------------------------------------------------

struct SimPoint {
  comet::ModelConfig model;
  comet::ParallelConfig parallel;
  int64_t tokens = 0;
};

// Models x parallelisms x M on H800x8, in a fixed order.
std::vector<SimPoint> SimGrid();

// Comet and the four baselines, with report names.
struct SimSystems {
  comet::CometExecutor comet;
  comet::MegatronExecutor megatron_cutlass = comet::MakeMegatronCutlass();
  comet::MegatronExecutor megatron_te = comet::MakeMegatronTe();
  comet::TutelExecutor tutel;
  comet::FasterMoeExecutor fastermoe;

  std::vector<std::pair<const char*, comet::MoeLayerExecutor*>> All() {
    return {{"comet", &comet},
            {"megatron_cutlass", &megatron_cutlass},
            {"megatron_te", &megatron_te},
            {"tutel", &tutel},
            {"fastermoe", &fastermoe}};
  }
};

// One RunModel call of the sweep.
struct SimCall {
  size_t point = 0;
  int system = 0;  // index into SimSystems::All()
};

// Every (point, supported system) pair, grid order then system order.
std::vector<SimCall> SimCalls(SimSystems& systems,
                              const std::vector<SimPoint>& grid);

comet::ModelRunConfig SimRunConfig(const SimPoint& point, uint64_t seed);

// Simulated outputs of one call folded into a running FNV-1a digest.
uint64_t FoldSimResult(uint64_t digest, const comet::ModelRunResult& r);

}  // namespace perfbench
