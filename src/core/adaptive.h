// Adaptive thread-block assignment (paper §3.2.2).
//
// The optimal split nc (communication blocks) / np (GEMM blocks) depends on
// input length, parallel strategy and cluster. COMET ships pre-compiled
// kernels for a grid of division points; before deployment each setup is
// profiled and the best division point stored as metadata, which the runtime
// consults to pick the kernel. Here "profiling" runs the fused-kernel
// simulator across the candidate grid; the metadata store is the same
// artifact (a key-value file) the paper describes.
#pragma once

#include <string>
#include <vector>

#include "core/fused_kernel.h"
#include "util/metadata_store.h"

namespace comet {

enum class MoePipelineStage {
  kLayer0,
  kLayer1,
};

// One profiled candidate.
struct DivisionPointSample {
  int comm_blocks = 0;
  double duration_us = 0.0;
};

class AdaptiveAssigner {
 public:
  // `candidate_stride`: spacing of the pre-compiled nc grid (the paper ships
  // a finite kernel library, not a continuum).
  explicit AdaptiveAssigner(int candidate_stride = 2);

  // Candidate nc values for a GPU with `total_blocks` SMs.
  std::vector<int> Candidates(int total_blocks) const;

  // Simulates every candidate for this stage/rank; returns samples in
  // candidate order. `base` supplies tile sizes and flags; its comm_blocks
  // field is ignored. The nc-free half of the fused-kernel simulation
  // (Prepare*) runs once; each candidate is one EvaluateFused(nc) on the
  // same workspace with no timeline, so every sample equals the whole
  // Simulate*Fused(nc) duration bit for bit.
  std::vector<DivisionPointSample> Sweep(MoePipelineStage stage,
                                         const RoutePlan& plan, int rank,
                                         const OpCostModel& costs,
                                         const FusedKernelConfig& base) const;

  // Cache key identifying a setup (cluster | model | M | TP | EP | stage).
  static std::string ProfileKey(const ClusterSpec& cluster,
                                const Placement& placement,
                                MoePipelineStage stage);

  // Returns the optimal nc, consulting / filling `store` when provided. A
  // cached value outside [1, total_blocks - 1] fails a check that names the
  // profile key.
  int SelectCommBlocks(MoePipelineStage stage, const RoutePlan& plan, int rank,
                       const OpCostModel& costs, const FusedKernelConfig& base,
                       MetadataStore* store = nullptr) const;

 private:
  int candidate_stride_;
};

}  // namespace comet
