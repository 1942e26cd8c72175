#include "core/adaptive.h"

#include <limits>
#include <sstream>

#include "util/check.h"

namespace comet {

AdaptiveAssigner::AdaptiveAssigner(int candidate_stride)
    : candidate_stride_(candidate_stride) {
  COMET_CHECK_GT(candidate_stride_, 0);
}

std::vector<int> AdaptiveAssigner::Candidates(int total_blocks) const {
  COMET_CHECK_GT(total_blocks, 1);
  std::vector<int> out;
  // Leave at least 8 blocks (or half, for tiny configs) to the GEMM side.
  const int max_nc = std::max(1, total_blocks - std::min(8, total_blocks / 2));
  for (int nc = candidate_stride_; nc <= max_nc; nc += candidate_stride_) {
    out.push_back(nc);
  }
  if (out.empty()) {
    out.push_back(1);
  }
  return out;
}

std::vector<DivisionPointSample> AdaptiveAssigner::Sweep(
    MoePipelineStage stage, const RoutePlan& plan, int rank,
    const OpCostModel& costs, const FusedKernelConfig& base) const {
  // Prepare once; each candidate only re-runs the nc-dependent Evaluate
  // step, with no timeline.
  FusedKernelWorkspace ws;
  if (stage == MoePipelineStage::kLayer0) {
    PrepareLayer0Fused(plan, rank, costs, base, ws);
  } else {
    PrepareLayer1Fused(plan, rank, costs, base, ws);
  }
  FusedKernelResult result;
  std::vector<DivisionPointSample> samples;
  for (int nc : Candidates(base.total_blocks)) {
    EvaluateFused(nc, /*record_timeline=*/false, ws, &result);
    samples.push_back(DivisionPointSample{nc, result.duration_us});
  }
  return samples;
}

std::string AdaptiveAssigner::ProfileKey(const ClusterSpec& cluster,
                                         const Placement& placement,
                                         MoePipelineStage stage) {
  std::ostringstream os;
  os << cluster.name << "|" << placement.model().name << "|M"
     << placement.total_tokens() << "|" << placement.parallel().ToString()
     << "|" << (stage == MoePipelineStage::kLayer0 ? "layer0" : "layer1");
  return os.str();
}

int AdaptiveAssigner::SelectCommBlocks(MoePipelineStage stage,
                                       const RoutePlan& plan, int rank,
                                       const OpCostModel& costs,
                                       const FusedKernelConfig& base,
                                       MetadataStore* store) const {
  std::string key;
  if (store != nullptr) {
    key = ProfileKey(costs.cluster(), plan.placement(), stage);
    if (auto cached = store->GetInt(key)) {
      // The store may come from a file: reject a value no kernel exists for
      // here, naming it, rather than failing later inside the simulator.
      COMET_CHECK(*cached >= 1 && *cached <= base.total_blocks - 1)
          << "cached division point " << key << " = " << *cached
          << " is outside [1, " << base.total_blocks - 1 << "]";
      return static_cast<int>(*cached);
    }
  }
  double best_us = std::numeric_limits<double>::infinity();
  int best_nc = 1;
  for (const auto& sample : Sweep(stage, plan, rank, costs, base)) {
    if (sample.duration_us < best_us) {
      best_us = sample.duration_us;
      best_nc = sample.comm_blocks;
    }
  }
  if (store != nullptr) {
    store->PutInt(key, best_nc);
  }
  return best_nc;
}

}  // namespace comet
