#include "core/comet_stages.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// Thread-local f32 staging row the combine reads contributions into.
std::vector<float>& CombineRowBuf() {
  thread_local std::vector<float> buf;
  return buf;
}

}  // namespace

void CheckOverlapPipeline(const PipelineGraph& graph, DecomposeDim dim,
                          RescheduleHint hint) {
  const auto pipelines = ResolveOverlapPipelines(graph);
  COMET_CHECK(pipelines.size() == 1 && pipelines.front().chosen == dim &&
              pipelines.front().hint == hint)
      << "unexpected decomposition:\n" << DescribePipelines(pipelines);
}

FusedKernelConfig FusedConfigFor(const CometOptions& options,
                                 int total_blocks) {
  FusedKernelConfig config;
  config.total_blocks = total_blocks;
  config.tile_m = options.tile_m;
  config.tile_n = options.tile_n;
  config.reschedule = options.reschedule;
  config.vertical_fusion = !options.specialized;
  return config;
}

DivisionPoints PickDivisionPoints(const CometOptions& options,
                                  const AdaptiveAssigner& assigner,
                                  const RoutePlan& plan,
                                  const OpCostModel& costs,
                                  const FusedKernelConfig& base,
                                  MetadataStore* cache) {
  int busiest = 0;
  for (int r = 1; r < plan.placement().world(); ++r) {
    if (plan.ForRank(r).TotalRows() > plan.ForRank(busiest).TotalRows()) {
      busiest = r;
    }
  }
  const auto pick = [&](MoePipelineStage stage) {
    if (base.vertical_fusion) {
      return 0;
    }
    if (!options.adaptive) {
      return std::min(options.fixed_comm_blocks, base.total_blocks - 1);
    }
    return assigner.SelectCommBlocks(stage, plan, busiest, costs, base, cache);
  };
  DivisionPoints points;
  points.nc0 = pick(MoePipelineStage::kLayer0);
  points.nc1 = pick(MoePipelineStage::kLayer1);
  return points;
}

void UndispatchSlice(SymmetricHeap& heap, SymmetricBufferId buf,
                     SymmetricBufferId sig, const Placement& placement,
                     int rank, const ExpertSlice& slice,
                     const std::vector<int64_t>& order, const Tensor& rows) {
  const int lane = placement.TpLaneOfRank(rank);
  const int64_t topk = placement.model().topk;
  ParallelFor(
      0, static_cast<int64_t>(order.size()), 8,
      [&](int64_t pos) {
        const ExpertRow& row =
            slice.rows[static_cast<size_t>(order[static_cast<size_t>(pos)])];
        const int dst = placement.RankOf(row.source_group, lane);
        const int64_t dst_row =
            (row.token - placement.FirstTokenOfGroup(row.source_group)) *
                topk +
            row.slot;
        heap.PutRowWithSignal(buf, rank, dst, dst_row, rows.row(pos), sig,
                              dst_row);
      });
}

void CombineGroup(SymmetricHeap& heap, SymmetricBufferId buf,
                  SymmetricBufferId sig, const Placement& placement,
                  const RoutingTable& routing, int rank, bool weighted,
                  DType dtype, int64_t signal_wait_timeout_ms,
                  std::vector<Tensor>& results) {
  if (placement.TpLaneOfRank(rank) != 0) {
    return;
  }
  const int g = placement.EpGroupOfRank(rank);
  const int tp = placement.parallel().tp;
  const int64_t topk = placement.model().topk;
  const int64_t n_embed = placement.model().embedding;
  const int64_t group_tokens = placement.tokens_per_group();
  const int64_t first = placement.FirstTokenOfGroup(g);
  // Wait for delivery. Blocking waits stay on this rank's dedicated thread
  // -- they must never ride pool workers, or spinning consumers could starve
  // the producers' tile chunks out of the pool.
  for (int64_t t = 0; t < group_tokens; ++t) {
    const int64_t slots = static_cast<int64_t>(
        routing.tokens[static_cast<size_t>(first + t)].experts.size());
    for (int64_t k = 0; k < slots; ++k) {
      for (int l = 0; l < tp; ++l) {
        heap.WaitUntilSignalGe(sig, placement.RankOf(g, l), t * topk + k, 1,
                               signal_wait_timeout_ms);
      }
    }
  }
  Tensor& result = results[static_cast<size_t>(g)];
  // Tokens reduce independently (one output row each); the slot-major,
  // TP-lane-inner order within a token is preserved inside the body.
  ParallelFor(
      0, group_tokens, 4,
      [&](int64_t t) {
        std::vector<float>& row_buf = CombineRowBuf();
        row_buf.resize(static_cast<size_t>(n_embed));
        // Accumulation starts from an explicitly zeroed row (a reused
        // workspace tensor carries the previous batch's bits).
        result.FillZeroRows(t, t + 1);
        const TokenRoute& route =
            routing.tokens[static_cast<size_t>(first + t)];
        const int64_t slots = static_cast<int64_t>(route.experts.size());
        for (int64_t k = 0; k < slots; ++k) {
          const float weight =
              weighted ? route.weights[static_cast<size_t>(k)] : 1.0f;
          for (int l = 0; l < tp; ++l) {
            heap.WaitSignalGe(sig, placement.RankOf(g, l), t * topk + k, 1);
            heap.CopyRow(buf, rank, placement.RankOf(g, l), t * topk + k,
                         row_buf);
            result.AccumulateRow(t, row_buf, weight);
          }
        }
        // f32 accumulation above, one rounding on store -- the point the
        // sharded references round each output row at.
        QuantizeSpan(result.row(t), dtype);
      });
}

void WarmCombineScratch(int64_t n_embed) {
  CombineRowBuf().reserve(static_cast<size_t>(n_embed));
}

}  // namespace comet
