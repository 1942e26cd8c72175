// The stages the forward executor (comet_executor.cc) and the backward pass
// (comet_backward.cc) share. By the mirror argument of comet_backward.h the
// backward's kernel A is forward layer0 and its kernel B is forward layer1,
// so the division-point picker, the undispatch scatter and the canonical
// combine are written once here and called from both directions.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/symmetric_heap.h"
#include "core/comet_executor.h"
#include "core/fused_kernel.h"
#include "core/pipeline_ir.h"

namespace comet {

// Asserts that `graph` has exactly one compute<->communication pipeline and
// that the §3.1 analysis decomposes it along `dim` with reschedule `hint` --
// the conclusions the schedules of both directions are built on.
void CheckOverlapPipeline(const PipelineGraph& graph, DecomposeDim dim,
                          RescheduleHint hint);

// The fused-kernel configuration `options` selects on a GPU with
// `total_blocks` SMs (comm_blocks left at 0 for the picker to fill).
FusedKernelConfig FusedConfigFor(const CometOptions& options,
                                 int total_blocks);

// Communication-block counts of the two fused kernels (forward layer0 /
// backward kernel A, forward layer1 / backward kernel B).
struct DivisionPoints {
  int nc0 = 0;
  int nc1 = 0;
};

// Profiles on the most loaded rank (the one that sets the makespan) and
// uses one division point everywhere, as the paper's pre-compiled kernel
// selection does: vertical fusion has no communication blocks, a fixed
// split takes min(fixed_comm_blocks, sms - 1), and the adaptive split asks
// `assigner` (consulting/filling `cache` when non-null). Layer0 is profiled
// before layer1.
DivisionPoints PickDivisionPoints(const CometOptions& options,
                                  const AdaptiveAssigner& assigner,
                                  const RoutePlan& plan,
                                  const OpCostModel& costs,
                                  const FusedKernelConfig& base,
                                  MetadataStore* cache);

// Undispatch of one local expert slice from rank `rank`: row `pos` of
// `rows` (the slice's rows in `order`) returns, lane-matched and unweighted,
// to its token's home group as row (local token * topk + slot) of `buf`,
// bumping the same-index word of `sig`. Each (token, slot) pair owns its
// destination row and signal word, so the scatter fans out per row.
void UndispatchSlice(SymmetricHeap& heap, SymmetricBufferId buf,
                     SymmetricBufferId sig, const Placement& placement,
                     int rank, const ExpertSlice& slice,
                     const std::vector<int64_t>& order, const Tensor& rows);

// The combine consume stage of rank `rank`; a no-op unless the rank is its
// group's TP lane 0. Blocks on the arrival signal of every expected
// contribution (the NVSHMEM wait_until loop of the real combine kernel --
// in concurrent mode producers on peer threads are still streaming rows
// in), then reduces each token into row t of `results[group]` (already
// shaped tokens_per_group x embedding): zero the row, accumulate slot-major
// with the TP lane inner, round once to `dtype`. A contribution is weighted
// by its route weight when `weighted`, else by 1. The order is a pure
// function of (token, slot, lane), never of arrival order, so serial,
// concurrent and any-thread-count runs are bit-identical. Routes may carry
// fewer than topk entries (capacity-dropped pairs); only written slots are
// consumed.
void CombineGroup(SymmetricHeap& heap, SymmetricBufferId buf,
                  SymmetricBufferId sig, const Placement& placement,
                  const RoutingTable& routing, int rank, bool weighted,
                  DType dtype, int64_t signal_wait_timeout_ms,
                  std::vector<Tensor>& results);

// Grows the calling thread's combine row buffer to `n_embed` floats, so a
// later CombineGroup on this thread does not allocate.
void WarmCombineScratch(int64_t n_embed);

}  // namespace comet
