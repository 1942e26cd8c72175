#include "core/fused_kernel.h"

#include <algorithm>

#include "util/check.h"

namespace comet {
namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Harmonic blend of per-class transfer rates: moving each byte class at its
// own rate back-to-back through one channel yields total/sum(bytes_i/rate_i).
double HarmonicBlend(std::initializer_list<std::pair<double, double>> classes,
                     double fallback_rate) {
  double total = 0.0;
  double denom = 0.0;
  for (const auto& [bytes, rate] : classes) {
    if (bytes > 0.0) {
      total += bytes;
      denom += bytes / rate;
    }
  }
  return total > 0.0 ? total / denom : fallback_rate;
}

// Remote traffic of one rank split by fabric tier.
struct TierSplit {
  double intra = 0.0;  // stays inside the node (NVLink)
  double inter = 0.0;  // crosses nodes (IB); zero on single-node clusters
};

double TierLatencyUs(const TierSplit& split, const ClusterSpec& cluster) {
  return split.inter > 0.0
             ? std::max(cluster.link.latency_us, cluster.inter_link.latency_us)
             : cluster.link.latency_us;
}

// Lays out the flat chunk id space for `plan` and clears the per-chunk
// accumulators. Returns the total chunk count.
int64_t PrepareChunks(const RankPlan& rank_plan, int64_t tile_m,
                      FusedKernelWorkspace& ws) {
  const size_t n_experts = rank_plan.experts.size();
  ws.chunk_base.resize(n_experts);
  int64_t total_chunks = 0;
  for (size_t le = 0; le < n_experts; ++le) {
    ws.chunk_base[le] = total_chunks;
    const int64_t m = static_cast<int64_t>(rank_plan.experts[le].rows.size());
    total_chunks += CeilDiv(m, tile_m);
  }
  ws.chunk_seen.assign(static_cast<size_t>(total_chunks), 0);
  ws.chunk_intra.assign(static_cast<size_t>(total_chunks), 0.0);
  ws.chunk_inter.assign(static_cast<size_t>(total_chunks), 0.0);
  ws.chunk_job.assign(static_cast<size_t>(total_chunks), -1);
  ws.chunk_order.clear();
  return total_chunks;
}

// Runs the communication channel of `nc` blocks over ws.jobs into
// ws.transfers; returns the channel makespan (0 when nothing moves).
double RunChannel(FusedKernelWorkspace& ws, int nc, Timeline* timeline) {
  if (ws.comm_bytes <= 0.0) {
    return 0.0;
  }
  const double bw =
      std::min(static_cast<double>(nc) * ws.channel_per_block_rate,
               ws.channel_port_rate);
  BandwidthQueue channel(bw, ws.channel_latency_us);
  channel.ScheduleInto(ws.jobs, 0.0, &ws.transfers);
  double makespan = 0.0;
  for (const TransferResult& t : ws.transfers) {
    makespan = std::max(makespan, t.end_us);
    if (timeline != nullptr) {
      timeline->Add(
          ws.is_layer1 ? "l1-send" : "l0-recv",
          ws.is_layer1 ? OpCategory::kLayer1Comm : OpCategory::kLayer0Comm, 1,
          t.start_us, t.end_us);
    }
  }
  return makespan;
}

// Issues ws.tasks in order on `slots` blocks into ws.slot_schedule.
void RunSlots(FusedKernelWorkspace& ws, int slots, Timeline* timeline,
              FusedKernelResult* result) {
  ScheduleInOrderInto(ws.tasks, slots, 0.0, ws.slot_heap, &ws.slot_schedule);
  const SlotSchedule& sched = ws.slot_schedule;
  result->compute_makespan_us = sched.makespan_us;
  result->stall_us = sched.stall_us;
  if (timeline != nullptr) {
    for (const ScheduledTask& t : sched.tasks) {
      timeline->Add(
          ws.is_layer1 ? "l1-tile" : "l0-tile",
          ws.is_layer1 ? OpCategory::kLayer1Comp : OpCategory::kLayer0Comp, 0,
          t.start_us, t.end_us);
    }
  }
}

}  // namespace

void PrepareLayer0Fused(const RoutePlan& plan, int rank,
                        const OpCostModel& costs,
                        const FusedKernelConfig& config,
                        FusedKernelWorkspace& ws) {
  const Placement& placement = plan.placement();
  const int group = placement.EpGroupOfRank(rank);
  const int ep = placement.parallel().ep;
  const RankPlan& rank_plan = plan.ForRank(rank);
  const int64_t out_cols = placement.HiddenPerTpRank();
  const int64_t n_embed = placement.model().embedding;
  const double row_bytes = static_cast<double>(n_embed) * costs.bytes_per_element();
  const LinkSpec& link = costs.cluster().link;

  COMET_CHECK_GT(config.total_blocks, 0);
  ws.is_layer1 = false;
  ws.vertical_fusion = config.vertical_fusion;
  ws.total_blocks = config.total_blocks;

  BuildLayer0ScheduleInto(rank_plan, group, ep, out_cols, config.tile_m,
                          config.tile_n, config.reschedule,
                          ws.schedule_scratch, &ws.layer0);
  const Layer0Schedule& schedule = ws.layer0;

  // Remote bytes per row chunk (split by fabric tier), in tile first-use
  // order.
  const ClusterSpec& cluster = costs.cluster();
  const int lane = placement.TpLaneOfRank(rank);
  PrepareChunks(rank_plan, config.tile_m, ws);
  TierSplit total_split;
  for (const TileRef& tile : schedule.tiles) {
    const int64_t chunk =
        ws.chunk_base[static_cast<size_t>(tile.expert_local)] +
        tile.row_begin / config.tile_m;
    if (ws.chunk_seen[static_cast<size_t>(chunk)]) {
      continue;
    }
    ws.chunk_seen[static_cast<size_t>(chunk)] = 1;
    const auto& rows = rank_plan.experts[static_cast<size_t>(tile.expert_local)].rows;
    const auto& order = schedule.row_order[static_cast<size_t>(tile.expert_local)];
    TierSplit remote;
    for (int64_t i = tile.row_begin; i < tile.row_end; ++i) {
      const ExpertRow& row =
          rows[static_cast<size_t>(order[static_cast<size_t>(i)])];
      if (row.source_group == group) {
        continue;
      }
      const int src_rank = placement.RankOf(row.source_group, lane);
      if (cluster.SameNode(rank, src_rank)) {
        remote.intra += row_bytes;
      } else {
        remote.inter += row_bytes;
      }
    }
    ws.chunk_intra[static_cast<size_t>(chunk)] = remote.intra;
    ws.chunk_inter[static_cast<size_t>(chunk)] = remote.inter;
    total_split.intra += remote.intra;
    total_split.inter += remote.inter;
    ws.chunk_order.push_back(chunk);
  }
  ws.comm_bytes = total_split.intra + total_split.inter;
  ws.tasks.clear();
  ws.jobs.clear();

  if (config.vertical_fusion) {
    // Every block fetches its own tile's rows inline: column tiles of the
    // same row chunk re-fetch the rows (the redundant-access problem of
    // vertical fusion), and the broken async pipeline slows the math itself.
    const double tile_us =
        costs.gemm().TileTimeUs(n_embed, config.tile_m, config.tile_n) *
        (1.0 + config.vertical_fusion_penalty);
    for (const TileRef& tile : schedule.tiles) {
      const size_t chunk = static_cast<size_t>(
          ws.chunk_base[static_cast<size_t>(tile.expert_local)] +
          tile.row_begin / config.tile_m);
      const double intra_bytes = ws.chunk_intra[chunk];
      const double inter_bytes = ws.chunk_inter[chunk];
      const double total = intra_bytes + inter_bytes;
      const double fetch =
          total > 0.0
              ? total / HarmonicBlend(
                            {{intra_bytes,
                              link.per_block_bandwidth_scattered_bytes_per_us},
                             {inter_bytes,
                              cluster.inter_link
                                  .per_block_bandwidth_scattered_bytes_per_us}},
                            link.per_block_bandwidth_scattered_bytes_per_us)
              : 0.0;
      ws.tasks.push_back(SlotTask{0.0, tile_us + fetch});
    }
    return;
  }

  // Token delivery: FIFO channel at the aggregate rate of the nc blocks,
  // tier-blended on multi-node clusters; one job per remote row chunk.
  ws.channel_per_block_rate = HarmonicBlend(
      {{total_split.intra, link.per_block_bandwidth_scattered_bytes_per_us},
       {total_split.inter,
        cluster.inter_link.per_block_bandwidth_scattered_bytes_per_us}},
      link.per_block_bandwidth_scattered_bytes_per_us);
  ws.channel_port_rate = HarmonicBlend(
      {{total_split.intra, link.bandwidth_bytes_per_us},
       {total_split.inter, cluster.inter_link.bandwidth_bytes_per_us}},
      link.bandwidth_bytes_per_us);
  ws.channel_latency_us = TierLatencyUs(total_split, cluster);
  for (const int64_t chunk : ws.chunk_order) {
    const double bytes = ws.chunk_intra[static_cast<size_t>(chunk)] +
                         ws.chunk_inter[static_cast<size_t>(chunk)];
    if (bytes > 0.0) {
      ws.chunk_job[static_cast<size_t>(chunk)] =
          static_cast<int64_t>(ws.jobs.size());
      ws.jobs.push_back(TransferJob{0.0, bytes});
    }
  }

  // Compute side: each tile waits for the job delivering its rows.
  const double tile_us =
      costs.gemm().TileTimeUs(n_embed, config.tile_m, config.tile_n);
  ws.tile_job.clear();
  for (const TileRef& tile : schedule.tiles) {
    const size_t chunk = static_cast<size_t>(
        ws.chunk_base[static_cast<size_t>(tile.expert_local)] +
        tile.row_begin / config.tile_m);
    ws.tile_job.push_back(ws.chunk_job[chunk]);
    ws.tasks.push_back(SlotTask{0.0, tile_us});
  }
}

void PrepareLayer1Fused(const RoutePlan& plan, int rank,
                        const OpCostModel& costs,
                        const FusedKernelConfig& config,
                        FusedKernelWorkspace& ws) {
  const Placement& placement = plan.placement();
  const RankPlan& rank_plan = plan.ForRank(rank);
  const int64_t n_embed = placement.model().embedding;
  const int64_t k_depth = placement.HiddenPerTpRank();
  const double elt = costs.bytes_per_element();
  const LinkSpec& link = costs.cluster().link;

  COMET_CHECK_GT(config.total_blocks, 0);
  ws.is_layer1 = true;
  ws.vertical_fusion = config.vertical_fusion;
  ws.total_blocks = config.total_blocks;

  BuildLayer1ScheduleInto(rank_plan, n_embed, config.tile_m, config.tile_n,
                          config.reschedule, &ws.layer1);
  const Layer1Schedule& schedule = ws.layer1;

  // Communication volume: remote partial rows return to their home group
  // (scattered all-to-all writes, split by fabric tier) plus the TP
  // reduce-scatter share (contiguous; crosses nodes only when the TP group
  // spans nodes).
  const ClusterSpec& cluster = costs.cluster();
  const int lane = placement.TpLaneOfRank(rank);
  const int group = placement.EpGroupOfRank(rank);
  const double row_bytes = static_cast<double>(n_embed) * elt;
  TierSplit ep_split;
  for (const auto& slice : rank_plan.experts) {
    for (const ExpertRow& row : slice.rows) {
      if (row.source_group == group) {
        continue;
      }
      const int dst = placement.RankOf(row.source_group, lane);
      if (cluster.SameNode(rank, dst)) {
        ep_split.intra += row_bytes;
      } else {
        ep_split.inter += row_bytes;
      }
    }
  }
  const double ep_bytes_total = ep_split.intra + ep_split.inter;
  const double rs_bytes_total = plan.TpReduceScatterBytesPerRank(row_bytes);
  const int tp = placement.parallel().tp;
  const bool tp_group_spans_nodes =
      tp > 1 && !cluster.SameNode(placement.RankOf(group, 0),
                                  placement.RankOf(group, tp - 1));
  const double total_comm = ep_bytes_total + rs_bytes_total;
  ws.comm_bytes = total_comm;

  const double tile_us =
      costs.gemm().TileTimeUs(k_depth, config.tile_m, config.tile_n);
  ws.jobs.clear();

  if (config.vertical_fusion) {
    const double per_tile_comm =
        schedule.tiles.empty()
            ? 0.0
            : total_comm / static_cast<double>(schedule.tiles.size()) /
                  link.per_block_bandwidth_scattered_bytes_per_us;
    ws.tasks.assign(
        schedule.tiles.size(),
        SlotTask{0.0, tile_us * (1.0 + config.vertical_fusion_penalty) +
                          per_tile_comm});
    return;
  }

  // Compute: all tiles ready at 0; order decides when panels complete.
  ws.tasks.assign(schedule.tiles.size(), SlotTask{0.0, tile_us});

  // Panel completion gates the reduce + write/send of those columns: one job
  // per column panel, fed by the tiles of that panel.
  const LinkSpec& rs_link =
      tp_group_spans_nodes ? cluster.inter_link : cluster.link;
  ws.channel_per_block_rate = HarmonicBlend(
      {{ep_split.intra, link.per_block_bandwidth_scattered_bytes_per_us},
       {ep_split.inter,
        cluster.inter_link.per_block_bandwidth_scattered_bytes_per_us},
       {rs_bytes_total, rs_link.per_block_bandwidth_bytes_per_us}},
      link.per_block_bandwidth_bytes_per_us);
  ws.channel_port_rate = HarmonicBlend(
      {{ep_split.intra + (tp_group_spans_nodes ? 0.0 : rs_bytes_total),
        link.bandwidth_bytes_per_us},
       {ep_split.inter + (tp_group_spans_nodes ? rs_bytes_total : 0.0),
        cluster.inter_link.bandwidth_bytes_per_us}},
      link.bandwidth_bytes_per_us);
  TierSplit latency_split;
  latency_split.inter =
      ep_split.inter + (tp_group_spans_nodes ? rs_bytes_total : 0.0);
  ws.channel_latency_us = TierLatencyUs(latency_split, cluster);
  for (int64_t p = 0; p < schedule.num_col_panels; ++p) {
    const int64_t col_begin = p * config.tile_n;
    const int64_t col_end = std::min(col_begin + config.tile_n, n_embed);
    const double frac = static_cast<double>(col_end - col_begin) /
                        static_cast<double>(n_embed);
    ws.jobs.push_back(TransferJob{0.0, total_comm * frac});
  }
  ws.tile_job.clear();
  for (const TileRef& tile : schedule.tiles) {
    ws.tile_job.push_back(tile.col_begin / config.tile_n);
  }
}

void EvaluateFused(int comm_blocks, bool record_timeline,
                   FusedKernelWorkspace& ws, FusedKernelResult* result) {
  COMET_CHECK_GE(comm_blocks, 0);
  COMET_CHECK_LT(comm_blocks, ws.total_blocks);
  result->duration_us = 0.0;
  result->compute_makespan_us = 0.0;
  result->comm_makespan_us = 0.0;
  result->stall_us = 0.0;
  result->comm_bytes = ws.comm_bytes;
  result->timeline.Clear();
  Timeline* timeline = record_timeline ? &result->timeline : nullptr;

  if (ws.vertical_fusion) {
    // No specialized blocks: every block computes and moves its own bytes.
    RunSlots(ws, ws.total_blocks, timeline, result);
    result->comm_makespan_us = result->compute_makespan_us;
    result->duration_us = result->compute_makespan_us;
    return;
  }

  COMET_CHECK(ws.comm_bytes == 0.0 || comm_blocks > 0)
      << (ws.is_layer1 ? "layer1 traffic but no communication blocks"
                       : "remote tokens but no communication blocks");
  const int np = ws.total_blocks - comm_blocks;
  if (!ws.is_layer1) {
    // Communication -> computation: a tile starts once its rows arrive.
    result->comm_makespan_us = RunChannel(ws, comm_blocks, timeline);
    for (size_t i = 0; i < ws.tasks.size(); ++i) {
      const int64_t job = ws.tile_job[i];
      ws.tasks[i].ready_us =
          job < 0 ? 0.0 : ws.transfers[static_cast<size_t>(job)].end_us;
    }
    RunSlots(ws, np, timeline, result);
  } else {
    // Computation -> communication: a panel's send waits for its last tile.
    RunSlots(ws, np, timeline, result);
    for (TransferJob& job : ws.jobs) {
      job.ready_us = 0.0;
    }
    const SlotSchedule& sched = ws.slot_schedule;
    for (size_t i = 0; i < sched.tasks.size(); ++i) {
      double& ready = ws.jobs[static_cast<size_t>(ws.tile_job[i])].ready_us;
      ready = std::max(ready, sched.tasks[i].end_us);
    }
    result->comm_makespan_us = RunChannel(ws, comm_blocks, timeline);
  }
  result->duration_us =
      std::max(result->compute_makespan_us, result->comm_makespan_us);
}

void SimulateLayer0FusedInto(const RoutePlan& plan, int rank,
                             const OpCostModel& costs,
                             const FusedKernelConfig& config,
                             FusedKernelWorkspace& ws,
                             FusedKernelResult* result) {
  PrepareLayer0Fused(plan, rank, costs, config, ws);
  EvaluateFused(config.comm_blocks, /*record_timeline=*/true, ws, result);
}

void SimulateLayer1FusedInto(const RoutePlan& plan, int rank,
                             const OpCostModel& costs,
                             const FusedKernelConfig& config,
                             FusedKernelWorkspace& ws,
                             FusedKernelResult* result) {
  PrepareLayer1Fused(plan, rank, costs, config, ws);
  EvaluateFused(config.comm_blocks, /*record_timeline=*/true, ws, result);
}

FusedKernelResult SimulateLayer0Fused(const RoutePlan& plan, int rank,
                                      const OpCostModel& costs,
                                      const FusedKernelConfig& config) {
  FusedKernelWorkspace ws;
  FusedKernelResult result;
  SimulateLayer0FusedInto(plan, rank, costs, config, ws, &result);
  return result;
}

FusedKernelResult SimulateLayer1Fused(const RoutePlan& plan, int rank,
                                      const OpCostModel& costs,
                                      const FusedKernelConfig& config) {
  FusedKernelWorkspace ws;
  FusedKernelResult result;
  SimulateLayer1FusedInto(plan, rank, costs, config, ws, &result);
  return result;
}

}  // namespace comet
