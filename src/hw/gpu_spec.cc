#include "hw/gpu_spec.h"

#include "util/check.h"
#include "util/units.h"

namespace comet {

double GpuSpec::FlopsPerUsPerSm() const {
  COMET_CHECK_GT(num_sms, 0);
  return peak_flops_per_us / static_cast<double>(num_sms);
}

bool ClusterSpec::IsMultiNode() const {
  return gpus_per_node > 0 && gpus_per_node < world_size;
}

int ClusterSpec::GpusPerNode() const {
  return gpus_per_node > 0 ? gpus_per_node : world_size;
}

int ClusterSpec::NumNodes() const {
  const int per_node = GpusPerNode();
  COMET_CHECK_GT(per_node, 0);
  COMET_CHECK_EQ(world_size % per_node, 0)
      << "gpus_per_node must divide world_size";
  return world_size / per_node;
}

int ClusterSpec::NodeOfRank(int rank) const {
  COMET_CHECK_GE(rank, 0);
  COMET_CHECK_LT(rank, world_size);
  return rank / GpusPerNode();
}

bool ClusterSpec::SameNode(int a, int b) const {
  return NodeOfRank(a) == NodeOfRank(b);
}

ClusterSpec H800Cluster(int world_size) {
  COMET_CHECK_GT(world_size, 0);
  ClusterSpec cluster;
  cluster.name = "H800x" + std::to_string(world_size);
  cluster.world_size = world_size;

  GpuSpec& gpu = cluster.gpu;
  gpu.name = "H800";
  gpu.num_sms = 132;
  // Dense BF16 tensor-core throughput; sustained GEMM efficiency on top of
  // this is handled by the GemmCostModel.
  gpu.peak_flops_per_us = TFlops(990.0);
  gpu.hbm_bandwidth_bytes_per_us = GBps(3350.0);
  gpu.kernel_launch_us = 8.0;

  LinkSpec& link = cluster.link;
  link.type = LinkType::kNvLink;
  // H800 NVLink: 400 GB/s bidirectional per GPU -> ~160 GB/s sustained
  // unidirectional for in-kernel transfers.
  link.bandwidth_bytes_per_us = GBps(160.0);
  // NCCL all-to-all at MoE message sizes (a few MB per peer) lands far below
  // wire rate; ring collectives pipeline better.
  link.collective_bandwidth_bytes_per_us = GBps(35.0);
  link.ring_bandwidth_bytes_per_us = GBps(110.0);
  link.collective_sync_us = 15.0;
  link.latency_us = 1.6;
  // One NVSHMEM-driven thread block sustains ~6 GB/s of contiguous puts
  // (ring-style reduce-scatter traffic) and ~1.5 GB/s of scattered
  // token-granular all-to-all puts. These rates put the balanced division
  // point nc* in the 16-50 range the paper measures in Figure 8.
  link.per_block_bandwidth_bytes_per_us = GBps(6.0);
  link.per_block_bandwidth_scattered_bytes_per_us = GBps(1.5);
  return cluster;
}

ClusterSpec L20Cluster(int world_size) {
  COMET_CHECK_GT(world_size, 0);
  ClusterSpec cluster;
  cluster.name = "L20x" + std::to_string(world_size);
  cluster.world_size = world_size;

  GpuSpec& gpu = cluster.gpu;
  gpu.name = "L20";
  gpu.num_sms = 92;
  gpu.peak_flops_per_us = TFlops(119.0);
  gpu.hbm_bandwidth_bytes_per_us = GBps(864.0);
  gpu.kernel_launch_us = 8.0;

  LinkSpec& link = cluster.link;
  link.type = LinkType::kPcie;
  // The paper measures ~25 GB/s GPU-to-GPU through PCIe bridges.
  link.bandwidth_bytes_per_us = GBps(25.0);
  link.collective_bandwidth_bytes_per_us = GBps(11.0);
  link.ring_bandwidth_bytes_per_us = GBps(18.0);
  link.collective_sync_us = 20.0;
  link.latency_us = 5.0;
  link.per_block_bandwidth_bytes_per_us = GBps(1.2);
  link.per_block_bandwidth_scattered_bytes_per_us = GBps(0.4);
  return cluster;
}

ClusterSpec MultiNodeH800Cluster(int num_nodes, int gpus_per_node) {
  COMET_CHECK_GT(num_nodes, 0);
  COMET_CHECK_GT(gpus_per_node, 0);
  ClusterSpec cluster = H800Cluster(num_nodes * gpus_per_node);
  cluster.name = "H800x" + std::to_string(gpus_per_node) + "x" +
                 std::to_string(num_nodes) + "nodes";
  cluster.gpus_per_node = gpus_per_node;

  LinkSpec& ib = cluster.inter_link;
  ib.type = LinkType::kPcie;  // closest enum: a non-NVLink fabric
  // NDR InfiniBand, one 400 Gb/s HCA per GPU: ~45 GB/s sustained
  // unidirectional for RDMA; collectives land lower, and the per-hop
  // latency is microseconds rather than NVLink's sub-2us.
  ib.bandwidth_bytes_per_us = GBps(45.0);
  ib.collective_bandwidth_bytes_per_us = GBps(18.0);
  ib.ring_bandwidth_bytes_per_us = GBps(38.0);
  ib.collective_sync_us = 25.0;
  ib.latency_us = 6.0;
  // GPU-initiated puts over IB (NVSHMEM IBGDA-style): one block sustains
  // noticeably less than over NVLink, scattered puts less still.
  ib.per_block_bandwidth_bytes_per_us = GBps(3.0);
  ib.per_block_bandwidth_scattered_bytes_per_us = GBps(0.8);
  return cluster;
}

}  // namespace comet
