// Hardware descriptions for the simulated clusters.
//
// The paper evaluates on two testbeds: 8x NVIDIA H800 connected with NVLink
// and 8x NVIDIA L20 connected over PCIe (~25 GB/s measured). We model a GPU
// as an SM pool with aggregate tensor-core throughput plus HBM bandwidth, and
// a node as a set of GPUs joined by homogeneous links. Absolute values are
// datasheet-calibrated; what the reproduction relies on is their *ratios*
// (compute vs. link bandwidth vs. launch overhead), which set where the
// paper's crossovers and optima fall.
#pragma once

#include <string>

namespace comet {

enum class LinkType {
  kNvLink,
  kPcie,
};

// Point-to-point interconnect between two GPUs in a node.
struct LinkSpec {
  LinkType type = LinkType::kNvLink;
  // Wire-rate per-GPU unidirectional bandwidth in bytes/us (all peers
  // combined). GPU-initiated in-kernel transfers (NVSHMEM puts from fused
  // kernels) can approach this rate.
  double bandwidth_bytes_per_us = 0.0;
  // Effective per-port bandwidth a kernel-level NCCL all-to-all achieves:
  // protocol overhead, chunking and stream synchronization keep it well
  // below wire rate at MoE message sizes. This is what the kernel-per-op
  // baselines pay -- and a large part of why fusing communication into the
  // compute kernel wins.
  double collective_bandwidth_bytes_per_us = 0.0;
  // Sustained ring bandwidth for NCCL all-gather / reduce-scatter (large
  // contiguous buffers pipeline much better than all-to-all).
  double ring_bandwidth_bytes_per_us = 0.0;
  // Host/stream synchronization cost per collective call, us.
  double collective_sync_us = 0.0;
  // Fixed per-message latency in us (one put/get of any size pays this once;
  // batched token transfers pay it per batch).
  double latency_us = 0.0;
  // Bandwidth a single communication thread block can sustain with
  // GPU-initiated NVSHMEM-style transfers, bytes/us. The fused kernel's
  // achieved bandwidth is min(nc * per_block, bandwidth_bytes_per_us); this
  // is what makes the division point nc* of Figure 8 non-trivial.
  double per_block_bandwidth_bytes_per_us = 0.0;
  // Same, for scattered token-granular puts/gets to many peers (all-to-all
  // style access from expert parallelism). Lower than the contiguous rate:
  // more address computation and fewer coalesced segments per block, so
  // EP-heavy configurations need more communication blocks to saturate the
  // fabric (paper Figure 8: nc* = 26 at TP=8/EP=1 vs nc* = 46 at TP=4/EP=2).
  double per_block_bandwidth_scattered_bytes_per_us = 0.0;
};

// A single GPU.
struct GpuSpec {
  std::string name;
  int num_sms = 0;
  // Aggregate dense tensor-core throughput at the training dtype (BF16),
  // flops/us.
  double peak_flops_per_us = 0.0;
  // HBM bandwidth, bytes/us (bounds local token movement and memory-bound
  // GEMM tails).
  double hbm_bandwidth_bytes_per_us = 0.0;
  // Host-side cost to launch one kernel, us. Dominates small-M MoE layers in
  // kernel-per-op systems (paper §5.3).
  double kernel_launch_us = 0.0;

  // Per-SM throughput, flops/us.
  double FlopsPerUsPerSm() const;
};

// A homogeneous cluster. Single-node by default (the paper's 8-GPU
// servers); setting `gpus_per_node` < world_size describes the paper's
// production deployments (ten-thousand-GPU clusters, §1): ranks within a
// node talk over `link`, ranks on different nodes over `inter_link`
// (InfiniBand -- lower bandwidth, higher latency).
struct ClusterSpec {
  std::string name;
  int world_size = 0;
  GpuSpec gpu;
  LinkSpec link;  // intra-node fabric
  // 0 means single-node (every rank shares `link`). Otherwise must divide
  // world_size; rank r lives on node r / gpus_per_node.
  int gpus_per_node = 0;
  LinkSpec inter_link{};  // used only when IsMultiNode()

  bool IsMultiNode() const;
  int GpusPerNode() const;  // gpus_per_node, or world_size when single-node
  int NumNodes() const;
  int NodeOfRank(int rank) const;
  bool SameNode(int a, int b) const;
};

// Presets calibrated to the paper's testbeds.
ClusterSpec H800Cluster(int world_size = 8);
ClusterSpec L20Cluster(int world_size = 8);
// Multi-node extension: `num_nodes` H800 nodes of `gpus_per_node` GPUs,
// NVLink inside a node, NDR InfiniBand (400 Gb/s per GPU) across nodes.
ClusterSpec MultiNodeH800Cluster(int num_nodes, int gpus_per_node = 8);

}  // namespace comet
