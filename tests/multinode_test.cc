// Tests of the multi-node hierarchy: cluster topology helpers, tier-aware
// collective costs, the 2D-hierarchical all-to-all, and the fused kernels'
// behaviour when expert parallelism spans nodes.
#include <gtest/gtest.h>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "comm/collectives.h"
#include "core/comet_executor.h"
#include "core/fused_kernel.h"
#include "exec/op_costs.h"
#include "hw/gpu_spec.h"
#include "moe/workload.h"
#include "util/check.h"

namespace comet {
namespace {

std::vector<std::vector<double>> UniformBytes(int world, double per_pair) {
  return std::vector<std::vector<double>>(
      static_cast<size_t>(world),
      std::vector<double>(static_cast<size_t>(world), per_pair));
}

MoeWorkload Workload(int tp, int ep, int64_t tokens, int64_t experts = 16) {
  ModelConfig model;
  model.name = "mn-test";
  model.layers = 1;
  model.num_experts = experts;
  model.topk = 2;
  model.embedding = 4096;
  model.ffn_hidden = 14336;
  WorkloadOptions options;
  options.seed = 3;
  options.materialize = false;
  return MakeWorkload(model, ParallelConfig{tp, ep}, tokens, options);
}

// ---- topology -----------------------------------------------------------------

TEST(MultiNodeCluster, SingleNodeDefaults) {
  const ClusterSpec c = H800Cluster(8);
  EXPECT_FALSE(c.IsMultiNode());
  EXPECT_EQ(c.GpusPerNode(), 8);
  EXPECT_EQ(c.NumNodes(), 1);
  EXPECT_TRUE(c.SameNode(0, 7));
}

TEST(MultiNodeCluster, TopologyHelpers) {
  const ClusterSpec c = MultiNodeH800Cluster(4, 8);
  EXPECT_TRUE(c.IsMultiNode());
  EXPECT_EQ(c.world_size, 32);
  EXPECT_EQ(c.NumNodes(), 4);
  EXPECT_EQ(c.NodeOfRank(0), 0);
  EXPECT_EQ(c.NodeOfRank(7), 0);
  EXPECT_EQ(c.NodeOfRank(8), 1);
  EXPECT_EQ(c.NodeOfRank(31), 3);
  EXPECT_TRUE(c.SameNode(0, 7));
  EXPECT_FALSE(c.SameNode(7, 8));
}

TEST(MultiNodeCluster, InterLinkSlowerThanNvlink) {
  const ClusterSpec c = MultiNodeH800Cluster(2);
  EXPECT_LT(c.inter_link.bandwidth_bytes_per_us,
            c.link.bandwidth_bytes_per_us);
  EXPECT_GT(c.inter_link.latency_us, c.link.latency_us);
}

TEST(MultiNodeCluster, InvalidNodeSplitRejected) {
  ClusterSpec c = H800Cluster(8);
  c.gpus_per_node = 3;  // does not divide 8
  EXPECT_THROW(c.NumNodes(), CheckError);
}

TEST(MultiNodeCluster, RankOutOfRangeRejected) {
  const ClusterSpec c = MultiNodeH800Cluster(2);
  EXPECT_THROW(c.NodeOfRank(-1), CheckError);
  EXPECT_THROW(c.NodeOfRank(16), CheckError);
}

// ---- collective costs -----------------------------------------------------------

TEST(MultiNodeCollectives, AllToAllSlowerAcrossNodes) {
  const int world = 16;
  const auto bytes = UniformBytes(world, 1 << 20);
  const double single = AllToAllCostUs(H800Cluster(world), bytes);
  const double multi = AllToAllCostUs(MultiNodeH800Cluster(2, 8), bytes);
  EXPECT_GT(multi, single);
}

TEST(MultiNodeCollectives, InterNodeFraction) {
  const ClusterSpec c = MultiNodeH800Cluster(4, 8);
  const auto bytes = UniformBytes(32, 1.0);
  // 31 off-diagonal peers per rank, 24 of them off-node.
  EXPECT_NEAR(InterNodeByteFraction(c, bytes), 24.0 / 31.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      InterNodeByteFraction(H800Cluster(8), UniformBytes(8, 1.0)), 0.0);
}

TEST(MultiNodeCollectives, HierarchicalBeatsDirectAtScale) {
  const ClusterSpec c = MultiNodeH800Cluster(8, 8);
  const auto bytes = UniformBytes(64, 256.0 * 1024.0);
  const double direct = AllToAllCostUs(c, bytes);
  const double hier = HierarchicalAllToAllCostUs(c, bytes);
  EXPECT_LT(hier, direct);
}

TEST(MultiNodeCollectives, HierarchicalFallsBackOnSingleNode) {
  const ClusterSpec c = H800Cluster(8);
  const auto bytes = UniformBytes(8, 1 << 20);
  EXPECT_DOUBLE_EQ(HierarchicalAllToAllCostUs(c, bytes),
                   AllToAllCostUs(c, bytes));
}

TEST(MultiNodeCollectives, ZeroTrafficCostsNothing) {
  const ClusterSpec c = MultiNodeH800Cluster(2);
  const auto bytes = UniformBytes(16, 0.0);
  EXPECT_DOUBLE_EQ(AllToAllCostUs(c, bytes), 0.0);
}

TEST(MultiNodeCollectives, IntraNodeOnlyTrafficUsesNvlinkTerms) {
  const ClusterSpec c = MultiNodeH800Cluster(2, 8);
  auto bytes = UniformBytes(16, 0.0);
  // Traffic only inside node 0.
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) {
        bytes[static_cast<size_t>(i)][static_cast<size_t>(j)] = 1 << 20;
      }
    }
  }
  const double multi = AllToAllCostUs(c, bytes);
  // Must not pay the IB latency/sync: strictly below the same traffic when
  // it crosses nodes.
  auto cross = UniformBytes(16, 0.0);
  for (int i = 0; i < 8; ++i) {
    for (int j = 8; j < 16; ++j) {
      cross[static_cast<size_t>(i)][static_cast<size_t>(j)] = 1 << 20;
    }
  }
  EXPECT_LT(multi, AllToAllCostUs(c, cross));
}

// ---- fused kernels across nodes --------------------------------------------------

TEST(MultiNodeFusedKernel, Layer0CommSlowerWhenEpSpansNodes) {
  const MoeWorkload w = Workload(1, 16, 8192);
  FusedKernelConfig config;
  config.comm_blocks = 16;
  const ClusterSpec single = H800Cluster(16);
  const ClusterSpec multi = MultiNodeH800Cluster(2, 8);
  config.total_blocks = single.gpu.num_sms;
  const auto a = SimulateLayer0Fused(w.plan, 0, OpCostModel(single), config);
  const auto b = SimulateLayer0Fused(w.plan, 0, OpCostModel(multi), config);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);  // same traffic volume
  EXPECT_GT(b.comm_makespan_us, a.comm_makespan_us);  // slower fabric
}

TEST(MultiNodeFusedKernel, Layer1CommSlowerWhenEpSpansNodes) {
  const MoeWorkload w = Workload(1, 16, 8192);
  FusedKernelConfig config;
  config.comm_blocks = 24;
  const ClusterSpec single = H800Cluster(16);
  const ClusterSpec multi = MultiNodeH800Cluster(2, 8);
  config.total_blocks = single.gpu.num_sms;
  const auto a = SimulateLayer1Fused(w.plan, 0, OpCostModel(single), config);
  const auto b = SimulateLayer1Fused(w.plan, 0, OpCostModel(multi), config);
  EXPECT_GT(b.comm_makespan_us, a.comm_makespan_us);
}

TEST(MultiNodeFusedKernel, CometExecutorRunsOnMultiNode) {
  const MoeWorkload w = Workload(1, 16, 4096);
  CometExecutor comet;
  const auto single = comet.Run(w, H800Cluster(16), ExecMode::kTimedOnly);
  const auto multi =
      comet.Run(w, MultiNodeH800Cluster(2, 8), ExecMode::kTimedOnly);
  EXPECT_GT(multi.duration_us, 0.0);
  // The slower fabric can only hurt.
  EXPECT_GE(multi.duration_us, single.duration_us);
}

// ---- baselines: collectives computed once per Run ---------------------------

// Per-rank times of the four baselines (and Tutel's chosen pipeline degree)
// on one workload, recorded as exact hex floats while every rank still
// recomputed the collectives. Hoisting them out of the per-rank fan-out must
// move no bit.
struct BaselinePins {
  std::vector<double> cutlass;
  std::vector<double> te;
  std::vector<double> tutel;
  int tutel_degree = 0;
  std::vector<double> fastermoe;  // empty: FasterMoE does not support TP > 1
};

void ExpectBaselinePins(const MoeWorkload& w, const ClusterSpec& cluster,
                        const BaselinePins& pins) {
  MegatronExecutor cutlass = MakeMegatronCutlass();
  MegatronExecutor te = MakeMegatronTe();
  TutelExecutor tutel;
  EXPECT_EQ(cutlass.Run(w, cluster, ExecMode::kTimedOnly).per_rank_us,
            pins.cutlass);
  EXPECT_EQ(te.Run(w, cluster, ExecMode::kTimedOnly).per_rank_us, pins.te);
  EXPECT_EQ(tutel.Run(w, cluster, ExecMode::kTimedOnly).per_rank_us,
            pins.tutel);
  EXPECT_EQ(tutel.last_pipeline_degree(), pins.tutel_degree);
  FasterMoeExecutor fastermoe;
  if (fastermoe.Supports(w.placement.parallel())) {
    EXPECT_EQ(fastermoe.Run(w, cluster, ExecMode::kTimedOnly).per_rank_us,
              pins.fastermoe);
  } else {
    EXPECT_TRUE(pins.fastermoe.empty());
  }
}

TEST(MultiNodeBaselines, PerRankTimesPinnedOnSingleNode) {
  const ClusterSpec cluster = H800Cluster(4);
  ExpectBaselinePins(
      Workload(1, 4, 2048), cluster,
      {{0x1.f0d1e05d3ce65p+9, 0x1.e52b43c65f898p+9, 0x1.d98e25cb91065p+9,
        0x1.9e23a74143967p+9},
       {0x1.0a00fa974de96p+10, 0x1.03e73f5d12ap+10, 0x1.fba270ae90109p+9,
        0x1.bbe13168a401ap+9},
       {0x1.cad52b0bc8884p+9, 0x1.c21a6989d8cfp+9, 0x1.c188f7cdf823fp+9,
        0x1.bceec63efd2d2p+9},
       2,
       {0x1.57328c56d1932p+10, 0x1.5328e0d18586bp+10, 0x1.4f0a79b010307p+10,
        0x1.471be0e7bafbfp+10}});
  // TP = 2 adds the reduce-scatter.
  ExpectBaselinePins(
      Workload(2, 2, 2048), cluster,
      {{0x1.2b4517293b9cp+10, 0x1.2b4517293b9cp+10, 0x1.15c3c703c129bp+10,
        0x1.15c3c703c129bp+10},
       {0x1.3a70b30d68cep+10, 0x1.3a70b30d68cep+10, 0x1.23f2dbeb01547p+10,
        0x1.23f2dbeb01547p+10},
       {0x1.01d469c904e5ap+10, 0x1.01d469c904e5ap+10, 0x1.f6ac421200727p+9,
        0x1.f6ac421200727p+9},
       2,
       {}});
}

TEST(MultiNodeBaselines, PerRankTimesPinnedAcrossNodes) {
  const ClusterSpec cluster = MultiNodeH800Cluster(2, 4);
  ExpectBaselinePins(
      Workload(1, 8, 4096), cluster,
      {{0x1.13d681a43e0c9p+10, 0x1.1927430de08b2p+10, 0x1.13966b06d9cfep+10,
        0x1.193a4045fe3e5p+10, 0x1.1385cd75bfd32p+10, 0x1.19629a5d3d5b1p+10,
        0x1.136bb14896fccp+10, 0x1.f5ff3101917e5p+9},
       {0x1.24742500f34a6p+10, 0x1.2a280499137c9p+10, 0x1.2442243d01eb3p+10,
        0x1.2a36d56ad6437p+10, 0x1.24352d85777d3p+10, 0x1.2a565128942a1p+10,
        0x1.2420ce650babcp+10, 0x1.0a3e227303b8dp+10},
       {0x1.c80195a00ea3ap+9, 0x1.e61b8f28dea3ep+9, 0x1.c79531474d329p+9,
        0x1.e630dead1eea7p+9, 0x1.c7749d15176dep+9, 0x1.e65b7db59f77cp+9,
        0x1.c74e668be6ea5p+9, 0x1.c6dc5fdc2abap+9},
       4,
       {0x1.13c2ff2d898a1p+10, 0x1.1ea8141066a12p+10, 0x1.13993cd60491bp+10,
        0x1.1eb4ed666828ap+10, 0x1.138c6380030a2p+10, 0x1.1ecea0126b37ap+10,
        0x1.137c53d48120dp+10, 0x1.084a26ed9adcbp+10}});
  ExpectBaselinePins(
      Workload(2, 4, 4096), cluster,
      {{0x1.94dd3d8e737ffp+10, 0x1.94dd3d8e737ffp+10, 0x1.94ba8c7b9fb3bp+10,
        0x1.94ba8c7b9fb3bp+10, 0x1.94cccebb6d7d8p+10, 0x1.94cccebb6d7d8p+10,
        0x1.8eab5aa698467p+10, 0x1.8eab5aa698467p+10},
       {0x1.a32ec071b00fap+10, 0x1.a32ec071b00fap+10, 0x1.a315f8d1f4349p+10,
        0x1.a315f8d1f4349p+10, 0x1.a3230391d057p+10, 0x1.a3230391d057p+10,
        0x1.9cd6c8b448e26p+10, 0x1.9cd6c8b448e26p+10},
       {0x1.1f17c23a3da8fp+10, 0x1.1f17c23a3da8fp+10, 0x1.1f08d35c00537p+10,
        0x1.1f08d35c00537p+10, 0x1.1f104acb1efe2p+10, 0x1.1f104acb1efe2p+10,
        0x1.1dce6809a404dp+10, 0x1.1dce6809a404dp+10},
       2,
       {}});
  // Small M: Tutel's search settles on degree 1.
  ExpectBaselinePins(
      Workload(1, 8, 256), cluster,
      {{0x1.6d5297d196796p+8, 0x1.6d8ff14bcf0afp+8, 0x1.6d5297d196796p+8,
        0x1.6d29b1801b6dap+8, 0x1.6c9051ce8e019p+8, 0x1.6d3e24a8d8f38p+8,
        0x1.6cec5805e2dcp+8, 0x1.6d85b7b77048p+8},
       {0x1.9bfd64dcba067p+8, 0x1.9c3abe56f2981p+8, 0x1.9bfd64dcba067p+8,
        0x1.9bd47e8b3efaap+8, 0x1.9b3b1ed9b18eap+8, 0x1.9be8f1b3fc809p+8,
        0x1.9b9725110669p+8, 0x1.9c3084c293d52p+8},
       {0x1.5a3def801acd6p+8, 0x1.5a7fd2dcd63ffp+8, 0x1.5a3def801acd6p+8,
        0x1.5a1202979dd65p+8, 0x1.596d4a2fc937dp+8, 0x1.5a27f90bdc51dp+8,
        0x1.59d01f3ae263bp+8, 0x1.5a74d7a2b7023p+8},
       1,
       {0x1.5a3178eb22c18p+9, 0x1.5a4d326e9d2b5p+9, 0x1.5a3178eb22c18p+9,
        0x1.5a1efd3e267afp+9, 0x1.59d50e8a3560fp+9, 0x1.5a283b14a49e4p+9,
        0x1.5a0343baac113p+9, 0x1.5a46c5c39c678p+9}});
}

}  // namespace
}  // namespace comet
