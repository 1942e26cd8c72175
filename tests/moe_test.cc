// Unit tests for the MoE substrate: configs/placement, routers, route plans,
// GroupGEMM tiles, activations, sharded weights and the reference layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "moe/activation.h"
#include "moe/config.h"
#include "moe/expert_weights.h"
#include "moe/group_gemm.h"
#include "moe/reference_layer.h"
#include "moe/route_plan.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// ---- config / placement ------------------------------------------------------

TEST(ModelConfig, Table2Presets) {
  const ModelConfig mixtral = Mixtral8x7B();
  EXPECT_EQ(mixtral.layers, 32);
  EXPECT_EQ(mixtral.num_experts, 8);
  EXPECT_EQ(mixtral.topk, 2);
  EXPECT_EQ(mixtral.embedding, 4096);
  EXPECT_EQ(mixtral.ffn_hidden, 14336);

  const ModelConfig qwen = Qwen2Moe();
  EXPECT_EQ(qwen.layers, 24);
  EXPECT_EQ(qwen.num_experts, 64);
  EXPECT_EQ(qwen.topk, 4);
  EXPECT_EQ(qwen.embedding, 2048);
  EXPECT_EQ(qwen.ffn_hidden, 1408);

  const ModelConfig phi = Phi35Moe();
  EXPECT_EQ(phi.layers, 32);
  EXPECT_EQ(phi.num_experts, 16);
  EXPECT_EQ(phi.topk, 2);
  EXPECT_EQ(phi.embedding, 4096);
  EXPECT_EQ(phi.ffn_hidden, 6400);
}

TEST(Placement, RankAndGroupArithmetic) {
  const Placement p(Mixtral8x7B(), ParallelConfig{2, 4}, 1024);
  EXPECT_EQ(p.world(), 8);
  EXPECT_EQ(p.tokens_per_group(), 256);
  EXPECT_EQ(p.EpGroupOfRank(5), 2);
  EXPECT_EQ(p.TpLaneOfRank(5), 1);
  EXPECT_EQ(p.RankOf(2, 1), 5);
  EXPECT_EQ(p.ExpertsPerGroup(), 2);
  EXPECT_EQ(p.EpGroupOfExpert(5), 2);
  EXPECT_EQ(p.LocalExpertIndex(5), 1);
  EXPECT_EQ(p.HiddenPerTpRank(), 14336 / 2);
  EXPECT_EQ(p.HomeGroupOfToken(700), 2);
  EXPECT_EQ(p.FirstTokenOfGroup(2), 512);
}

TEST(Placement, ValidatesDivisibility) {
  EXPECT_THROW(Placement(Mixtral8x7B(), ParallelConfig{1, 3}, 1024),
               CheckError);  // E=8 not divisible by EP=3
  EXPECT_THROW(Placement(Mixtral8x7B(), ParallelConfig{1, 8}, 1021),
               CheckError);  // M not divisible by EP
  ModelConfig odd = Mixtral8x7B();
  odd.ffn_hidden = 14337;
  EXPECT_THROW(Placement(odd, ParallelConfig{2, 4}, 1024), CheckError);
}

// ---- routers -------------------------------------------------------------------

TEST(GateNetwork, SelectsTopKByProbability) {
  // Gate weight designed so expert j's logit = j * sum(x) for positive x.
  Tensor gate(Shape{2, 4});
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t e = 0; e < 4; ++e) {
      gate.at({n, e}) = static_cast<float>(e);
    }
  }
  GateNetwork network(std::move(gate));
  Tensor tokens = Tensor::Full(Shape{3, 2}, 1.0f);
  const RoutingTable table = network.Route(tokens, 2);
  table.Validate(4, 2);
  for (const auto& t : table.tokens) {
    EXPECT_EQ(t.experts[0], 3);  // highest logit
    EXPECT_EQ(t.experts[1], 2);
    EXPECT_GT(t.weights[0], t.weights[1]);
  }
}

TEST(GateNetwork, WeightsAreNormalized) {
  Rng rng(3);
  GateNetwork network(Tensor::Randn(Shape{8, 6}, rng));
  const Tensor tokens = Tensor::Randn(Shape{5, 8}, rng);
  const RoutingTable table = network.Route(tokens, 3);
  table.Validate(6, 3);
}

// The gate as it read its weights before RouteInto went row-major: one at()
// per multiply-add, e-outer and n-inner, then the same softmax and top-k.
// Kept as the bit reference; `logits` holds every token's logits.
RoutingTable ElementwiseGate(const Tensor& gate_weight, const Tensor& tokens,
                             int64_t topk,
                             std::vector<std::vector<float>>* logits_out) {
  const int64_t e_total = gate_weight.cols();
  RoutingTable table;
  table.tokens.resize(static_cast<size_t>(tokens.rows()));
  std::vector<float> logits(static_cast<size_t>(e_total));
  std::vector<float> probs(static_cast<size_t>(e_total));
  for (int64_t m = 0; m < tokens.rows(); ++m) {
    const auto x = tokens.row(m);
    for (int64_t e = 0; e < e_total; ++e) {
      float acc = 0.0f;
      for (int64_t n = 0; n < tokens.cols(); ++n) {
        acc += x[static_cast<size_t>(n)] * gate_weight.at({n, e});
      }
      logits[static_cast<size_t>(e)] = acc;
    }
    logits_out->push_back(logits);
    const float max_logit = *std::max_element(logits.begin(), logits.end());
    float z = 0.0f;
    for (size_t e = 0; e < logits.size(); ++e) {
      probs[e] = std::exp(logits[e] - max_logit);
      z += probs[e];
    }
    for (auto& p : probs) {
      p /= z;
    }
    TokenRoute& route = table.tokens[static_cast<size_t>(m)];
    float selected_sum = 0.0f;
    for (int64_t k = 0; k < topk; ++k) {
      int64_t best = -1;
      float best_p = 0.0f;
      for (int64_t e = 0; e < e_total; ++e) {
        bool taken = false;
        for (int64_t prev : route.experts) {
          taken = taken || prev == e;
        }
        if (!taken && (best < 0 || probs[static_cast<size_t>(e)] > best_p)) {
          best = e;
          best_p = probs[static_cast<size_t>(e)];
        }
      }
      route.experts.push_back(best);
      route.weights.push_back(best_p);
      selected_sum += best_p;
    }
    for (auto& w : route.weights) {
      w /= selected_sum;
    }
  }
  return table;
}

TEST(GateNetwork, RouteIntoIsBitEqualToElementwiseGate) {
  for (int64_t n : {1, 67}) {
    for (int64_t e : {1, 7}) {
      SCOPED_TRACE(testing::Message() << "N=" << n << " E=" << e);
      Rng rng(static_cast<uint64_t>(100 * n + e));
      const Tensor weight = Tensor::Randn(Shape{n, e}, rng);
      Tensor tokens = Tensor::Randn(Shape{5, n}, rng);
      // A row of negative zeros: every product is a signed zero, and the
      // sum must still start from +0.0f.
      std::fill(tokens.row(0).begin(), tokens.row(0).end(), -0.0f);
      const int64_t topk = e;
      std::vector<std::vector<float>> want_logits;
      const RoutingTable want =
          ElementwiseGate(weight, tokens, topk, &want_logits);

      const GateNetwork network(weight);
      GateScratch scratch;
      RoutingTable got;
      network.RouteInto(tokens, topk, scratch, &got);
      ASSERT_EQ(got.size(), want.size());
      for (int64_t m = 0; m < tokens.rows(); ++m) {
        const TokenRoute& g = got.tokens[static_cast<size_t>(m)];
        const TokenRoute& w = want.tokens[static_cast<size_t>(m)];
        ASSERT_EQ(g.experts.size(), w.experts.size());
        for (size_t k = 0; k < g.experts.size(); ++k) {
          EXPECT_EQ(g.experts[k], w.experts[k]) << "token " << m;
          EXPECT_EQ(std::bit_cast<uint32_t>(g.weights[k]),
                    std::bit_cast<uint32_t>(w.weights[k]))
              << "token " << m;
        }
        // The scratch logits after routing one row are that row's logits.
        Tensor one(Shape{1, n});
        one.SetRow(0, tokens.row(m));
        RoutingTable single;
        network.RouteInto(one, topk, scratch, &single);
        const std::vector<float>& want_row =
            want_logits[static_cast<size_t>(m)];
        for (size_t j = 0; j < want_row.size(); ++j) {
          EXPECT_EQ(std::bit_cast<uint32_t>(scratch.logits[j]),
                    std::bit_cast<uint32_t>(want_row[j]))
              << "token " << m << " expert " << j;
        }
      }
    }
  }
}

TEST(SyntheticRouter, UniformLoadGivesLowStd) {
  SyntheticRouter router(std::vector<double>(8, 1.0 / 8), 11);
  const RoutingTable table = router.Route(20000, 2);
  table.Validate(8, 2);
  EXPECT_LT(table.LoadStd(8), 0.01);
}

TEST(SyntheticRouter, SkewedLoadTracksTarget) {
  Rng rng(12);
  const double target = 0.04;
  SyntheticRouter router(rng.LoadVectorWithStd(8, target), 13);
  const RoutingTable table = router.Route(20000, 2);
  // Sampling without replacement flattens the distribution a little, so the
  // achieved std is close to but usually under the target.
  EXPECT_NEAR(table.LoadStd(8), target, 0.02);
  EXPECT_GT(table.LoadStd(8), 0.015);
}

TEST(SyntheticRouter, DrawsFollowLoadWeights) {
  SyntheticRouter router({1.0, 3.0}, 6);
  const RoutingTable table = router.Route(20000, 1);
  int count1 = 0;
  for (const TokenRoute& t : table.tokens) {
    if (t.experts[0] == 1) {
      ++count1;
    }
  }
  EXPECT_NEAR(static_cast<double>(count1) / table.size(), 0.75, 0.02);
}

TEST(SyntheticRouter, RejectsAllZeroLoad) {
  EXPECT_THROW(SyntheticRouter({0.0, 0.0}, 7), CheckError);
}

// The per-token sampler SyntheticRouter::RouteInto ran before it drew
// tokens a block at a time: a categorical draw (`r -= w` scan) per expert,
// the drawn expert's weight zeroed, then the combine weights.
size_t PerTokenCategorical(Rng& rng, const std::vector<double>& weights) {
  COMET_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    COMET_CHECK_GE(w, 0.0);
    total += w;
  }
  COMET_CHECK_GT(total, 0.0) << "categorical weights must not all be zero";
  double r = rng.NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

class PerTokenRouter {
 public:
  PerTokenRouter(std::vector<double> load, uint64_t seed)
      : load_(std::move(load)), rng_(seed) {
    double sum = 0.0;
    for (double p : load_) {
      sum += p;
    }
    for (auto& p : load_) {
      p /= sum;
    }
  }

  void RouteInto(int64_t num_tokens, int64_t topk, int64_t shift,
                 RoutingTable* table) {
    const int64_t e_total = static_cast<int64_t>(load_.size());
    table->tokens.resize(static_cast<size_t>(num_tokens));
    for (int64_t m = 0; m < num_tokens; ++m) {
      weights_.assign(load_.begin(), load_.end());
      TokenRoute& route = table->tokens[static_cast<size_t>(m)];
      route.experts.clear();
      route.weights.clear();
      for (int64_t k = 0; k < topk; ++k) {
        const size_t e = PerTokenCategorical(rng_, weights_);
        route.experts.push_back((static_cast<int64_t>(e) + shift) % e_total);
        weights_[e] = 0.0;
      }
      float sum = 0.0f;
      for (int64_t k = 0; k < topk; ++k) {
        const float w = static_cast<float>(rng_.Uniform(0.5, 1.5));
        route.weights.push_back(w);
        sum += w;
      }
      for (auto& w : route.weights) {
        w /= sum;
      }
    }
  }

 private:
  std::vector<double> load_;
  std::vector<double> weights_;
  Rng rng_;
};

void ExpectSameTable(const RoutingTable& got, const RoutingTable& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t t = 0; t < want.tokens.size(); ++t) {
    const TokenRoute& g = got.tokens[t];
    const TokenRoute& w = want.tokens[t];
    ASSERT_EQ(g.experts, w.experts) << where << " token " << t;
    ASSERT_EQ(g.weights.size(), w.weights.size()) << where << " token " << t;
    for (size_t k = 0; k < w.weights.size(); ++k) {
      ASSERT_EQ(std::bit_cast<uint32_t>(g.weights[k]),
                std::bit_cast<uint32_t>(w.weights[k]))
          << where << " token " << t << " slot " << k;
    }
  }
}

// Uniform, Figure-14-style skewed (std 0.1, clamping leaves exact zeros at
// large E), and every third expert at exactly zero.
std::vector<std::vector<double>> RouterLoads(int64_t e_total) {
  const size_t n = static_cast<size_t>(e_total);
  std::vector<double> zeros(n);
  for (size_t i = 0; i < n; ++i) {
    zeros[i] = i % 3 == 1 ? 0.0 : 1.0 + static_cast<double>(i);
  }
  return {std::vector<double>(n, 1.0),
          Rng(static_cast<uint64_t>(e_total)).LoadVectorWithStd(n, 0.1),
          zeros};
}

int64_t PositiveExperts(const std::vector<double>& load) {
  return std::count_if(load.begin(), load.end(),
                       [](double p) { return p > 0.0; });
}

TEST(SyntheticRouter, BlockedRouteIntoIsBitEqualToPerTokenLoop) {
  constexpr int64_t kW = SyntheticRouter::kBlockTokens;
  for (int64_t e_total : {1, 2, 7, 8, 16, 64, 65}) {
    const auto loads = RouterLoads(e_total);
    for (size_t li = 0; li < loads.size(); ++li) {
      for (int64_t topk : {int64_t{1}, int64_t{2}, int64_t{4}, e_total}) {
        if (topk > PositiveExperts(loads[li])) {
          continue;
        }
        for (int64_t tokens : {int64_t{1}, kW - 1, kW, kW + 1, int64_t{67},
                               int64_t{16384}}) {
          // The full-size table at topk = E > 4 would only repeat the
          // smaller sizes' coverage at E times the cost.
          if (tokens == 16384 && topk > 4) {
            continue;
          }
          for (int64_t shift : {0, 3}) {
            const uint64_t seed = static_cast<uint64_t>(e_total * 131 + topk);
            SyntheticRouter router(loads[li], seed);
            PerTokenRouter reference(loads[li], seed);
            RoutingTable got;
            RoutingTable want;
            router.RouteInto(tokens, topk, shift, &got);
            reference.RouteInto(tokens, topk, shift, &want);
            ExpectSameTable(got, want,
                            "E=" + std::to_string(e_total) + " load " +
                                std::to_string(li) + " topk=" +
                                std::to_string(topk) + " tokens=" +
                                std::to_string(tokens) + " shift=" +
                                std::to_string(shift));
          }
        }
      }
    }
  }
}

TEST(SyntheticRouter, ReusedTableAcrossSizesIsBitEqualToPerTokenLoop) {
  constexpr int64_t kW = SyntheticRouter::kBlockTokens;
  const std::vector<double> load = Rng(21).LoadVectorWithStd(16, 0.05);
  SyntheticRouter router(load, 22);
  PerTokenRouter reference(load, 22);
  RoutingTable got;
  RoutingTable want;
  const int64_t sizes[] = {67, 1, 16384, kW + 1, 0, kW - 1, 67};
  for (size_t call = 0; call < std::size(sizes); ++call) {
    const int64_t shift = static_cast<int64_t>(call % 3);
    router.RouteInto(sizes[call], 2, shift, &got);
    reference.RouteInto(sizes[call], 2, shift, &want);
    ExpectSameTable(got, want, "call " + std::to_string(call));
  }
}

TEST(SyntheticRouter, TopkAbovePositiveExpertsThrowsBeforeWriting) {
  const std::vector<double> load = {1.0, 0.0, 2.0, 0.0};
  SyntheticRouter router(load, 5);
  RoutingTable table = router.Route(5, 2);
  const RoutingTable before = table;
  try {
    router.RouteInto(10, 3, /*shift=*/0, &table);
    FAIL() << "topk 3 over 2 positive-load experts did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("topk 3"), std::string::npos) << what;
    EXPECT_NE(what.find("the 2 experts with positive load"),
              std::string::npos)
        << what;
  }
  // Nothing written, nothing drawn: the next table is the one a router
  // that never saw the bad call draws second.
  ExpectSameTable(table, before, "after the throw");
  SyntheticRouter fresh(load, 5);
  fresh.Route(5, 2);
  ExpectSameTable(router.Route(9, 2), fresh.Route(9, 2), "next draw");
}

TEST(RoutingTable, ValidateCatchesDuplicates) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{1, 1}, {0.5f, 0.5f}});
  EXPECT_THROW(table.Validate(4, 2), CheckError);
}

TEST(RoutingTable, ValidateCatchesBadWeightSum) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0, 1}, {0.9f, 0.5f}});
  EXPECT_THROW(table.Validate(4, 2), CheckError);
}

TEST(RoutingTable, ExpertLoadsCountPairs) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0, 1}, {0.5f, 0.5f}});
  table.tokens.push_back(TokenRoute{{0, 2}, {0.5f, 0.5f}});
  const auto loads = table.ExpertLoads(4);
  EXPECT_EQ(loads[0], 2);
  EXPECT_EQ(loads[1], 1);
  EXPECT_EQ(loads[3], 0);
}

// ---- route plan -----------------------------------------------------------------

class RoutePlanTest : public ::testing::Test {
 protected:
  static MoeWorkload Make(int tp, int ep, int64_t tokens) {
    ModelConfig model;
    model.name = "t";
    model.layers = 1;
    model.num_experts = 8;
    model.topk = 2;
    model.embedding = 16;
    model.ffn_hidden = 32;
    WorkloadOptions options;
    options.seed = 5;
    options.materialize = false;
    return MakeWorkload(model, ParallelConfig{tp, ep}, tokens, options);
  }
};

TEST_F(RoutePlanTest, RowsCoverEveryPairExactlyOnce) {
  const MoeWorkload w = Make(1, 4, 64);
  int64_t total_rows = 0;
  for (int g = 0; g < 4; ++g) {
    total_rows += w.plan.ForGroup(g).TotalRows();
  }
  EXPECT_EQ(total_rows, 64 * 2);  // M * topk
}

TEST_F(RoutePlanTest, RowsAreTokenSortedPerExpert) {
  const MoeWorkload w = Make(1, 4, 64);
  for (int g = 0; g < 4; ++g) {
    for (const auto& slice : w.plan.ForGroup(g).experts) {
      for (size_t i = 1; i < slice.rows.size(); ++i) {
        EXPECT_LT(slice.rows[i - 1].token, slice.rows[i].token);
      }
    }
  }
}

TEST_F(RoutePlanTest, TpLanesShareThePlan) {
  const MoeWorkload w = Make(2, 2, 32);
  EXPECT_EQ(&w.plan.ForRank(0), &w.plan.ForRank(1));  // lanes of group 0
  EXPECT_EQ(&w.plan.ForRank(2), &w.plan.ForRank(3));
  EXPECT_NE(&w.plan.ForRank(0), &w.plan.ForRank(2));
}

TEST_F(RoutePlanTest, DispatchBytesLaneMatched) {
  const MoeWorkload w = Make(2, 2, 32);
  const auto bytes = w.plan.DispatchBytes(1.0);
  const int world = 4;
  for (int i = 0; i < world; ++i) {
    EXPECT_DOUBLE_EQ(bytes[static_cast<size_t>(i)][static_cast<size_t>(i)], 0.0);
    for (int j = 0; j < world; ++j) {
      if (i % 2 != j % 2) {
        // Cross-lane traffic never happens.
        EXPECT_DOUBLE_EQ(bytes[static_cast<size_t>(i)][static_cast<size_t>(j)],
                         0.0);
      }
    }
  }
}

TEST_F(RoutePlanTest, DispatchTotalsMatchRemoteRows) {
  const MoeWorkload w = Make(1, 4, 64);
  const auto bytes = w.plan.DispatchBytes(1.0);
  for (int r = 0; r < 4; ++r) {
    double incoming = 0.0;
    for (int s = 0; s < 4; ++s) {
      incoming += bytes[static_cast<size_t>(s)][static_cast<size_t>(r)];
    }
    EXPECT_DOUBLE_EQ(incoming, static_cast<double>(w.plan.RemoteRows(r)));
  }
}

TEST_F(RoutePlanTest, EpReturnMirrorsDispatch) {
  const MoeWorkload w = Make(1, 4, 64);
  const auto dispatch = w.plan.DispatchBytes(2.0);
  const auto ret = w.plan.EpReturnBytes(2.0);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(ret[static_cast<size_t>(i)][static_cast<size_t>(j)],
                       dispatch[static_cast<size_t>(j)][static_cast<size_t>(i)]);
    }
  }
}

// The byte matrices as they were built before the per-pair row counts: one
// `+= bytes_per_row` per remote row and lane, rows walked in plan order.
std::vector<std::vector<double>> PerRowBytes(const RoutePlan& plan,
                                             double bytes_per_row,
                                             bool toward_home) {
  const Placement& placement = plan.placement();
  const size_t world = static_cast<size_t>(placement.world());
  std::vector<std::vector<double>> bytes(world,
                                         std::vector<double>(world, 0.0));
  for (int g = 0; g < placement.parallel().ep; ++g) {
    for (const auto& slice : plan.ForGroup(g).experts) {
      for (const auto& row : slice.rows) {
        if (row.source_group == g) {
          continue;
        }
        for (int lane = 0; lane < placement.parallel().tp; ++lane) {
          int src = placement.RankOf(row.source_group, lane);
          int dst = placement.RankOf(g, lane);
          if (toward_home) {
            std::swap(src, dst);
          }
          bytes[static_cast<size_t>(src)][static_cast<size_t>(dst)] +=
              bytes_per_row;
        }
      }
    }
  }
  return bytes;
}

void ExpectSameBytes(const RoutePlan& plan, double bytes_per_row,
                     const std::string& where) {
  for (const bool toward_home : {false, true}) {
    const auto got = toward_home ? plan.EpReturnBytes(bytes_per_row)
                                 : plan.DispatchBytes(bytes_per_row);
    const auto want = PerRowBytes(plan, bytes_per_row, toward_home);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      for (size_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[i][j]),
                  std::bit_cast<uint64_t>(want[i][j]))
            << where << (toward_home ? " return" : " dispatch") << " [" << i
            << "][" << j << "]";
      }
    }
  }
}

TEST_F(RoutePlanTest, ByteMatricesAreBitEqualToPerRowSums) {
  // A chunk fraction makes bytes_per_row non-integer, so the row-by-row
  // sums round; the matrices must round exactly the same way.
  const double row_bytes[] = {1.0, 8192.0 * 0.37, 0.1};
  for (const auto& [tp, ep] : {std::pair{1, 1}, std::pair{1, 8},
                               std::pair{2, 4}, std::pair{4, 2}}) {
    for (const int64_t tokens : {8, 64, 4096}) {
      const MoeWorkload w = Make(tp, ep, tokens);
      for (const double b : row_bytes) {
        ExpectSameBytes(w.plan, b,
                        "tp=" + std::to_string(tp) + " ep=" +
                            std::to_string(ep) + " tokens=" +
                            std::to_string(tokens));
      }
    }
  }
  // A replica slice moves half of an expert's rows to another group.
  const MoeWorkload w = Make(1, 4, 4096);
  RoutePlan plan;
  plan.Reserve(w.placement, 4096, 1);
  const ReplicaAssignment replica{/*expert=*/0, /*ep_group=*/3, /*slot=*/0};
  plan.Rebuild(w.placement, w.routing, std::span(&replica, 1));
  ASSERT_GT(plan.ReplicaRows(), 0);
  for (const double b : row_bytes) {
    ExpectSameBytes(plan, b, "replica");
  }
}

TEST_F(RoutePlanTest, TpReduceScatterBytes) {
  const MoeWorkload w2 = Make(2, 2, 32);
  // (TP-1)/TP * tokens_per_group * bytes_per_row = 1/2 * 16 * 4.
  EXPECT_DOUBLE_EQ(w2.plan.TpReduceScatterBytesPerRank(4.0), 32.0);
  const MoeWorkload w1 = Make(1, 4, 64);
  EXPECT_DOUBLE_EQ(w1.plan.TpReduceScatterBytesPerRank(4.0), 0.0);
}

TEST_F(RoutePlanTest, GemmProblemShapes) {
  const MoeWorkload w = Make(2, 2, 32);
  const auto p0 = w.plan.Layer0Problems(0);
  const auto p1 = w.plan.Layer1Problems(0);
  ASSERT_EQ(p0.size(), 4u);  // E/EP = 4 local experts
  EXPECT_EQ(p0[0].n, 16);    // K/TP = 32/2
  EXPECT_EQ(p0[0].k, 16);    // N
  EXPECT_EQ(p1[0].n, 16);    // N
  EXPECT_EQ(p1[0].k, 16);    // K/TP
  EXPECT_EQ(p0[0].m, p1[0].m);
}

// ---- group gemm -----------------------------------------------------------------

TEST(GroupGemm, MatchesNaiveGemm) {
  Rng rng(21);
  const Tensor a = Tensor::Randn(Shape{7, 5}, rng);
  const Tensor b = Tensor::Randn(Shape{5, 9}, rng);
  Tensor c(Shape{7, 9});
  Gemm(a, b, c);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < 5; ++k) {
        acc += a.at({i, k}) * b.at({k, j});
      }
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4f);
    }
  }
}

TEST(GroupGemm, TileExecutionEqualsWhole) {
  Rng rng(22);
  const Tensor a = Tensor::Randn(Shape{13, 8}, rng);
  const Tensor b = Tensor::Randn(Shape{8, 11}, rng);
  Tensor whole(Shape{13, 11});
  Gemm(a, b, whole);
  Tensor tiled(Shape{13, 11});
  for (int64_t r = 0; r < 13; r += 4) {
    for (int64_t cc = 0; cc < 11; cc += 3) {
      GemmTile(a, b, tiled, r, std::min<int64_t>(r + 4, 13), cc,
               std::min<int64_t>(cc + 3, 11));
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(whole, tiled), 0.0f);
}

// The kernel contract as a scalar loop: C[i, j] for rows [rb, re) x cols
// [cb, ce) is one p-ascending f32 chain from +0.0, rounded once to C's
// dtype; the rest of C is left as it was.
void ScalarChainInto(const Tensor& a, const Tensor& b, Tensor& c, int64_t rb,
                     int64_t re, int64_t cb, int64_t ce) {
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  for (int64_t i = rb; i < re; ++i) {
    for (int64_t j = cb; j < ce; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.data()[static_cast<size_t>(i * k + p)] *
               b.data()[static_cast<size_t>(p * n + j)];
      }
      c.data()[static_cast<size_t>(i * n + j)] =
          QuantizeScalar(acc, c.dtype());
    }
  }
}

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.data().size() == y.data().size() &&
         (x.data().empty() ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.data().size_bytes()) == 0);
}

// Gemm and GemmTile equal the scalar chain bit for bit at shapes that reach
// every block the kernel has: 8-row blocks and each 1-7 row leftover,
// full-width 16-column chunks read in place and ragged packed ones, k = 1
// through 129. The tile sits at non-zero row and column offsets, and its
// surroundings must stay untouched.
TEST(GroupGemm, BitEqualToScalarChainAtEveryBlockShape) {
  constexpr float kSentinel = -7.5f;  // exact at bf16 too
  constexpr int64_t kRowOff = 3;
  constexpr int64_t kColOff = 5;
  Rng rng(24);
  for (const DType dtype : {DType::kF32, DType::kBF16}) {
    for (const int64_t k : {1, 3, 64, 129}) {
      for (const int64_t n : {1, 15, 16, 17, 31, 32, 33, 64}) {
        for (int64_t m = 0; m < 20; ++m) {
          SCOPED_TRACE(DTypeName(dtype) + " m=" + std::to_string(m) +
                       " n=" + std::to_string(n) + " k=" + std::to_string(k));
          const Tensor a = Tensor::Randn(Shape{m, k}, rng);
          const Tensor b = Tensor::Randn(Shape{k, n}, rng);
          Tensor whole_want(Shape{m, n}, dtype);
          ScalarChainInto(a, b, whole_want, 0, m, 0, n);
          Tensor whole = Tensor::Full(Shape{m, n}, kSentinel, dtype);
          Gemm(a, b, whole);
          EXPECT_TRUE(SameBits(whole, whole_want)) << "Gemm";

          const Tensor ao = Tensor::Randn(Shape{m + kRowOff + 2, k}, rng);
          const Tensor bo = Tensor::Randn(Shape{k, n + kColOff + 3}, rng);
          const Shape c_shape{ao.rows(), bo.cols()};
          Tensor tile_want = Tensor::Full(c_shape, kSentinel, dtype);
          ScalarChainInto(ao, bo, tile_want, kRowOff, kRowOff + m, kColOff,
                          kColOff + n);
          Tensor tile = Tensor::Full(c_shape, kSentinel, dtype);
          GemmTile(ao, bo, tile, kRowOff, kRowOff + m, kColOff, kColOff + n);
          EXPECT_TRUE(SameBits(tile, tile_want)) << "GemmTile";
        }
      }
    }
  }
}

// The NN kernel rounds to bf16/f16 as it stores a block. With k = 1 and
// A = [[1]], C = +0.0 + 1 * B, so C must hold QuantizeScalar of every B
// pattern: all 2^16 upper halves, each with a zero, below-half, tie,
// above-half and all-ones lower half -- NaNs, infinities, overflow to
// infinity, subnormals and signed zeros included.
TEST(GroupGemm, RoundOnStoreMatchesQuantizeScalarOnEveryUpperHalf) {
  constexpr uint32_t kLows[] = {0x0000u, 0x7fffu, 0x8000u, 0x8001u, 0xffffu};
  constexpr int64_t kLowCount = sizeof(kLows) / sizeof(kLows[0]);
  const int64_t n = 65536 * kLowCount;
  const Tensor a = Tensor::Full(Shape{1, 1}, 1.0f);
  Tensor b(Shape{1, n});
  for (int64_t j = 0; j < n; ++j) {
    const uint32_t hi = static_cast<uint32_t>(j / kLowCount);
    b.data()[static_cast<size_t>(j)] =
        std::bit_cast<float>(hi << 16 | kLows[j % kLowCount]);
  }
  for (const DType dtype : {DType::kBF16, DType::kF16}) {
    SCOPED_TRACE(DTypeName(dtype));
    Tensor c(Shape{1, n}, dtype);
    Gemm(a, b, c);
    int64_t mismatches = 0;
    for (int64_t j = 0; j < n; ++j) {
      const float x = b.data()[static_cast<size_t>(j)];
      const float want = QuantizeScalar(0.0f + 1.0f * x, dtype);
      mismatches += std::bit_cast<uint32_t>(c.data()[static_cast<size_t>(j)]) !=
                    std::bit_cast<uint32_t>(want);
    }
    EXPECT_EQ(mismatches, 0);
  }
}

TEST(GroupGemm, TileOrderDoesNotChangeResult) {
  Rng rng(23);
  const Tensor a = Tensor::Randn(Shape{12, 6}, rng);
  const Tensor b = Tensor::Randn(Shape{6, 10}, rng);
  GroupGemmProblem problem;
  Tensor c1(Shape{12, 10});
  problem.a = {&a};
  problem.b = {&b};
  problem.c = {&c1};
  const auto tiles = EnumerateTiles(problem, 4, 4);
  RunGroupGemm(problem, tiles);

  Tensor c2(Shape{12, 10});
  problem.c = {&c2};
  auto reversed = tiles;
  std::reverse(reversed.begin(), reversed.end());
  RunGroupGemm(problem, reversed);
  EXPECT_EQ(Tensor::MaxAbsDiff(c1, c2), 0.0f);
}

TEST(GroupGemm, EnumerateCountsTiles) {
  const Tensor a = Tensor::Zeros(Shape{10, 4});
  const Tensor b = Tensor::Zeros(Shape{4, 6});
  Tensor c(Shape{10, 6});
  GroupGemmProblem problem;
  problem.a = {&a};
  problem.b = {&b};
  problem.c = {&c};
  EXPECT_EQ(EnumerateTiles(problem, 4, 4).size(), 6u);  // ceil(10/4)*ceil(6/4)
}

// ---- activation ------------------------------------------------------------------

// What ApplyActivationTile stores for one element on the scalar path: the
// element function in f32, rounded on store at 2-byte dtypes.
float ScalarActivation(ActivationKind kind, DType dtype, float x) {
  switch (kind) {
    case ActivationKind::kGelu:
      x = GeluScalar(x);
      break;
    case ActivationKind::kSilu:
      x = SiluScalar(x);
      break;
    case ActivationKind::kRelu:
      x = x > 0.0f ? x : 0.0f;
      break;
    case ActivationKind::kIdentity:
      break;
  }
  return dtype == DType::kF32 ? x : QuantizeScalar(x, dtype);
}

// A (256, 256) tensor at `dtype` whose element p is the f32 value that the
// 16-bit pattern p names: every input the table can be indexed by, NaNs,
// infinities, signed zeros and subnormals included.
Tensor AllPatterns(DType dtype) {
  Tensor t(Shape{256, 256}, dtype);
  auto data = t.data();
  for (uint32_t p = 0; p < (1u << 16); ++p) {
    const uint16_t bits = static_cast<uint16_t>(p);
    data[p] = dtype == DType::kBF16 ? Bf16ToF32(bits) : F16ToF32(bits);
  }
  return t;
}

// Bitwise comparison of `got` against ScalarActivation over `inputs`; reports
// the mismatch count and the first mismatching input.
void ExpectScalarPathBits(const Tensor& got, const Tensor& inputs,
                          ActivationKind kind) {
  const auto g = got.data();
  const auto in = inputs.data();
  int64_t mismatches = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    const uint32_t want =
        std::bit_cast<uint32_t>(ScalarActivation(kind, got.dtype(), in[i]));
    const uint32_t have = std::bit_cast<uint32_t>(g[i]);
    if (have != want && mismatches++ == 0) {
      EXPECT_EQ(have, want) << "first mismatch at input bits 0x" << std::hex
                            << std::bit_cast<uint32_t>(in[i]);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Defined first among this suite's table users, so in a whole-binary run
// (and always under ctest, one process per test) the SiLU/f16 table is
// unbuilt when the chunks race to it. At COMET_THREADS=8 up to eight pool
// threads first-touch it together.
TEST(ActivationTable, ConcurrentFirstUseFromParallelForChunks) {
  const Tensor inputs = AllPatterns(DType::kF16);
  Tensor t = inputs;
  ParallelForChunks(0, t.rows(), 1, [&](int64_t rb, int64_t re) {
    ApplyActivationTile(t, ActivationKind::kSilu, rb, re, 0, t.cols());
  });
  ExpectScalarPathBits(t, inputs, ActivationKind::kSilu);
}

// Test name suffix "<kind>_<dtype>", e.g. "gelu_bf16".
std::string KindDtypeName(
    const ::testing::TestParamInfo<std::tuple<ActivationKind, DType>>& info) {
  constexpr const char* kKinds[] = {"gelu", "silu", "relu"};
  return std::string(kKinds[static_cast<int>(std::get<0>(info.param))]) +
         "_" + DTypeName(std::get<1>(info.param));
}

class ActivationTableTest
    : public ::testing::TestWithParam<std::tuple<ActivationKind, DType>> {};

TEST_P(ActivationTableTest, EveryPatternMatchesScalarPathBitwise) {
  const auto [kind, dtype] = GetParam();
  const Tensor inputs = AllPatterns(dtype);
  Tensor t = inputs;
  ApplyActivation(t, kind);
  ExpectScalarPathBits(t, inputs, kind);
}

TEST_P(ActivationTableTest, UnroundedInputsTakeScalarPath) {
  const auto [kind, dtype] = GetParam();
  // Raw writes whose f32 bits are no 16-bit value, so a table indexed by
  // their truncated or rounded pattern would be wrong for some of them.
  Rng rng(17);
  Tensor inputs = Tensor::Randn(Shape{64, 64}, rng, 3.0f, DType::kF32);
  inputs.data()[0] = 1.0f + 0x1p-20f;
  // Just above the midpoint of 1 and the next bf16 (1 + 2^-7) and f16
  // (1 + 2^-10) values: rounds up, while its truncated pattern is 1.0.
  inputs.data()[1] = 1.0f + 0x1p-8f + 0x1p-20f;
  inputs.data()[2] = 1.0f + 0x1p-11f + 0x1p-20f;
  Tensor t(inputs.shape(), dtype);
  std::copy(inputs.data().begin(), inputs.data().end(), t.data().begin());
  ApplyActivation(t, kind);
  ExpectScalarPathBits(t, inputs, kind);
}

INSTANTIATE_TEST_SUITE_P(
    KindsByDtype, ActivationTableTest,
    ::testing::Combine(::testing::Values(ActivationKind::kGelu,
                                         ActivationKind::kSilu,
                                         ActivationKind::kRelu),
                       ::testing::Values(DType::kBF16, DType::kF16)),
    KindDtypeName);

TEST(Activation, GeluValues) {
  EXPECT_NEAR(GeluScalar(0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(GeluScalar(1.0f), 0.8412f, 1e-3f);
  EXPECT_NEAR(GeluScalar(-1.0f), -0.1588f, 1e-3f);
}

TEST(Activation, SiluValues) {
  EXPECT_NEAR(SiluScalar(0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(SiluScalar(1.0f), 0.7311f, 1e-3f);
}

TEST(Activation, TileApplicationMatchesWhole) {
  Rng rng(31);
  Tensor whole = Tensor::Randn(Shape{6, 8}, rng);
  Tensor tiled = whole;
  ApplyActivation(whole, ActivationKind::kGelu);
  for (int64_t r = 0; r < 6; r += 2) {
    for (int64_t c = 0; c < 8; c += 3) {
      ApplyActivationTile(tiled, ActivationKind::kGelu, r,
                          std::min<int64_t>(r + 2, 6), c,
                          std::min<int64_t>(c + 3, 8));
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(whole, tiled), 0.0f);
}

TEST(Activation, ReluAndIdentity) {
  Tensor t = Tensor::Full(Shape{1, 2}, -1.0f);
  Tensor id = t;
  ApplyActivation(t, ActivationKind::kRelu);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  ApplyActivation(id, ActivationKind::kIdentity);
  EXPECT_EQ(id.at({0, 0}), -1.0f);
}

// ---- sharded weights --------------------------------------------------------------

TEST(ShardedWeights, ShardsTileTheFullMatrices) {
  ModelConfig model;
  model.num_experts = 2;
  model.topk = 1;
  model.embedding = 4;
  model.ffn_hidden = 8;
  Rng rng(41);
  const ExpertWeights full = ExpertWeights::Random(model, rng);
  const ShardedExpertWeights sharded(full, 2);
  for (int64_t e = 0; e < 2; ++e) {
    for (int t = 0; t < 2; ++t) {
      const Tensor& w0 = sharded.W0Shard(e, t);
      EXPECT_EQ(w0.shape(), Shape({4, 4}));
      for (int64_t r = 0; r < 4; ++r) {
        for (int64_t c = 0; c < 4; ++c) {
          EXPECT_EQ(w0.at({r, c}), full.W0(e).at({r, t * 4 + c}));
        }
      }
      const Tensor& w1 = sharded.W1Shard(e, t);
      EXPECT_EQ(w1.shape(), Shape({4, 4}));
      for (int64_t r = 0; r < 4; ++r) {
        for (int64_t c = 0; c < 4; ++c) {
          EXPECT_EQ(w1.at({r, c}), full.W1(e).at({t * 4 + r, c}));
        }
      }
    }
  }
}

// ---- reference layers ---------------------------------------------------------------

TEST(ReferenceLayer, DenseAndShardedAgreeClosely) {
  ModelConfig model;
  model.name = "t";
  model.layers = 1;
  model.num_experts = 4;
  model.topk = 2;
  model.embedding = 16;
  model.ffn_hidden = 32;
  WorkloadOptions options;
  options.seed = 51;
  const MoeWorkload w =
      MakeWorkload(model, ParallelConfig{2, 2}, 32, options);
  const auto dense = ReferenceMoeLayer(w);
  const auto sharded = ShardedReferenceMoeLayer(w);
  ASSERT_EQ(dense.size(), sharded.size());
  for (size_t g = 0; g < dense.size(); ++g) {
    EXPECT_TRUE(Tensor::AllClose(dense[g], sharded[g], 1e-4f, 1e-4f));
  }
}

TEST(ReferenceLayer, TokensWithSameRouteGetSameOutput) {
  ModelConfig model;
  model.name = "t";
  model.layers = 1;
  model.num_experts = 2;
  model.topk = 1;
  model.embedding = 8;
  model.ffn_hidden = 16;
  WorkloadOptions options;
  options.seed = 52;
  MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 1}, 8, options);
  // Force token 0 and 1 identical in input and routing.
  w.inputs[0].SetRow(1, w.inputs[0].row(0));
  w.routing.tokens[1] = w.routing.tokens[0];
  w.plan = RoutePlan(w.placement, w.routing);
  const auto out = ReferenceMoeLayer(w);
  for (int64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(out[0].at({0, c}), out[0].at({1, c}));
  }
}

// ---- capacity-limited routing ---------------------------------------------------

TEST(CapacityFactor, EnforcesPerExpertBudget) {
  SyntheticRouter router(std::vector<double>{0.7, 0.1, 0.1, 0.1}, 17);
  RoutingTable table = router.Route(1000, 2);
  const DropStats stats = ApplyCapacityFactor(table, 4, 1.0);
  // capacity = ceil(1.0 * 2000 / 4) = 500 pairs per expert.
  EXPECT_EQ(stats.capacity, 500);
  const auto loads = table.ExpertLoads(4);
  for (int64_t l : loads) {
    EXPECT_LE(l, stats.capacity);
  }
  // The hot expert (p = 0.7) must have overflowed.
  EXPECT_GT(stats.dropped_pairs, 0);
  EXPECT_GT(stats.overflow_per_expert[0], 0);
  table.Validate(4, 2);
}

TEST(CapacityFactor, LargeFactorDropsNothing) {
  SyntheticRouter router(std::vector<double>{0.7, 0.1, 0.1, 0.1}, 17);
  RoutingTable table = router.Route(500, 2);
  const RoutingTable before = table;
  const DropStats stats = ApplyCapacityFactor(table, 4, 8.0);
  EXPECT_EQ(stats.dropped_pairs, 0);
  EXPECT_EQ(stats.fully_dropped_tokens, 0);
  for (size_t t = 0; t < table.tokens.size(); ++t) {
    EXPECT_EQ(table.tokens[t].experts, before.tokens[t].experts);
  }
}

TEST(CapacityFactor, SurvivingWeightsRenormalized) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0, 1}, {0.75f, 0.25f}});
  table.tokens.push_back(TokenRoute{{0, 1}, {0.6f, 0.4f}});
  table.tokens.push_back(TokenRoute{{0, 2}, {0.5f, 0.5f}});
  // 6 pairs, 3 experts, cf = 1/2 -> capacity ceil(6 * 0.5 / 3) = 1.
  const DropStats stats = ApplyCapacityFactor(table, 3, 0.5);
  EXPECT_EQ(stats.capacity, 1);
  // Token 0 keeps both (first come), token 1 loses both to capacity,
  // token 2 keeps only expert 2.
  EXPECT_EQ(table.tokens[0].experts.size(), 2u);
  EXPECT_TRUE(table.tokens[1].experts.empty());
  ASSERT_EQ(table.tokens[2].experts.size(), 1u);
  EXPECT_EQ(table.tokens[2].experts[0], 2);
  EXPECT_FLOAT_EQ(table.tokens[2].weights[0], 1.0f);
  EXPECT_EQ(stats.fully_dropped_tokens, 1);
  EXPECT_EQ(stats.dropped_pairs, 3);
}

TEST(CapacityFactor, DropFraction) {
  DropStats stats;
  stats.dropped_pairs = 25;
  EXPECT_DOUBLE_EQ(stats.DropFraction(100), 0.25);
  EXPECT_DOUBLE_EQ(stats.DropFraction(0), 0.0);
}

TEST(CapacityFactor, DroppedRoutingStillExecutesFunctionally) {
  ModelConfig model;
  model.name = "cap-test";
  model.layers = 1;
  model.num_experts = 4;
  model.topk = 2;
  model.embedding = 16;
  model.ffn_hidden = 24;
  WorkloadOptions options;
  options.seed = 23;
  options.load_std = 0.08;  // heavy imbalance so drops actually happen
  MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 2}, 32, options);
  const DropStats stats = ApplyCapacityFactor(w.routing, 4, 0.75);
  ASSERT_GT(stats.dropped_pairs, 0);
  w.plan = RoutePlan(w.placement, w.routing);

  const auto dense = ReferenceMoeLayer(w);
  const auto sharded = ShardedReferenceMoeLayer(w);
  ASSERT_EQ(dense.size(), 2u);
  for (size_t g = 0; g < dense.size(); ++g) {
    EXPECT_TRUE(Tensor::AllClose(dense[g], sharded[g], 1e-4f, 1e-5f));
  }
}

TEST(CapacityFactor, FullyDroppedTokenOutputsZero) {
  ModelConfig model;
  model.name = "cap-zero";
  model.layers = 1;
  model.num_experts = 2;
  model.topk = 1;
  model.embedding = 8;
  model.ffn_hidden = 8;
  WorkloadOptions options;
  options.seed = 5;
  MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 1}, 4, options);
  // Route everything to expert 0 then cap at 1 pair: tokens 1..3 drop fully.
  for (auto& t : w.routing.tokens) {
    t = TokenRoute{{0}, {1.0f}};
  }
  const DropStats stats = ApplyCapacityFactor(w.routing, 2, 0.5);
  EXPECT_EQ(stats.fully_dropped_tokens, 3);
  w.plan = RoutePlan(w.placement, w.routing);
  const auto out = ReferenceMoeLayer(w);
  for (int64_t t = 1; t < 4; ++t) {
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(out[0].at({t, c}), 0.0f);
    }
  }
}

}  // namespace
}  // namespace comet
