#include "moe/router.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/stats.h"

namespace comet {

std::vector<int64_t> RoutingTable::ExpertLoads(int64_t num_experts) const {
  std::vector<int64_t> loads;
  ExpertLoadsInto(num_experts, &loads);
  return loads;
}

void RoutingTable::ExpertLoadsInto(int64_t num_experts,
                                   std::vector<int64_t>* loads) const {
  COMET_CHECK(loads != nullptr);
  loads->assign(static_cast<size_t>(num_experts), 0);
  for (const auto& t : tokens) {
    for (int64_t e : t.experts) {
      COMET_CHECK_GE(e, 0);
      COMET_CHECK_LT(e, num_experts);
      ++(*loads)[static_cast<size_t>(e)];
    }
  }
}

double LoadStdFromCounts(std::span<const int64_t> loads) {
  int64_t total = 0;
  for (int64_t l : loads) {
    total += l;
  }
  if (total == 0) {
    return 0.0;
  }
  // The two passes below recompute each fraction on the fly in the exact
  // accumulation order PopulationStddev uses over a materialized fractions
  // vector, so the result is bit-identical to the allocating formulation.
  double mean = 0.0;
  for (int64_t l : loads) {
    mean += static_cast<double>(l) / static_cast<double>(total);
  }
  mean /= static_cast<double>(loads.size());
  double var = 0.0;
  for (int64_t l : loads) {
    const double f = static_cast<double>(l) / static_cast<double>(total);
    var += (f - mean) * (f - mean);
  }
  return std::sqrt(var / static_cast<double>(loads.size()));
}

double RoutingTable::LoadStd(int64_t num_experts) const {
  const auto loads = ExpertLoads(num_experts);
  return LoadStdFromCounts(loads);
}

void RoutingTable::Validate(int64_t num_experts, int64_t topk,
                            DType dtype) const {
  // Each combine weight is a correctly-rounded value at `dtype`, so the
  // worst-case drift of a topk-term sum from exact 1 scales with topk ulps
  // at that dtype. f32 keeps the historical 1e-4 bound (generous for f32,
  // and every pre-existing caller's behavior is unchanged).
  const float tol = std::max(
      1e-4f, static_cast<float>(topk) * DTypeEpsilon(dtype));
  for (const auto& t : tokens) {
    COMET_CHECK_LE(static_cast<int64_t>(t.experts.size()), topk);
    COMET_CHECK_EQ(t.experts.size(), t.weights.size());
    float sum = 0.0f;
    for (size_t i = 0; i < t.experts.size(); ++i) {
      COMET_CHECK_GE(t.experts[i], 0);
      COMET_CHECK_LT(t.experts[i], num_experts);
      for (size_t j = i + 1; j < t.experts.size(); ++j) {
        COMET_CHECK_NE(t.experts[i], t.experts[j])
            << "token routed twice to expert " << t.experts[i];
      }
      COMET_CHECK_GE(t.weights[i], 0.0f);
      sum += t.weights[i];
    }
    COMET_CHECK(t.experts.empty() || std::abs(sum - 1.0f) < tol)
        << "combine weights sum to " << sum << " (tolerance " << tol
        << " at " << DTypeName(dtype) << ")";
  }
}

DropStats ApplyCapacityFactor(RoutingTable& routing, int64_t num_experts,
                              double capacity_factor) {
  COMET_CHECK_GT(num_experts, 0);
  COMET_CHECK_GT(capacity_factor, 0.0);
  int64_t total_pairs = 0;
  for (const auto& t : routing.tokens) {
    total_pairs += static_cast<int64_t>(t.experts.size());
  }
  DropStats stats;
  stats.capacity = static_cast<int64_t>(std::ceil(
      capacity_factor * static_cast<double>(total_pairs) /
      static_cast<double>(num_experts)));
  stats.overflow_per_expert.assign(static_cast<size_t>(num_experts), 0);

  std::vector<int64_t> used(static_cast<size_t>(num_experts), 0);
  for (auto& token : routing.tokens) {
    TokenRoute kept;
    float sum = 0.0f;
    for (size_t i = 0; i < token.experts.size(); ++i) {
      const size_t e = static_cast<size_t>(token.experts[i]);
      COMET_CHECK_LT(token.experts[i], num_experts);
      if (used[e] < stats.capacity) {
        ++used[e];
        kept.experts.push_back(token.experts[i]);
        kept.weights.push_back(token.weights[i]);
        sum += token.weights[i];
      } else {
        ++stats.dropped_pairs;
        ++stats.overflow_per_expert[e];
      }
    }
    if (kept.experts.empty() && !token.experts.empty()) {
      ++stats.fully_dropped_tokens;
    }
    if (sum > 0.0f) {
      for (auto& w : kept.weights) {
        w /= sum;
      }
    }
    token = std::move(kept);
  }
  return stats;
}

GateNetwork::GateNetwork(Tensor gate_weight)
    : gate_weight_(std::move(gate_weight)) {
  COMET_CHECK_EQ(gate_weight_.shape().rank(), 2u);
}

int64_t GateNetwork::num_experts() const { return gate_weight_.cols(); }

RoutingTable GateNetwork::Route(const Tensor& tokens, int64_t topk) const {
  RoutingTable table;
  GateScratch scratch;
  RouteInto(tokens, topk, scratch, &table);
  return table;
}

void GateNetwork::RouteInto(const Tensor& tokens, int64_t topk,
                            GateScratch& scratch, RoutingTable* table) const {
  COMET_CHECK(table != nullptr);
  COMET_CHECK_EQ(tokens.cols(), gate_weight_.rows());
  const int64_t e_total = num_experts();
  COMET_CHECK_GT(topk, 0);
  COMET_CHECK_LE(topk, e_total);

  table->tokens.resize(static_cast<size_t>(tokens.rows()));
  std::vector<float>& logits = scratch.logits;
  std::vector<float>& probs = scratch.probs;
  logits.resize(static_cast<size_t>(e_total));
  probs.resize(static_cast<size_t>(e_total));
  // Row-major (N, E): row n holds w[n, 0..E).
  const float* w = gate_weight_.data().data();
  for (int64_t m = 0; m < tokens.rows(); ++m) {
    const auto x = tokens.row(m);
    // logits[e] = sum over n of x[n] * w[n, e], summed in ascending n from
    // 0.0f. Looping n-outer keeps that order per logit while reading w by
    // rows; the build's -ffp-contract=off keeps multiply and add unfused.
    std::fill(logits.begin(), logits.end(), 0.0f);
    for (int64_t n = 0; n < tokens.cols(); ++n) {
      const float xn = x[static_cast<size_t>(n)];
      const float* w_row = w + n * e_total;
      for (int64_t e = 0; e < e_total; ++e) {
        logits[static_cast<size_t>(e)] += xn * w_row[e];
      }
    }
    // Softmax (max-subtracted) over all experts.
    const float max_logit = *std::max_element(logits.begin(), logits.end());
    float z = 0.0f;
    for (size_t e = 0; e < logits.size(); ++e) {
      probs[e] = std::exp(logits[e] - max_logit);
      z += probs[e];
    }
    for (auto& p : probs) {
      p /= z;
    }
    // Top-k by probability via iterative argmax, ties to the smaller expert
    // index. Identical selection (order included) to a stable descending
    // sort's k-prefix, without the sort's temporary buffer.
    TokenRoute& route = table->tokens[static_cast<size_t>(m)];
    route.experts.clear();
    route.weights.clear();
    float selected_sum = 0.0f;
    for (int64_t k = 0; k < topk; ++k) {
      int64_t best = -1;
      float best_p = 0.0f;
      for (int64_t e = 0; e < e_total; ++e) {
        bool taken = false;
        for (int64_t prev : route.experts) {
          if (prev == e) {
            taken = true;
            break;
          }
        }
        if (taken) {
          continue;
        }
        if (best < 0 || probs[static_cast<size_t>(e)] > best_p) {
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
}

namespace {

// One vector of SyntheticRouter lanes. GCC/Clang vector extension, as in the
// GroupGEMM microkernel: each operation is the lane-wise IEEE operation, so
// the result is the same on targets that split it into narrower vectors.
constexpr int64_t kLanesPerVec = 8;
typedef double LaneVec __attribute__((vector_size(kLanesPerVec *
                                                  sizeof(double)),
                                      aligned(alignof(double))));
typedef int64_t CountVec __attribute__((vector_size(kLanesPerVec *
                                                    sizeof(int64_t))));
static_assert(SyntheticRouter::kBlockTokens % kLanesPerVec == 0);

inline LaneVec LoadLanes(const double* p) {
  LaneVec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

SyntheticRouter::SyntheticRouter(std::vector<double> load, uint64_t seed)
    : load_(std::move(load)), rng_(seed) {
  COMET_CHECK(!load_.empty());
  double sum = 0.0;
  for (double p : load_) {
    COMET_CHECK_GE(p, 0.0);
    sum += p;
  }
  COMET_CHECK_GT(sum, 0.0);
  const size_t lanes = static_cast<size_t>(kBlockTokens);
  lane_weights_.reserve(load_.size() * lanes);
  for (auto& p : load_) {
    p /= sum;
    first_total_ += p;
    positive_experts_ += p > 0.0 ? 1 : 0;
    lane_weights_.insert(lane_weights_.end(), lanes, p);
  }
  draws_.assign(2 * load_.size() * lanes, 0.0);
  picks_.assign(load_.size() * lanes, 0);
}

RoutingTable SyntheticRouter::Route(int64_t num_tokens, int64_t topk) {
  RoutingTable table;
  RouteInto(num_tokens, topk, /*shift=*/0, &table);
  return table;
}

void SyntheticRouter::RouteInto(int64_t num_tokens, int64_t topk,
                                int64_t shift, RoutingTable* table) {
  constexpr int64_t W = kBlockTokens;
  constexpr int64_t V = kBlockTokens / kLanesPerVec;
  COMET_CHECK(table != nullptr);
  COMET_CHECK_GE(num_tokens, 0);
  COMET_CHECK_GT(topk, 0);
  COMET_CHECK_LE(topk, positive_experts_)
      << "topk " << topk << " exceeds the " << positive_experts_
      << " experts with positive load";
  COMET_CHECK_GE(shift, 0);
  const int64_t e_total = num_experts();
  // The shift rotates the STORED ids only, after sampling, so the rng
  // consumption (and hence every later draw) is independent of the phase.
  const int64_t rotate = shift % e_total;
  table->tokens.resize(static_cast<size_t>(num_tokens));
  double* w = lane_weights_.data();
  double* draws = draws_.data();
  for (int64_t first = 0; first < num_tokens; first += W) {
    const int64_t lanes = std::min(W, num_tokens - first);
    // Lanes past `lanes` rerun stale draws; their picks are discarded.
    for (int64_t l = 0; l < lanes; ++l) {
      for (int64_t j = 0; j < 2 * topk; ++j) {
        draws[j * W + l] = rng_.NextDouble();
      }
    }
    // Expert draw k of every lane: fold the masked weights, then scan.
    for (int64_t k = 0; k < topk; ++k) {
      LaneVec total[V] = {};
      LaneVec r[V];
      CountVec kept[V];
      if (k == 0) {
        for (int64_t v = 0; v < V; ++v) {
          total[v] += first_total_;  // 0.0 + x == x
        }
      } else {
        for (int64_t i = 0; i < e_total; ++i) {
          for (int64_t v = 0; v < V; ++v) {
            total[v] += LoadLanes(w + i * W + v * kLanesPerVec);
          }
        }
      }
      for (int64_t v = 0; v < V; ++v) {
        r[v] = LoadLanes(draws + k * W + v * kLanesPerVec) * total[v];
        kept[v] = CountVec{};
      }
      // The scan: a true lane compare is -1, so `kept` counts the steps
      // that left r >= 0, i.e. the index of the drawn expert.
      for (int64_t i = 0; i < e_total; ++i) {
        for (int64_t v = 0; v < V; ++v) {
          r[v] -= LoadLanes(w + i * W + v * kLanesPerVec);
          kept[v] -= r[v] >= 0.0;
        }
      }
      for (int64_t v = 0; v < V; ++v) {
        for (int64_t j = 0; j < kLanesPerVec; ++j) {
          const int64_t l = v * kLanesPerVec + j;
          const int64_t e = std::min<int64_t>(kept[v][j], e_total - 1);
          picks_[static_cast<size_t>(k * W + l)] = e;
          w[e * W + l] = 0.0;
        }
      }
    }
    for (int64_t l = 0; l < lanes; ++l) {
      TokenRoute& route = table->tokens[static_cast<size_t>(first + l)];
      route.experts.clear();
      route.weights.clear();
      for (int64_t k = 0; k < topk; ++k) {
        const int64_t e = picks_[static_cast<size_t>(k * W + l)] + rotate;
        route.experts.push_back(e < e_total ? e : e - e_total);
      }
      // Random combine weights (Uniform(0.5, 1.5)), renormalized.
      float sum = 0.0f;
      for (int64_t k = 0; k < topk; ++k) {
        const float cw = static_cast<float>(
            0.5 + (1.5 - 0.5) * draws[(topk + k) * W + l]);
        route.weights.push_back(cw);
        sum += cw;
      }
      for (auto& cw : route.weights) {
        cw /= sum;
      }
    }
    // Unmask the drawn experts for the next block.
    for (int64_t k = 0; k < topk; ++k) {
      for (int64_t l = 0; l < W; ++l) {
        const int64_t e = picks_[static_cast<size_t>(k * W + l)];
        w[e * W + l] = load_[static_cast<size_t>(e)];
      }
    }
  }
}

}  // namespace comet
