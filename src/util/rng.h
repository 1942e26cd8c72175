// Deterministic pseudo-random number generation for workload synthesis.
//
// All randomness in the repository flows through comet::Rng so that every
// experiment (routing tables, token values, imbalance patterns) is exactly
// reproducible from a seed. The core generator is xoshiro256**, seeded via
// splitmix64 as recommended by its authors; distribution helpers cover the
// cases the benches need (uniform, normal, Dirichlet-like
// expert-load vectors with a target standard deviation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace comet {

// xoshiro256** generator with distribution helpers. Copyable; copies diverge
// independently from the point of the copy.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

  // Raw 64 random bits. Inline: workload synthesis draws millions.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1): the 53 high bits of NextU64.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal via Box-Muller (cached second value).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Produces a probability vector of length n whose standard deviation
  // (treating the entries as a population) is approximately `target_std`.
  // Used to reproduce the paper's Figure 14 x-axis: the std of the expert
  // load distribution. target_std == 0 yields the uniform vector 1/n.
  std::vector<double> LoadVectorWithStd(size_t n, double target_std);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace comet
