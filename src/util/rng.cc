#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace comet {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  COMET_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Uniform(double lo, double hi) {
  COMET_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

std::vector<double> Rng::LoadVectorWithStd(size_t n, double target_std) {
  COMET_CHECK_GT(n, 0u);
  COMET_CHECK_GE(target_std, 0.0);
  const double mean = 1.0 / static_cast<double>(n);
  std::vector<double> v(n, mean);
  if (target_std == 0.0 || n == 1) {
    return v;
  }
  // Start from a random direction orthogonal to the all-ones vector, then
  // scale it to the requested population std and clamp to non-negative.
  std::vector<double> dir(n);
  double dir_mean = 0.0;
  for (auto& d : dir) {
    d = Normal();
    dir_mean += d;
  }
  dir_mean /= static_cast<double>(n);
  double norm2 = 0.0;
  for (auto& d : dir) {
    d -= dir_mean;  // orthogonal to ones => perturbation preserves the sum
    norm2 += d * d;
  }
  const double dir_std = std::sqrt(norm2 / static_cast<double>(n));
  if (dir_std == 0.0) {
    return v;
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = mean + dir[i] / dir_std * target_std;
  }
  // Clamp and renormalize; for the std ranges the paper sweeps (<= 0.05 with
  // n = 8 experts) clamping rarely triggers, so the resulting std stays close
  // to the target.
  double sum = 0.0;
  for (auto& x : v) {
    x = std::max(x, 0.0);
    sum += x;
  }
  for (auto& x : v) {
    x /= sum;
  }
  return v;
}

}  // namespace comet
