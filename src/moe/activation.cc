#include "moe/activation.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {

float GeluScalar(float x) {
  // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float SiluScalar(float x) { return x / (1.0f + std::exp(-x)); }

namespace {

// The scalar path of ApplyActivationTile for one element: the element
// function in f32, rounded on store to `dtype` (the identity at kF32).
float ActivationRounded(ActivationKind kind, DType dtype, float x) {
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
  return QuantizeScalar(x, dtype);
}

constexpr uint32_t kPatterns = 1u << 16;

enum class TableKind { kForward, kGrad };

// The lookup table of (which, kind, dtype): entry p holds the scalar path's
// result at the f32 value that pattern p names -- ActivationRounded for
// kForward, ActivationGradScalar (unrounded) for kGrad. Built on first use,
// once per process, by the same scalar functions (so with this binary's
// libm); later calls only read it. kind != kIdentity, dtype != kF32.
const float* Table(TableKind which, ActivationKind kind, DType dtype) {
  constexpr size_t kKinds = 3;  // GELU, SiLU, ReLU
  static std::once_flag built[2][kKinds][2];
  static std::vector<float> tables[2][kKinds][2];
  const size_t w = which == TableKind::kForward ? 0 : 1;
  const size_t k = static_cast<size_t>(kind);
  const size_t d = dtype == DType::kBF16 ? 0 : 1;
  COMET_CHECK_LT(k, kKinds);
  COMET_CHECK(dtype != DType::kF32);
  std::call_once(built[w][k][d], [&] {
    std::vector<float>& table = tables[w][k][d];
    table.resize(kPatterns);
    for (uint32_t p = 0; p < kPatterns; ++p) {
      const uint16_t pattern = static_cast<uint16_t>(p);
      const float x = dtype == DType::kBF16 ? Bf16ToF32(pattern)
                                            : F16ToF32(pattern);
      table[p] = which == TableKind::kForward
                     ? ActivationRounded(kind, dtype, x)
                     : ActivationGradScalar(kind, x);
    }
  });
  return tables[w][k][d].data();
}

// The 16-bit pattern at kDType whose decode is bitwise `x`, or -1 when `x`
// is not one (a raw unrounded write).
template <DType kDType>
int32_t ExactPattern16(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  if constexpr (kDType == DType::kBF16) {
    return (bits & 0xffffu) == 0 ? static_cast<int32_t>(bits >> 16) : -1;
  } else {
    const uint16_t half = F32ToF16(x);
    return std::bit_cast<uint32_t>(F16ToF32(half)) == bits
               ? static_cast<int32_t>(half)
               : -1;
  }
}

// The table entry for `x`'s 16-bit pattern at kDType, or scalar(x) when x is
// not one (always at kF32, which has no table).
template <DType kDType, typename Scalar>
float Lookup(const float* table, float x, Scalar scalar) {
  if constexpr (kDType == DType::kF32) {
    return scalar(x);
  } else {
    const int32_t pattern = ExactPattern16<kDType>(x);
    return pattern >= 0 ? table[pattern] : scalar(x);
  }
}

// Calls body(std::integral_constant<DType, dtype>, table) with `dtype` as a
// compile-time constant and the table of (which, kind, dtype) -- null at
// kF32 -- so the element loops carry no per-element dtype branch.
template <typename Body>
void WithTable(TableKind which, ActivationKind kind, DType dtype, Body body) {
  switch (dtype) {
    case DType::kF32:
      body(std::integral_constant<DType, DType::kF32>{}, nullptr);
      return;
    case DType::kBF16:
      body(std::integral_constant<DType, DType::kBF16>{},
           Table(which, kind, dtype));
      return;
    case DType::kF16:
      body(std::integral_constant<DType, DType::kF16>{},
           Table(which, kind, dtype));
      return;
  }
  COMET_CHECK(false) << "unknown dtype";
}

}  // namespace

void PrepareActivationTable(ActivationKind kind, DType dtype) {
  if (kind != ActivationKind::kIdentity && dtype != DType::kF32) {
    Table(TableKind::kForward, kind, dtype);
  }
}

void ApplyActivationTile(Tensor& t, ActivationKind kind, int64_t row_begin,
                         int64_t row_end, int64_t col_begin, int64_t col_end) {
  COMET_CHECK_EQ(t.shape().rank(), 2u);
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, t.rows());
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, t.cols());
  if (kind == ActivationKind::kIdentity) {
    // Nothing computed, nothing to round: the input already satisfies the
    // tensor's representability invariant.
    return;
  }
  // At 2-byte dtypes the element function is computed in f32 and rounded on
  // store (RNE) -- same contract as the GEMM epilogue, and per-element pure,
  // so tiling/threading never changes results. The table holds exactly that
  // scalar result per 16-bit input pattern.
  WithTable(TableKind::kForward, kind, t.dtype(),
            [&](auto dtype_constant, const float* table) {
              constexpr DType kDType = decltype(dtype_constant)::value;
              const auto scalar = [&](float x) {
                return ActivationRounded(kind, kDType, x);
              };
              for (int64_t r = row_begin; r < row_end; ++r) {
                auto row = t.row(r);
                for (int64_t c = col_begin; c < col_end; ++c) {
                  float& x = row[static_cast<size_t>(c)];
                  x = Lookup<kDType>(table, x, scalar);
                }
              }
            });
}

void ApplyActivation(Tensor& t, ActivationKind kind) {
  // Elementwise, so a row partition is trivially order-preserving.
  const int64_t cols = t.cols();
  ParallelForChunks(0, t.rows(), 16, [&](int64_t rb, int64_t re) {
    ApplyActivationTile(t, kind, rb, re, 0, cols);
  });
}

float ActivationGradScalar(ActivationKind kind, float x) {
  switch (kind) {
    case ActivationKind::kGelu: {
      // d/dx of the tanh approximation used by GeluScalar.
      constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
      const float x3 = x * x * x;
      const float inner = kC * (x + 0.044715f * x3);
      const float t = std::tanh(inner);
      const float sech2 = 1.0f - t * t;
      const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
      return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
    }
    case ActivationKind::kSilu: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f + x * (1.0f - s));
    }
    case ActivationKind::kRelu:
      return x > 0.0f ? 1.0f : 0.0f;
    case ActivationKind::kIdentity:
      return 1.0f;
  }
  COMET_CHECK(false) << "unknown activation kind";
  return 0.0f;
}

void ApplyActivationGradTile(Tensor& grad, const Tensor& pre,
                             ActivationKind kind, int64_t row_begin,
                             int64_t row_end, int64_t col_begin,
                             int64_t col_end) {
  COMET_CHECK_EQ(grad.shape().rank(), 2u);
  COMET_CHECK(grad.shape() == pre.shape())
      << "activation grad/pre shape mismatch";
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, grad.rows());
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, grad.cols());
  if (kind == ActivationKind::kIdentity) {
    return;
  }
  // f32 multiply, round on store at 2-byte dtypes (per-element pure; see
  // ApplyActivationTile). act' comes from the table of `pre`'s dtype.
  const DType dtype = grad.dtype();
  WithTable(TableKind::kGrad, kind, pre.dtype(),
            [&](auto pre_dtype_constant, const float* table) {
              constexpr DType kPreDType = decltype(pre_dtype_constant)::value;
              const auto scalar = [&](float x) {
                return ActivationGradScalar(kind, x);
              };
              for (int64_t r = row_begin; r < row_end; ++r) {
                auto grow = grad.row(r);
                const auto prow = pre.row(r);
                for (int64_t c = col_begin; c < col_end; ++c) {
                  float& g = grow[static_cast<size_t>(c)];
                  g *= Lookup<kPreDType>(table, prow[static_cast<size_t>(c)],
                                         scalar);
                  if (dtype != DType::kF32) {
                    g = QuantizeScalar(g, dtype);
                  }
                }
              }
            });
}

void ApplyActivationGrad(Tensor& grad, const Tensor& pre,
                         ActivationKind kind) {
  const int64_t cols = grad.cols();
  ParallelForChunks(0, grad.rows(), 16, [&](int64_t rb, int64_t re) {
    ApplyActivationGradTile(grad, pre, kind, rb, re, 0, cols);
  });
}

}  // namespace comet
