// Elementwise activations applied between the two expert feed-forward layers.
#pragma once

#include "tensor/tensor.h"

namespace comet {

enum class ActivationKind {
  kGelu,  // tanh approximation (the variant used by the evaluated models)
  kSilu,
  kRelu,
  kIdentity,
};

// Applies the activation in place over the whole tensor.
//
// Lookup tables. At kBF16 and kF16 every representable input is one of 65,536
// bit patterns, so the 2-byte paths read the result from a table per
// (kind, dtype) indexed by the input's pattern: the forward table holds
// exactly what the scalar path stores (GeluScalar / SiluScalar / ReLU in f32,
// then QuantizeScalar), the backward table ActivationGradScalar in f32. Each
// table (256 KiB) is filled at run time by those same scalar functions -- so
// with this binary's libm -- once per process on first use of its
// (kind, dtype), thread-safely; only tables actually used are built. The
// outputs are therefore bit-identical to the scalar path for every input,
// NaNs, infinities, signed zeros and subnormals included.
//
// Fallback: tensors allow unrounded raw writes (tensor/tensor.h), so an
// element whose f32 bits are not a 16-bit value takes the scalar path. At
// kBF16 that is any value with nonzero low 16 bits; at kF16 any x with
// F16ToF32(F32ToF16(x)) not bitwise x. kF32 always runs the scalar loop.
void ApplyActivation(Tensor& t, ActivationKind kind);

// Builds the forward table of (kind, dtype) now if it is not built yet
// (allocates; a no-op at kF32 or kIdentity). Serving calls it at setup so
// that no steady-state iteration ever builds one.
void PrepareActivationTable(ActivationKind kind, DType dtype);

// Applies the activation in place over rows [row_begin, row_end) x cols
// [col_begin, col_end) only; used by tile-granular executors.
void ApplyActivationTile(Tensor& t, ActivationKind kind, int64_t row_begin,
                         int64_t row_end, int64_t col_begin, int64_t col_end);

// Scalar versions, exposed for tests.
float GeluScalar(float x);
float SiluScalar(float x);

// Derivative of the activation at pre-activation value `x`.
float ActivationGradScalar(ActivationKind kind, float x);

// Backward through the activation: grad[r, c] *= act'(pre[r, c]) over the
// tile, rounded on store to grad's dtype. `pre` holds the PRE-activation
// values (the GEMM output before the forward applied the activation in
// place); shapes must match. At a 2-byte `pre` dtype act' comes from the
// derivative table of (kind, pre's dtype), with the same fallback as the
// forward.
void ApplyActivationGradTile(Tensor& grad, const Tensor& pre,
                             ActivationKind kind, int64_t row_begin,
                             int64_t row_end, int64_t col_begin,
                             int64_t col_end);

// Whole-tensor convenience wrapper of ApplyActivationGradTile.
void ApplyActivationGrad(Tensor& grad, const Tensor& pre, ActivationKind kind);

}  // namespace comet
