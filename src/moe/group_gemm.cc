#include "moe/group_gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// Register-blocked microkernel geometry: each inner block accumulates an
// MR x NR patch of C in registers (NR floats = one AVX-512 or two AVX2
// vectors), streaming A broadcasts against a k x NR panel of B. The NN
// kernel blocks kMR = 8 rows (8 AVX-512 accumulators); the TN kernel keeps
// 4-row blocks.
constexpr int64_t kMR = 8;
constexpr int64_t kTnMR = 4;
constexpr int64_t kNR = 16;

// One NR-wide accumulator/operand row. GCC/Clang vector extension rather
// than auto-vectorization: the explicit type pins the accumulators into
// vector registers (plain acc[4][16] arrays tempted GCC into outer-loop
// vectorization with stack-resident accumulators -- 6x slower). aligned(4)
// permits loads straight from row-major tensor storage. On targets without
// wide SIMD the compiler lowers the ops to narrower vectors; lane semantics
// (and therefore results) are identical everywhere.
typedef float Vec __attribute__((vector_size(kNR * sizeof(float)),
                                 aligned(alignof(float))));

inline const Vec& LoadVec(const float* p) {
  return *reinterpret_cast<const Vec*>(p);
}

// Row grain for the whole-matrix parallel wrappers: below this many rows per
// chunk the dispatch overhead beats the win.
constexpr int64_t kRowGrain = 8;

// The mixed-precision store: rounds the C region a kernel just produced to
// C's dtype (RNE). This is the tensor-core contract -- low-precision inputs,
// f32 accumulate, round once on store. The NN kernel rounds each block as it
// stores it (NNBlock); the NT/TN kernels round in this second pass.
// Per-element rounding of a value that is itself a pure function of
// coordinates keeps the whole-vs-tiled and 1-vs-N-thread bit-exactness
// guarantees at every dtype. No-op for f32.
void QuantizeStore(Tensor& c, int64_t row_begin, int64_t row_end,
                   int64_t col_begin, int64_t col_end) {
  const DType dtype = c.dtype();
  if (dtype == DType::kF32) {
    return;
  }
  float* data = c.data().data();
  const int64_t n = c.cols();
  for (int64_t i = row_begin; i < row_end; ++i) {
    QuantizeSpan(std::span<float>(data + i * n + col_begin,
                                  static_cast<size_t>(col_end - col_begin)),
                 dtype);
  }
}

// Bf16ToF32(F32ToBf16(x)) on every lane (tensor/dtype.cc): RNE on the upper
// 16 bits, and a NaN keeps its sign and top payload bits with the quiet bit
// forced, so it can never round to an infinity.
Vec RoundToBf16(const Vec& v) {
  typedef uint32_t UVec __attribute__((vector_size(sizeof(Vec))));
  UVec bits{};
  std::memcpy(&bits, &v, sizeof(Vec));
  const UVec rounded = (bits + 0x7fffu + ((bits >> 16) & 1u)) & 0xffff0000u;
  const UVec nan = (bits & 0xffff0000u) | 0x00400000u;
  const UVec out = (bits & 0x7fffffffu) > 0x7f800000u ? nan : rounded;
  Vec result{};
  std::memcpy(&result, &out, sizeof(Vec));
  return result;
}

// Per-thread packed B panel (k x kNR, zero-padded in the column direction)
// for a ragged last column chunk. Thread-local so tile kernels stay
// reentrant across pool workers.
std::vector<float>& PanelScratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

// ---- NN: C[i, j] = sum_p A[i, p] * B[p, j] ---------------------------------
//
// Accumulation order per C element is p-ascending with a single chain from
// +0.0, a pure function of (i, j, k): independent of the tile bounds and of
// the (row, column) blocking below, so whole-vs-tiled and 1-vs-N-thread runs
// are bit-identical. The old kernel's `a_ip == 0.0f` skip is gone on purpose:
// the branch broke vectorization and cost more on dense data than it ever
// saved on sparse (see bench/micro_groupgemm).
//
// One R x kNR block of C: rows [0, R) of `a` (row stride k) against the
// k x kNR panel at `panel` (row stride `ldb`), storing the first `width`
// lanes of each row at `c` (row stride n), rounded to `dtype`. R is a
// template parameter so every block size, the 1-7 row leftovers included,
// keeps its accumulators in registers.
template <int R>
void NNBlock(const float* a, const float* panel, int64_t ldb, float* c,
             int64_t k, int64_t n, int64_t width, DType dtype) {
  Vec acc[R] = {};
  for (int64_t p = 0; p < k; ++p) {
    const Vec bp = LoadVec(panel + p * ldb);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      acc[r] += a[r * k + p] * bp;
    }
  }
  for (int r = 0; r < R; ++r) {
    const Vec out = dtype == DType::kBF16 ? RoundToBf16(acc[r]) : acc[r];
    float* c_row = c + r * n;
    if (width == kNR) {
      std::memcpy(c_row, &out, sizeof(Vec));
    } else {
      for (int64_t t = 0; t < width; ++t) {
        c_row[t] = out[t];
      }
    }
    if (dtype == DType::kF16) {
      QuantizeSpan(std::span<float>(c_row, static_cast<size_t>(width)),
                   dtype);
    }
  }
}

void NNLeftoverBlock(int rows, const float* a, const float* panel,
                     int64_t ldb, float* c, int64_t k, int64_t n,
                     int64_t width, DType dtype) {
  switch (rows) {
    case 1: return NNBlock<1>(a, panel, ldb, c, k, n, width, dtype);
    case 2: return NNBlock<2>(a, panel, ldb, c, k, n, width, dtype);
    case 3: return NNBlock<3>(a, panel, ldb, c, k, n, width, dtype);
    case 4: return NNBlock<4>(a, panel, ldb, c, k, n, width, dtype);
    case 5: return NNBlock<5>(a, panel, ldb, c, k, n, width, dtype);
    case 6: return NNBlock<6>(a, panel, ldb, c, k, n, width, dtype);
    case 7: return NNBlock<7>(a, panel, ldb, c, k, n, width, dtype);
  }
}

void GemmTileImpl(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t row_begin, int64_t row_end,
                  int64_t col_begin, int64_t col_end, DType dtype) {
  const int64_t full_rows = row_begin + (row_end - row_begin) / kMR * kMR;
  for (int64_t jj = col_begin; jj < col_end; jj += kNR) {
    const int64_t width = std::min(kNR, col_end - jj);
    // A full-width chunk reads B -- the static expert weight -- in place.
    // Only a ragged last chunk packs its k x width panel, zero-padded so the
    // full-width loads never read past the logical columns.
    const float* panel = b + jj;
    int64_t ldb = n;
    if (width < kNR) {
      std::vector<float>& scratch = PanelScratch();
      scratch.resize(static_cast<size_t>(k * kNR));
      float* pk = scratch.data();
      for (int64_t p = 0; p < k; ++p) {
        const float* b_row = b + p * n + jj;
        float* dst = pk + p * kNR;
        for (int64_t t = 0; t < width; ++t) {
          dst[t] = b_row[t];
        }
        for (int64_t t = width; t < kNR; ++t) {
          dst[t] = 0.0f;
        }
      }
      panel = pk;
      ldb = kNR;
    }
    for (int64_t ii = row_begin; ii < full_rows; ii += kMR) {
      NNBlock<kMR>(a + ii * k, panel, ldb, c + ii * n + jj, k, n, width,
                   dtype);
    }
    if (full_rows < row_end) {
      NNLeftoverBlock(static_cast<int>(row_end - full_rows),
                      a + full_rows * k, panel, ldb, c + full_rows * n + jj,
                      k, n, width, dtype);
    }
  }
}

// ---- NT: C[i, j] = dot(A row i, B row j) -----------------------------------
//
// The dot runs kNR independent accumulator lanes over p (lane l takes
// p = l, l + kNR, ...), combined by a fixed binary tree. The lane split and
// the combine order depend only on k, never on the tile bounds, so the
// whole-vs-tiled bit-exactness contract holds. Lanes auto-vectorize to one
// fused multiply-add per kNR elements.
float DotLanes(const float* a, const float* b, int64_t k) {
  Vec acc{};
  const int64_t k_main = k - (k % kNR);
  for (int64_t p = 0; p < k_main; p += kNR) {
    acc += LoadVec(a + p) * LoadVec(b + p);
  }
  for (int64_t p = k_main; p < k; ++p) {
    acc[p - k_main] += a[p] * b[p];
  }
  float lanes[kNR];
  for (int64_t l = 0; l < kNR; ++l) {
    lanes[l] = acc[l];
  }
  for (int64_t stride = kNR / 2; stride > 0; stride /= 2) {
    for (int64_t l = 0; l < stride; ++l) {
      lanes[l] += lanes[l + stride];
    }
  }
  return lanes[0];
}

void GemmNTTileImpl(const float* a, const float* b, float* c, int64_t k,
                    int64_t n, int64_t row_begin, int64_t row_end,
                    int64_t col_begin, int64_t col_end) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = col_begin; j < col_end; ++j) {
      c_row[j] = DotLanes(a_row, b + j * k, k);
    }
  }
}

// ---- TN: C[q, j] = sum_i A[i, q] * B[i, j] ---------------------------------
//
// The i reduction always runs over the full [0, m) in ascending order with a
// single chain per C element (held in the register block), so splitting the
// output rows/cols across tiles or threads never reorders a sum.
void GemmTNTileImpl(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, int64_t row_begin, int64_t row_end,
                    int64_t col_begin, int64_t col_end) {
  for (int64_t jj = col_begin; jj < col_end; jj += kNR) {
    const int64_t width = std::min(kNR, col_end - jj);
    for (int64_t qq = row_begin; qq < row_end; qq += kTnMR) {
      const int64_t rows = std::min(kTnMR, row_end - qq);
      if (rows == kTnMR && width == kNR) {
        Vec acc0{}, acc1{}, acc2{}, acc3{};
        for (int64_t i = 0; i < m; ++i) {
          const float* a_row = a + i * k + qq;
          const Vec bp = LoadVec(b + i * n + jj);
          acc0 += a_row[0] * bp;
          acc1 += a_row[1] * bp;
          acc2 += a_row[2] * bp;
          acc3 += a_row[3] * bp;
        }
        const Vec* accs[kTnMR] = {&acc0, &acc1, &acc2, &acc3};
        for (int64_t r = 0; r < kTnMR; ++r) {
          float* c_row = c + (qq + r) * n + jj;
          for (int64_t t = 0; t < kNR; ++t) {
            c_row[t] = (*accs[r])[t];
          }
        }
      } else {
        // Edge block: scalar accumulators, same per-element i-ascending
        // chain (partial-width vector loads would read past the B row).
        float acc[kTnMR][kNR] = {};
        for (int64_t i = 0; i < m; ++i) {
          const float* bp = b + i * n + jj;
          for (int64_t r = 0; r < rows; ++r) {
            const float v = a[i * k + qq + r];
            for (int64_t t = 0; t < width; ++t) {
              acc[r][t] += v * bp[t];
            }
          }
        }
        for (int64_t r = 0; r < rows; ++r) {
          float* c_row = c + (qq + r) * n + jj;
          for (int64_t t = 0; t < width; ++t) {
            c_row[t] = acc[r][t];
          }
        }
      }
    }
  }
}

}  // namespace

void GemmTile(const Tensor& a, const Tensor& b, Tensor& c, int64_t row_begin,
              int64_t row_end, int64_t col_begin, int64_t col_end) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  COMET_CHECK_EQ(b.rows(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, m);
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, n);
  COMET_CHECK_LE(row_begin, row_end);
  COMET_CHECK_LE(col_begin, col_end);

  GemmTileImpl(a.data().data(), b.data().data(), c.data().data(), k, n,
               row_begin, row_end, col_begin, col_end, c.dtype());
}

void Gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  COMET_CHECK_EQ(b.rows(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  const float* a_data = a.data().data();
  const float* b_data = b.data().data();
  float* c_data = c.data().data();
  // Row partition of C: chunks write disjoint rows, so the parallel run is
  // bit-identical to the serial one at any thread count.
  ParallelForChunks(0, m, kRowGrain, [&](int64_t rb, int64_t re) {
    GemmTileImpl(a_data, b_data, c_data, k, n, rb, re, 0, n, c.dtype());
  });
}

void GemmNTTile(const Tensor& a, const Tensor& b, Tensor& c,
                int64_t row_begin, int64_t row_end, int64_t col_begin,
                int64_t col_end) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  COMET_CHECK_EQ(b.cols(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, m);
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, n);

  GemmNTTileImpl(a.data().data(), b.data().data(), c.data().data(), k, n,
                 row_begin, row_end, col_begin, col_end);
  QuantizeStore(c, row_begin, row_end, col_begin, col_end);
}

void GemmNT(const Tensor& a, const Tensor& b, Tensor& c) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  COMET_CHECK_EQ(b.cols(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  const float* a_data = a.data().data();
  const float* b_data = b.data().data();
  float* c_data = c.data().data();
  ParallelForChunks(0, m, kRowGrain, [&](int64_t rb, int64_t re) {
    GemmNTTileImpl(a_data, b_data, c_data, k, n, rb, re, 0, n);
    QuantizeStore(c, rb, re, 0, n);
  });
}

void GemmTN(const Tensor& a, const Tensor& b, Tensor& c) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  COMET_CHECK_EQ(b.rows(), m);
  COMET_CHECK_EQ(c.rows(), k);
  COMET_CHECK_EQ(c.cols(), n);
  const float* a_data = a.data().data();
  const float* b_data = b.data().data();
  float* c_data = c.data().data();
  // Partition over OUTPUT rows q; the i reduction inside each chunk still
  // covers all of [0, m) in order, so determinism is untouched.
  ParallelForChunks(0, k, kRowGrain, [&](int64_t rb, int64_t re) {
    GemmTNTileImpl(a_data, b_data, c_data, m, k, n, rb, re, 0, n);
    QuantizeStore(c, rb, re, 0, n);
  });
}

std::vector<GemmTileCoord> EnumerateTiles(const GroupGemmProblem& problem,
                                          int64_t tile_m, int64_t tile_n) {
  COMET_CHECK_GT(tile_m, 0);
  COMET_CHECK_GT(tile_n, 0);
  COMET_CHECK_EQ(problem.a.size(), problem.b.size());
  COMET_CHECK_EQ(problem.a.size(), problem.c.size());
  std::vector<GemmTileCoord> tiles;
  for (size_t g = 0; g < problem.a.size(); ++g) {
    const int64_t m = problem.a[g]->rows();
    const int64_t n = problem.b[g]->cols();
    for (int64_t r = 0; r < m; r += tile_m) {
      for (int64_t cc = 0; cc < n; cc += tile_n) {
        tiles.push_back(GemmTileCoord{static_cast<int64_t>(g), r,
                                      std::min(r + tile_m, m), cc,
                                      std::min(cc + tile_n, n)});
      }
    }
  }
  return tiles;
}

void WarmGemmScratch(int64_t max_k) {
  COMET_CHECK_GE(max_k, 0);
  std::vector<float>& panel = PanelScratch();
  const size_t need = static_cast<size_t>(max_k * kNR);
  if (panel.capacity() < need) {
    panel.reserve(need);
  }
}

void RunTile(const GroupGemmProblem& problem, const GemmTileCoord& tile) {
  COMET_CHECK_GE(tile.group, 0);
  COMET_CHECK_LT(static_cast<size_t>(tile.group), problem.a.size());
  const size_t g = static_cast<size_t>(tile.group);
  GemmTile(*problem.a[g], *problem.b[g], *problem.c[g], tile.row_begin,
           tile.row_end, tile.col_begin, tile.col_end);
}

void RunGroupGemm(const GroupGemmProblem& problem,
                  const std::vector<GemmTileCoord>& tiles) {
  // Tiles partition the grouped C disjointly (each output element belongs to
  // exactly one tile), so dispatching them across the pool is numerically
  // free -- the paper's §3.1 tile-independence claim re-expressed on CPU.
  ParallelFor(0, static_cast<int64_t>(tiles.size()), 1, [&](int64_t t) {
    RunTile(problem, tiles[static_cast<size_t>(t)]);
  });
}

}  // namespace comet
