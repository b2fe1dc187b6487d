/**
 * @file
 * Kernels whose per-element op order is pinned bit for bit: the
 * blocked C = A * B GEMM (the dIn = gradOut * W backward pass), the
 * LeakyReLU loops and the Adam update.
 *
 * This TU is built with -ffp-contract=off (see
 * src/tensor/CMakeLists.txt), so the compiler never fuses a multiply
 * into an add on its own: every fused multiply-add below is spelled
 * _mm256_fmadd_pd or std::fma, and every other mul, add, div and sqrt
 * rounds on its own, identically in scalar and SIMD lanes. The
 * vector bodies therefore give the same bits as the scalar loops
 * they replaced (see docs/PERFORMANCE.md for each kernel's contract
 * and tests/tensor/test_kernels.cc, tests/nn/test_optim.cc for the
 * scalar oracles).
 */

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/kernels_detail.hh"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define VAESA_EXACT_AVX2 1
#endif

#define VAESA_RESTRICT __restrict__

namespace vaesa::kernels {

namespace {

// ---------------------------------------------------------------- //
// Blocked C = A * B over 4 x 8 register tiles. The op order of one
// element (c[i][j] starts at c or 0 and adds a[i][kk] * b[kk][j]
// k-ascending) depends only on its tile:
//  - full 4 x 8 tile: the first k - k % 2 products are rounded, then
//    added; when k is odd the last product is fused.
//  - edge tile (fewer than 4 rows or 8 columns): every product is
//    fused.
// ---------------------------------------------------------------- //

#ifdef VAESA_EXACT_AVX2

/** Full 4 x 8 tile: 4 rows x 2 ymm accumulators, broadcast A, B rows
 *  loaded contiguously. a: 4 rows, stride k; b/c: stride n. */
inline void
gemmTileFull(std::size_t k, std::size_t n,
             const double *VAESA_RESTRICT a,
             const double *VAESA_RESTRICT b,
             double *VAESA_RESTRICT c, bool accumulate)
{
    __m256d acc[kTileRows][2];
    for (std::size_t r = 0; r < kTileRows; ++r)
        for (std::size_t h = 0; h < 2; ++h)
            acc[r][h] = accumulate ? _mm256_loadu_pd(c + r * n + 4 * h)
                                   : _mm256_setzero_pd();
    const std::size_t k_even = k - k % 2;
    for (std::size_t kk = 0; kk < k_even; ++kk) {
        const __m256d b0 = _mm256_loadu_pd(b + kk * n);
        const __m256d b1 = _mm256_loadu_pd(b + kk * n + 4);
        for (std::size_t r = 0; r < kTileRows; ++r) {
            const __m256d x = _mm256_broadcast_sd(a + r * k + kk);
            acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(x, b0));
            acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(x, b1));
        }
    }
    if (k_even != k) {
        const __m256d b0 = _mm256_loadu_pd(b + k_even * n);
        const __m256d b1 = _mm256_loadu_pd(b + k_even * n + 4);
        for (std::size_t r = 0; r < kTileRows; ++r) {
            const __m256d x = _mm256_broadcast_sd(a + r * k + k_even);
            acc[r][0] = _mm256_fmadd_pd(x, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_pd(x, b1, acc[r][1]);
        }
    }
    for (std::size_t r = 0; r < kTileRows; ++r)
        for (std::size_t h = 0; h < 2; ++h)
            _mm256_storeu_pd(c + r * n + 4 * h, acc[r][h]);
}

/** Edge tile: RI rows (<= 4) x rj columns (<= 8) via lane masks, every
 *  product fused. Masked-off lanes are never loaded or stored. */
template <std::size_t RI>
inline void
gemmTileEdgeRows(std::size_t rj, std::size_t k, std::size_t n,
                 const double *VAESA_RESTRICT a,
                 const double *VAESA_RESTRICT b,
                 double *VAESA_RESTRICT c, bool accumulate)
{
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const auto cols = static_cast<long long>(rj);
    const __m256i mask[2] = {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(cols), lane),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(cols - 4), lane)};
    __m256d acc[RI][2];
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t h = 0; h < 2; ++h)
            acc[r][h] = accumulate
                            ? _mm256_maskload_pd(c + r * n + 4 * h,
                                                 mask[h])
                            : _mm256_setzero_pd();
    for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d b0 = _mm256_maskload_pd(b + kk * n, mask[0]);
        const __m256d b1 = _mm256_maskload_pd(b + kk * n + 4, mask[1]);
        for (std::size_t r = 0; r < RI; ++r) {
            const __m256d x = _mm256_broadcast_sd(a + r * k + kk);
            acc[r][0] = _mm256_fmadd_pd(x, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_pd(x, b1, acc[r][1]);
        }
    }
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t h = 0; h < 2; ++h)
            _mm256_maskstore_pd(c + r * n + 4 * h, mask[h], acc[r][h]);
}

inline void
gemmTileEdge(std::size_t ri, std::size_t rj, std::size_t k,
             std::size_t n, const double *VAESA_RESTRICT a,
             const double *VAESA_RESTRICT b,
             double *VAESA_RESTRICT c, bool accumulate)
{
    switch (ri) {
    case 1:
        gemmTileEdgeRows<1>(rj, k, n, a, b, c, accumulate);
        break;
    case 2:
        gemmTileEdgeRows<2>(rj, k, n, a, b, c, accumulate);
        break;
    case 3:
        gemmTileEdgeRows<3>(rj, k, n, a, b, c, accumulate);
        break;
    default:
        gemmTileEdgeRows<kTileRows>(rj, k, n, a, b, c, accumulate);
        break;
    }
}

#else // !VAESA_EXACT_AVX2

/** Portable ri x rj tile: products before kk = unfused_k are rounded,
 *  then added; the rest are fused with std::fma. */
inline void
gemmTileScalar(std::size_t ri, std::size_t rj, std::size_t unfused_k,
               std::size_t k, std::size_t n,
               const double *VAESA_RESTRICT a,
               const double *VAESA_RESTRICT b,
               double *VAESA_RESTRICT c, bool accumulate)
{
    double acc[kTileRows][kTileCols];
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double *VAESA_RESTRICT b_row = b + kk * n;
        for (std::size_t r = 0; r < ri; ++r) {
            const double x = a[r * k + kk];
            for (std::size_t t = 0; t < rj; ++t)
                acc[r][t] = kk < unfused_k
                                ? acc[r][t] + x * b_row[t]
                                : std::fma(x, b_row[t], acc[r][t]);
        }
    }
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            c[r * n + t] = acc[r][t];
}

inline void
gemmTileFull(std::size_t k, std::size_t n,
             const double *VAESA_RESTRICT a,
             const double *VAESA_RESTRICT b,
             double *VAESA_RESTRICT c, bool accumulate)
{
    gemmTileScalar(kTileRows, kTileCols, k - k % 2, k, n, a, b, c,
                   accumulate);
}

inline void
gemmTileEdge(std::size_t ri, std::size_t rj, std::size_t k,
             std::size_t n, const double *VAESA_RESTRICT a,
             const double *VAESA_RESTRICT b,
             double *VAESA_RESTRICT c, bool accumulate)
{
    gemmTileScalar(ri, rj, 0, k, n, a, b, c, accumulate);
}

#endif // VAESA_EXACT_AVX2

} // namespace

void
detail::gemmBlocked(std::size_t i0, std::size_t i1, std::size_t n,
                    std::size_t k, const double *a, const double *b,
                    double *c, bool accumulate)
{
    for (std::size_t i = i0; i < i1; i += kTileRows) {
        const std::size_t ri = std::min(kTileRows, i1 - i);
        for (std::size_t j = 0; j < n; j += kTileCols) {
            const std::size_t rj = std::min(kTileCols, n - j);
            const double *a_tile = a + i * k;
            const double *b_tile = b + j;
            double *c_tile = c + i * n + j;
            if (ri == kTileRows && rj == kTileCols)
                gemmTileFull(k, n, a_tile, b_tile, c_tile, accumulate);
            else
                gemmTileEdge(ri, rj, k, n, a_tile, b_tile, c_tile,
                             accumulate);
        }
    }
}

// The LeakyReLU bodies select instead of branching: the sign of
// activations is random, so a branch per element mispredicts. Both
// sides of the select are computed exactly as the branchy loop
// computed them, so ±0, ±Inf, NaN and subnormals keep their bits.

void
leakyReluForward(double *x, std::size_t n, double slope)
{
    std::size_t i = 0;
#ifdef VAESA_EXACT_AVX2
    const __m256d s = _mm256_set1_pd(slope);
    const __m256d zero = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(x + i);
        const __m256d pos = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
        _mm256_storeu_pd(x + i,
                         _mm256_blendv_pd(_mm256_mul_pd(v, s), v, pos));
    }
#endif
    for (; i < n; ++i)
        x[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

void
leakyReluBackward(double *grad, const double *out, std::size_t n,
                  double slope)
{
    std::size_t i = 0;
#ifdef VAESA_EXACT_AVX2
    const __m256d s = _mm256_set1_pd(slope);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d zero = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
        const __m256d pos =
            _mm256_cmp_pd(_mm256_loadu_pd(out + i), zero, _CMP_GT_OQ);
        _mm256_storeu_pd(grad + i,
                         _mm256_mul_pd(_mm256_loadu_pd(grad + i),
                                       _mm256_blendv_pd(s, one, pos)));
    }
#endif
    for (; i < n; ++i)
        grad[i] *= out[i] > 0.0 ? 1.0 : slope;
}

void
adamUpdate(std::size_t n, double *VAESA_RESTRICT w,
           double *VAESA_RESTRICT m, double *VAESA_RESTRICT v,
           const double *VAESA_RESTRICT g, const AdamStep &step)
{
    // Locals, so the vectorizer need not reload them after each store.
    const double lr = step.lr;
    const double beta1 = step.beta1;
    const double beta2 = step.beta2;
    const double eps = step.eps;
    const double bc1 = step.bc1;
    const double bc2 = step.bc2;
    for (std::size_t k = 0; k < n; ++k) {
        m[k] = beta1 * m[k] + (1.0 - beta1) * g[k];
        v[k] = beta2 * v[k] + (1.0 - beta2) * g[k] * g[k];
        const double m_hat = m[k] / bc1;
        const double v_hat = v[k] / bc2;
        w[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
}

} // namespace vaesa::kernels
