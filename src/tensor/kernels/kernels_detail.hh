/**
 * @file
 * Private splits of the GEMM layer: the per-row-range kernel bodies
 * shared between the public dispatch (kernels.cc), the naive
 * reference translation unit (kernels_naive.cc) and the pinned-order
 * blocked A * B body (kernels_exact.cc).
 *
 * The naive bodies live in their own TU built at the project's
 * baseline optimization level, so VAESA_KERNEL=naive reproduces the
 * pre-kernel-layer numerics exactly; the blocked bodies are compiled
 * with the tuned per-file flags (see src/tensor/CMakeLists.txt).
 *
 * All ranges are [i0, i1) over output rows; matrices are dense
 * row-major doubles and outputs never alias inputs.
 */

#ifndef VAESA_TENSOR_KERNELS_KERNELS_DETAIL_HH
#define VAESA_TENSOR_KERNELS_KERNELS_DETAIL_HH

#include <cstddef>

namespace vaesa::kernels {

/** Register-tile extents of the blocked micro-kernels. */
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

} // namespace vaesa::kernels

namespace vaesa::kernels::detail {

/** Rows [i0, i1) of C (m x n) = A (m x k) * B (k x n). */
void gemmNaive(std::size_t i0, std::size_t i1, std::size_t n,
               std::size_t k, const double *a, const double *b,
               double *c, bool accumulate);

/** Blocked rows [i0, i1) of C = A * B over 4 x 8 tiles; i0 must be
 *  a multiple of kTileRows (the tile op-order rule depends on it). */
void gemmBlocked(std::size_t i0, std::size_t i1, std::size_t n,
                 std::size_t k, const double *a, const double *b,
                 double *c, bool accumulate);

/** Rows [i0, i1) of C (m x n) = A^T * B, A stored (k x m). */
void gemmTransANaive(std::size_t i0, std::size_t i1, std::size_t n,
                     std::size_t k, std::size_t m, const double *a,
                     const double *b, double *c, bool accumulate);

/** Rows [i0, i1) of C (m x n) = A (m x k) * B^T, B stored (n x k). */
void gemmTransBNaive(std::size_t i0, std::size_t i1, std::size_t n,
                     std::size_t k, const double *a, const double *b,
                     double *c, bool accumulate);

} // namespace vaesa::kernels::detail

#endif // VAESA_TENSOR_KERNELS_KERNELS_DETAIL_HH
