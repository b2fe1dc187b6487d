/**
 * @file
 * Dense linear-algebra kernels for the Gaussian-process layer: Cholesky
 * factorization of SPD matrices, triangular solves, and SPD system
 * solves with adaptive jitter.
 */

#ifndef VAESA_TENSOR_LINALG_HH
#define VAESA_TENSOR_LINALG_HH

#include <vector>

#include "tensor/matrix.hh"

namespace vaesa {

/**
 * Cholesky factor of a symmetric positive-definite matrix. Only the
 * lower triangle of a is read.
 *
 * Every L(i,j) is a(i,j) minus L(i,k) L(j,k) summed in k-ascending
 * order, divided by L(j,j) (or square-rooted on the diagonal), so the
 * factor is bitwise reproducible across builds that do not contract
 * the multiply-subtract into an FMA (linalg.cc is built with
 * -ffp-contract=off).
 *
 * @param a square SPD matrix.
 * @param lower output: lower-triangular L with a = L L^T; unspecified
 *        on failure.
 * @return true on success, false at the first pivot that is not
 *         positive and finite (a is not numerically SPD, or holds a
 *         NaN/Inf).
 */
bool cholesky(const Matrix &a, Matrix &lower);

/**
 * Forward substitution for many right-hand sides at once, in place:
 * b (n x m, one right-hand side per column) becomes L^{-1} b. Each
 * column gets exactly solveLower's op order (k-ascending, no FMA), so
 * a column's result does not depend on how many columns ride along.
 */
void solveLowerInPlace(const Matrix &lower, Matrix &b);

/** Solve L y = b for lower-triangular L (forward substitution): a
 *  solveLowerInPlace() of one column. */
std::vector<double> solveLower(const Matrix &lower,
                               const std::vector<double> &b);

/** Solve L^T x = y for lower-triangular L (back substitution). */
std::vector<double> solveLowerTransposed(const Matrix &lower,
                                         const std::vector<double> &y);

/**
 * Solve A x = b for SPD A via Cholesky, adding diagonal jitter in
 * decade steps (starting at 1e-10 * mean diagonal) until the
 * factorization succeeds.
 *
 * @param a SPD matrix (copied internally; not modified).
 * @param b right-hand side.
 * @param jitter_out optional: receives the jitter that was required.
 */
std::vector<double> solveSpd(const Matrix &a, const std::vector<double> &b,
                             double *jitter_out = nullptr);

/**
 * Cholesky with adaptive jitter; panics if even large jitter fails.
 * Returns the jitter used.
 */
double choleskyJittered(const Matrix &a, Matrix &lower);

/** Dot product of equal-length vectors. */
double dot(const std::vector<double> &a, const std::vector<double> &b);

/** Squared Euclidean distance between equal-length vectors. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

} // namespace vaesa

#endif // VAESA_TENSOR_LINALG_HH
