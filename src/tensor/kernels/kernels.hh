/**
 * @file
 * Raw-pointer compute kernels behind the Matrix/nn hot path: GEMM in
 * the three orientations the MLPs need, a fused linear-layer forward,
 * column sums, and in-place activation forward/backward loops.
 *
 * Two GEMM implementations are provided and selected at runtime via
 * VAESA_KERNEL=naive|blocked (default blocked):
 *
 *  - naive: the reference triple loops, built in their own TU at the
 *    project's baseline flags so they reproduce the seed numerics bit
 *    for bit -- the ground truth for equivalence tests and A/B
 *    benchmarking.
 *  - blocked: register-tiled micro-kernels with restrict-qualified
 *    pointers and contiguous inner loops, compiled with tuned
 *    per-file flags (-O3, unrolling, AVX2+FMA on x86-64; see
 *    src/tensor/CMakeLists.txt). Each output element is accumulated
 *    in strictly increasing k order, but fused multiply-adds round
 *    once per a*b+c instead of twice, so blocked results may differ
 *    from naive in low-order bits. The equivalence tests bound that
 *    drift with an explicit relative tolerance (see
 *    docs/PERFORMANCE.md); NaN/Inf propagation is identical. A * B
 *    pins which products it fuses with a 4x8 tile rule; in A^T * B
 *    and the four-lane A * B^T the compiler chooses (the op-order
 *    contracts in docs/PERFORMANCE.md).
 *
 * Determinism contract: for a FIXED kernel choice, fixed inputs give
 * bit-identical outputs, run to run and thread count to thread count.
 * The optional ThreadPool row split assigns every output row to
 * exactly one task and never reduces across tasks, so pooled results
 * equal serial results exactly.
 *
 * This directory is the only place in the tree where raw SIMD
 * intrinsics or OpenMP pragmas may appear (enforced by tools/check);
 * everything else must go through these entry points.
 *
 * No output pointer may alias an input. All matrices are dense
 * row-major doubles, matching Matrix's storage.
 */

#ifndef VAESA_TENSOR_KERNELS_KERNELS_HH
#define VAESA_TENSOR_KERNELS_KERNELS_HH

#include <cstddef>

namespace vaesa {
class ThreadPool;
} // namespace vaesa

namespace vaesa::kernels {

/** Selectable GEMM implementation. */
enum class KernelKind
{
    /** Reference scalar triple loops. */
    Naive,

    /** Register-tiled loops (same k order as Naive, but FMA may
     *  shift low-order bits; deterministic for a fixed choice). */
    Blocked,
};

/**
 * The kernel selected by VAESA_KERNEL (read once, at first use) or by
 * the last setActiveKernel() call.
 */
KernelKind activeKernel();

/** Override the kernel choice at runtime (tests, benches). */
void setActiveKernel(KernelKind kind);

/** "naive" or "blocked". */
const char *kernelName(KernelKind kind);

/**
 * Attach a pool for row-block parallel GEMM; nullptr restores serial
 * execution. Only GEMMs with at least gemmParallelMinRows() output
 * rows fan out, each task owning a contiguous row range, so results
 * are bit-identical to serial. The caller must not issue GEMMs from
 * inside a task of the same pool (ThreadPool::parallelFor would
 * deadlock); library code therefore leaves this unset by default.
 */
void setGemmPool(ThreadPool *pool);

/** Currently attached pool (nullptr when serial). */
ThreadPool *gemmPool();

/**
 * Minimum output rows before a GEMM uses the attached pool; the
 * VAESA_GEMM_PAR_ROWS env var (default 256) sets the initial value.
 */
std::size_t gemmParallelMinRows();

/** Override the parallel row threshold (tests, benches). */
void setGemmParallelMinRows(std::size_t rows);

/**
 * C (m x n) = A (m x k) * B (k x n).
 * @param accumulate when true, add into C instead of overwriting.
 */
void gemm(std::size_t m, std::size_t n, std::size_t k, const double *a,
          const double *b, double *c, bool accumulate = false);

/**
 * C (m x n) = A^T * B with A given untransposed as (k x m);
 * B is (k x n). The weight-gradient orientation.
 */
void gemmTransA(std::size_t m, std::size_t n, std::size_t k,
                const double *a, const double *b, double *c,
                bool accumulate = false);

/**
 * C (m x n) = A * B^T with B given untransposed as (n x k);
 * A is (m x k). The forward orientation for (out x in) weights.
 */
void gemmTransB(std::size_t m, std::size_t n, std::size_t k,
                const double *a, const double *b, double *c,
                bool accumulate = false);

/**
 * Fused affine forward: Y (batch x out) = X (batch x in) * W^T + b,
 * with W (out x in) and b length out. One pass over Y: the bias
 * seeds the accumulators instead of a second broadcast sweep.
 */
void linearForward(std::size_t batch, std::size_t in, std::size_t out,
                   const double *x, const double *w, const double *b,
                   double *y);

/** sums[c] += sum over rows of x[r][c]; x is (rows x cols). */
void addColSums(const double *x, std::size_t rows, std::size_t cols,
                double *sums);

/** In place: x[i] = x[i] > 0 ? x[i] : slope * x[i]. */
void leakyReluForward(double *x, std::size_t n, double slope);

/**
 * In place: grad[i] *= (out[i] > 0 ? 1 : slope), where out is the
 * matching forward OUTPUT. Valid because LeakyReLU with slope in
 * (0, 1] is sign-preserving, so out > 0 iff in > 0 and the two
 * passes branch identically (including at exactly 0 and for NaN).
 */
void leakyReluBackward(double *grad, const double *out, std::size_t n,
                       double slope);

/** Per-step Adam coefficients; bc1/bc2 are the bias corrections
 *  1 - beta1^t and 1 - beta2^t. */
struct AdamStep
{
    double lr;
    double beta1;
    double beta2;
    double eps;
    double bc1;
    double bc2;
};

/**
 * One Adam update of n parameters in place, element by element:
 * m = beta1 m + (1 - beta1) g; v = beta2 v + (1 - beta2) g g;
 * w -= lr (m / bc1) / (sqrt(v / bc2) + eps). Every op rounds on its
 * own (no fusion), so the vector body matches the scalar loop bit
 * for bit. No pointer may alias another.
 */
void adamUpdate(std::size_t n, double *w, double *m, double *v,
                const double *g, const AdamStep &step);

/** In place: x[i] = 1 / (1 + exp(-x[i])). */
void sigmoidForward(double *x, std::size_t n);

/** In place: grad[i] *= out[i] * (1 - out[i]). */
void sigmoidBackward(double *grad, const double *out, std::size_t n);

/** In place: x[i] = tanh(x[i]). */
void tanhForward(double *x, std::size_t n);

/** In place: grad[i] *= 1 - out[i]^2. */
void tanhBackward(double *grad, const double *out, std::size_t n);

} // namespace vaesa::kernels

#endif // VAESA_TENSOR_KERNELS_KERNELS_HH
