/** @file Kernel-layer tests: naive-vs-reference bit-equivalence,
 *  blocked-vs-naive equivalence within the documented FMA tolerance
 *  (including NaN/Inf operands -- the old zero-skip sparsity shortcut
 *  masked their propagation), the blocked A*B op-order rule and the
 *  branch-free LeakyReLU checked bit for bit against scalar oracles,
 *  fixed-kernel determinism, pooled-vs-serial bitwise equality,
 *  runtime kernel selection, and workspace arena growth stability.
 *
 *  This file is built with -ffp-contract=off (tests/CMakeLists.txt),
 *  so every a * b + c in an oracle rounds twice unless it is spelled
 *  std::fma. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/workspace.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace {

/** Restore the globally selected kernel/pool state on scope exit. */
struct KernelStateGuard
{
    kernels::KernelKind kind = kernels::activeKernel();
    std::size_t minRows = kernels::gemmParallelMinRows();
    ThreadPool *pool = kernels::gemmPool();

    ~KernelStateGuard()
    {
        kernels::setActiveKernel(kind);
        kernels::setGemmParallelMinRows(minRows);
        kernels::setGemmPool(pool);
    }
};

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    m.randomUniform(rng, -1.0, 1.0);
    return m;
}

/** Reference C = A * B: plain triple loop, no shortcuts. */
Matrix
refMultiply(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < a.cols(); ++k)
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += a(i, k) * b(k, j);
    return c;
}

/** Reference C = A^T * B. */
Matrix
refMultiplyTransA(const Matrix &a, const Matrix &b)
{
    Matrix c(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.rows(); ++k)
        for (std::size_t i = 0; i < a.cols(); ++i)
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += a(k, i) * b(k, j);
    return c;
}

/** Reference C = A * B^T. */
Matrix
refMultiplyTransB(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a(i, k) * b(j, k);
            c(i, j) = acc;
        }
    return c;
}

/** Exact equality, treating any-NaN-equals-any-NaN. */
void
expectSameValues(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t r = 0; r < got.rows(); ++r) {
        for (std::size_t c = 0; c < got.cols(); ++c) {
            if (std::isnan(want(r, c))) {
                EXPECT_TRUE(std::isnan(got(r, c)))
                    << "at (" << r << ", " << c << ")";
            } else {
                EXPECT_EQ(got(r, c), want(r, c))
                    << "at (" << r << ", " << c << ")";
            }
        }
    }
}

TEST(Kernels, KernelSelectionRoundTrip)
{
    const KernelStateGuard guard;
    kernels::setActiveKernel(kernels::KernelKind::Naive);
    EXPECT_EQ(kernels::activeKernel(), kernels::KernelKind::Naive);
    kernels::setActiveKernel(kernels::KernelKind::Blocked);
    EXPECT_EQ(kernels::activeKernel(), kernels::KernelKind::Blocked);
    EXPECT_STREQ(kernels::kernelName(kernels::KernelKind::Naive),
                 "naive");
    EXPECT_STREQ(kernels::kernelName(kernels::KernelKind::Blocked),
                 "blocked");
}

/**
 * Tolerance for blocked-vs-naive drift. The blocked TU is compiled
 * with FMA and fp contraction (and the transB dot is lane-split), so
 * each of the k accumulation steps can shift by one rounding of the
 * ~|a||b| partial products: |err| <= ~k * eps * sum_k |a||b|. With
 * uniform(-1, 1) entries and k <= 128 that bounds the drift around
 * 128 * 128 * 2^-52 ~ 4e-12; 1e-11 leaves headroom without letting a
 * genuinely wrong accumulation (O(1) error) slip through.
 */
constexpr double kBlockedTol = 1e-11;

void
expectWithinTolerance(const Matrix &got, const Matrix &want,
                      double tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t r = 0; r < got.rows(); ++r)
        for (std::size_t c = 0; c < got.cols(); ++c)
            EXPECT_NEAR(got(r, c), want(r, c), tol)
                << "at (" << r << ", " << c << ")";
}

TEST(Kernels, BlockedMatchesNaiveWithinTolerance)
{
    const KernelStateGuard guard;
    Rng rng(11);
    // Shapes straddling the 4x8 / 4x4 register tiles: full tiles,
    // ragged edges, single rows/cols, and the paper's layer widths.
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {5, 9, 17},
        {8, 6, 128}, {64, 128, 6}, {33, 65, 31}, {2, 1, 64},
    };
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[2], rng);
        const Matrix b = randomMatrix(s[2], s[1], rng);
        const Matrix bt = randomMatrix(s[1], s[2], rng);
        const Matrix at = randomMatrix(s[2], s[0], rng);

        kernels::setActiveKernel(kernels::KernelKind::Naive);
        const Matrix c_naive = Matrix::multiply(a, b);
        const Matrix cb_naive = Matrix::multiplyTransB(a, bt);
        const Matrix ca_naive = Matrix::multiplyTransA(at, b);

        kernels::setActiveKernel(kernels::KernelKind::Blocked);
        const Matrix c_blocked = Matrix::multiply(a, b);
        const Matrix cb_blocked = Matrix::multiplyTransB(a, bt);
        const Matrix ca_blocked = Matrix::multiplyTransA(at, b);

        // The naive TU keeps the baseline flags, so it matches the
        // reference triple loops bit for bit in every orientation --
        // that is what makes it the ground truth.
        expectSameValues(c_naive, refMultiply(a, b));
        expectSameValues(ca_naive, refMultiplyTransA(at, b));
        expectSameValues(cb_naive, refMultiplyTransB(a, bt));

        // Blocked accumulates in the same increasing-k order but with
        // fused multiply-adds (and a lane-split transB dot), so it is
        // only required to sit inside the documented tolerance.
        expectWithinTolerance(c_blocked, c_naive, kBlockedTol);
        expectWithinTolerance(cb_blocked, cb_naive, kBlockedTol);
        expectWithinTolerance(ca_blocked, ca_naive, kBlockedTol);

        // For a FIXED kernel choice the results are bit-identical
        // run to run.
        EXPECT_TRUE(c_blocked == Matrix::multiply(a, b));
        EXPECT_TRUE(cb_blocked == Matrix::multiplyTransB(a, bt));
        EXPECT_TRUE(ca_blocked == Matrix::multiplyTransA(at, b));
    }
}

TEST(Kernels, LinearForwardFusesBiasCorrectly)
{
    const KernelStateGuard guard;
    Rng rng(12);
    for (const std::size_t batch : {1u, 5u, 64u}) {
        const Matrix x = randomMatrix(batch, 6, rng);
        const Matrix w = randomMatrix(32, 6, rng);
        const Matrix b = randomMatrix(1, 32, rng);

        for (const auto kind : {kernels::KernelKind::Naive,
                                kernels::KernelKind::Blocked}) {
            kernels::setActiveKernel(kind);
            Matrix y(batch, 32);
            kernels::linearForward(batch, 6, 32, x.data(), w.data(),
                                   b.data(), y.data());
            // Reference: accumulators seeded with the bias, then the
            // increasing-k dot products. The naive kernel follows
            // exactly this order; blocked only has to land inside the
            // documented FMA tolerance.
            for (std::size_t r = 0; r < batch; ++r) {
                for (std::size_t j = 0; j < 32; ++j) {
                    double acc = b(0, j);
                    for (std::size_t k = 0; k < 6; ++k)
                        acc += x(r, k) * w(j, k);
                    if (kind == kernels::KernelKind::Naive)
                        EXPECT_EQ(y(r, j), acc)
                            << "batch " << batch << " at (" << r
                            << ", " << j << ")";
                    else
                        EXPECT_NEAR(y(r, j), acc, kBlockedTol)
                            << "batch " << batch << " at (" << r
                            << ", " << j << ")";
                }
            }
        }
    }
}

/**
 * Regression for the old sparsity shortcut: Matrix::multiply used to
 * skip the inner accumulation whenever a(i, k) == 0.0, so a NaN or
 * Inf in B sitting behind a zero in A silently vanished instead of
 * poisoning the product. Every product term must always be formed.
 */
TEST(Kernels, NanAndInfPropagateAcrossZeros)
{
    const KernelStateGuard guard;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    // A's second column is entirely zero; B's second row carries the
    // non-finite values that the zero used to mask.
    Matrix a(2, 3);
    a(0, 0) = 1.0; a(0, 1) = 0.0; a(0, 2) = 2.0;
    a(1, 0) = 3.0; a(1, 1) = 0.0; a(1, 2) = 4.0;
    Matrix b(3, 2);
    b(0, 0) = 1.0; b(0, 1) = 1.0;
    b(1, 0) = nan; b(1, 1) = inf;
    b(2, 0) = 1.0; b(2, 1) = 1.0;

    for (const auto kind : {kernels::KernelKind::Naive,
                            kernels::KernelKind::Blocked}) {
        kernels::setActiveKernel(kind);

        const Matrix c = Matrix::multiply(a, b);
        expectSameValues(c, refMultiply(a, b));
        // 0 * NaN = NaN and 0 * Inf = NaN: every output touches k=1.
        for (std::size_t r = 0; r < c.rows(); ++r)
            for (std::size_t col = 0; col < c.cols(); ++col)
                EXPECT_TRUE(std::isnan(c(r, col)))
                    << kernels::kernelName(kind) << " at (" << r
                    << ", " << col << ")";

        // Same through the transposed-A path (the other site that
        // carried the zero-skip): A^T has the zero column as a row.
        const Matrix ct = Matrix::multiplyTransA(a.transposed(), b);
        expectSameValues(ct, refMultiplyTransA(a.transposed(), b));
        for (std::size_t r = 0; r < ct.rows(); ++r)
            for (std::size_t col = 0; col < ct.cols(); ++col)
                EXPECT_TRUE(std::isnan(ct(r, col)));

        // And A * B^T.
        const Matrix cbt = Matrix::multiplyTransB(a, b.transposed());
        expectSameValues(cbt, refMultiplyTransB(a, b.transposed()));
    }
}

/** Bit equality, treating any-NaN-equals-any-NaN; tells -0 from +0. */
::testing::AssertionResult
sameBits(double got, double want)
{
    if (std::isnan(want) && std::isnan(got))
        return ::testing::AssertionSuccess();
    std::uint64_t g = 0;
    std::uint64_t w = 0;
    std::memcpy(&g, &got, sizeof(g));
    std::memcpy(&w, &want, sizeof(w));
    if (g == w)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "got " << got << " (0x" << std::hex << g << "), want "
           << want << " (0x" << w << ")";
}

/**
 * Oracle for the blocked C = A * B: the op order of its 4x8 register
 * tiles, spelled out per element. Every element starts at c (or 0)
 * and adds its products k-ascending. Inside a full 4x8 tile the first
 * k - k % 2 products are rounded, then added; an odd k's last product
 * is fused. Edge tiles (rows past the last multiple of 4, or columns
 * past the last multiple of 8) fuse every product.
 */
std::vector<double>
refBlockedGemm(std::size_t m, std::size_t n, std::size_t k,
               const std::vector<double> &a,
               const std::vector<double> &b,
               const std::vector<double> &c0, bool accumulate)
{
    std::vector<double> c(m * n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const bool full_tile =
                i - i % 4 + 4 <= m && j - j % 8 + 8 <= n;
            const std::size_t unfused = full_tile ? k - k % 2 : 0;
            double acc = accumulate ? c0[i * n + j] : 0.0;
            for (std::size_t kk = 0; kk < unfused; ++kk)
                acc += a[i * k + kk] * b[kk * n + j];
            for (std::size_t kk = unfused; kk < k; ++kk)
                acc = std::fma(a[i * k + kk], b[kk * n + j], acc);
            c[i * n + j] = acc;
        }
    }
    return c;
}

std::vector<double>
randomVector(std::size_t size, Rng &rng)
{
    std::vector<double> v(size);
    for (double &x : v)
        x = rng.uniform(-1.0, 1.0);
    return v;
}

/** Run the blocked gemm and compare every element with the oracle. */
void
expectBlockedGemmMatchesRule(std::size_t m, std::size_t n,
                             std::size_t k, const std::vector<double> &a,
                             const std::vector<double> &b,
                             const std::vector<double> &c0,
                             bool accumulate)
{
    std::vector<double> c = c0;
    kernels::gemm(m, n, k, a.data(), b.data(), c.data(), accumulate);
    const std::vector<double> want =
        refBlockedGemm(m, n, k, a, b, c0, accumulate);
    std::size_t mismatches = 0;
    for (std::size_t e = 0; e < c.size(); ++e) {
        const auto same = sameBits(c[e], want[e]);
        if (!same && mismatches++ < 3)
            ADD_FAILURE() << "m " << m << " n " << n << " k " << k
                          << " accumulate " << accumulate << " at ("
                          << e / n << ", " << e % n << "): "
                          << same.message();
    }
    EXPECT_EQ(mismatches, 0u)
        << "m " << m << " n " << n << " k " << k << " accumulate "
        << accumulate;
}

TEST(Kernels, BlockedGemmFollowsTileOpOrderBitwise)
{
    const KernelStateGuard guard;
    kernels::setActiveKernel(kernels::KernelKind::Blocked);
    kernels::setGemmPool(nullptr);
    Rng rng(15);
    const std::size_t ms[] = {1, 3, 4, 5, 16, 17, 64};
    const std::size_t ns[] = {1, 4, 6, 7, 8, 9, 12, 64, 128};
    const std::size_t ks[] = {1,  2,  3,  4,  5,  6,  7,  8,
                              12, 16, 63, 64, 65, 128};
    for (const std::size_t m : ms)
        for (const std::size_t n : ns)
            for (const std::size_t k : ks) {
                const auto a = randomVector(m * k, rng);
                const auto b = randomVector(k * n, rng);
                const auto c0 = randomVector(m * n, rng);
                for (const bool accumulate : {false, true})
                    expectBlockedGemmMatchesRule(m, n, k, a, b, c0,
                                                 accumulate);
            }
}

TEST(Kernels, BlockedGemmRulePropagatesNanAndInf)
{
    const KernelStateGuard guard;
    kernels::setActiveKernel(kernels::KernelKind::Blocked);
    const double specials[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 0.0, -0.0};
    Rng rng(16);
    // Full tiles with even and odd k, plus column and row edges.
    const std::size_t shapes[][3] = {
        {8, 16, 7}, {8, 16, 8}, {5, 12, 9}, {3, 6, 4}};
    for (const auto &s : shapes) {
        auto a = randomVector(s[0] * s[2], rng);
        auto b = randomVector(s[2] * s[1], rng);
        auto c0 = randomVector(s[0] * s[1], rng);
        for (std::size_t e = 0; e < a.size(); e += 5)
            a[e] = specials[e % 5];
        for (std::size_t e = 1; e < b.size(); e += 7)
            b[e] = specials[e % 5];
        c0[2] = specials[0];
        for (const bool accumulate : {false, true})
            expectBlockedGemmMatchesRule(s[0], s[1], s[2], a, b, c0,
                                         accumulate);
    }
}

/** Inputs that exercise every LeakyReLU branch edge: signed zeros,
 *  infinities, NaNs of both signs, subnormals and huge values. */
std::vector<double>
leakyReluInputs(std::size_t n, Rng &rng)
{
    using limits = std::numeric_limits<double>;
    const double specials[] = {
        0.0,         -0.0,          limits::infinity(),
        -limits::infinity(),        limits::quiet_NaN(),
        -limits::quiet_NaN(),       limits::denorm_min(),
        -limits::denorm_min(),      limits::min() / 4.0,
        -limits::min() / 4.0,       limits::max(),
        -limits::max()};
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = i % 3 == 0 ? specials[(i / 3) % std::size(specials)]
                          : rng.uniform(-1.0, 1.0);
    return x;
}

TEST(Kernels, LeakyReluMatchesBranchyLoopBitwise)
{
    Rng rng(17);
    for (const double slope : {0.01, 0.0, 0.3, 1.0}) {
        for (const std::size_t n :
             {0u, 1u, 2u, 3u, 4u, 5u, 7u, 13u, 36u, 1027u}) {
            const std::vector<double> in = leakyReluInputs(n, rng);
            std::vector<double> out = in;
            kernels::leakyReluForward(out.data(), n, slope);

            const std::vector<double> grad_in = leakyReluInputs(n, rng);
            std::vector<double> grad = grad_in;
            kernels::leakyReluBackward(grad.data(), out.data(), n,
                                       slope);

            for (std::size_t i = 0; i < n; ++i) {
                // The scalar loops the vector bodies replaced.
                const double want_out =
                    in[i] > 0.0 ? in[i] : slope * in[i];
                const double want_grad =
                    grad_in[i] * (want_out > 0.0 ? 1.0 : slope);
                EXPECT_TRUE(sameBits(out[i], want_out))
                    << "forward slope " << slope << " n " << n
                    << " at " << i << " input " << in[i];
                EXPECT_TRUE(sameBits(grad[i], want_grad))
                    << "backward slope " << slope << " n " << n
                    << " at " << i << " out " << want_out;
            }
        }
    }
}

TEST(Kernels, PooledGemmMatchesSerialBitForBit)
{
    const KernelStateGuard guard;
    Rng rng(13);
    // Tall batch so several 64-row blocks land on different workers.
    const Matrix a = randomMatrix(300, 64, rng);
    const Matrix b = randomMatrix(64, 48, rng);
    const Matrix bt = randomMatrix(48, 64, rng);

    for (const auto kind : {kernels::KernelKind::Naive,
                            kernels::KernelKind::Blocked}) {
        kernels::setActiveKernel(kind);
        kernels::setGemmPool(nullptr);
        const Matrix serial = Matrix::multiply(a, b);
        const Matrix serial_tb = Matrix::multiplyTransB(a, bt);

        ThreadPool pool(4);
        kernels::setGemmPool(&pool);
        kernels::setGemmParallelMinRows(1);
        const Matrix pooled = Matrix::multiply(a, b);
        const Matrix pooled_tb = Matrix::multiplyTransB(a, bt);
        kernels::setGemmPool(nullptr);

        // Each output row is produced entirely inside one row block,
        // so the partition cannot change any result bit.
        EXPECT_TRUE(serial == pooled);
        EXPECT_TRUE(serial_tb == pooled_tb);
    }
}

TEST(Kernels, ParallelThresholdKeepsSmallGemmsSerial)
{
    const KernelStateGuard guard;
    Rng rng(14);
    ThreadPool pool(2);
    kernels::setGemmPool(&pool);
    kernels::setGemmParallelMinRows(256);
    // Below the threshold this must not touch the pool (and must
    // still be correct); above, it must still be bit-identical.
    const Matrix a = randomMatrix(8, 16, rng);
    const Matrix b = randomMatrix(16, 8, rng);
    const Matrix small = Matrix::multiply(a, b);
    kernels::setGemmPool(nullptr);
    EXPECT_TRUE(small == Matrix::multiply(a, b));
}

TEST(Workspace, GrowthStopsAfterWarmup)
{
    kernels::Workspace ws;
    const std::size_t base = ws.reserveSlots(2);
    EXPECT_EQ(base, 0u);
    EXPECT_EQ(ws.slotCount(), 2u);

    ws.buffer(0, 8, 8);
    ws.buffer(1, 4, 4);
    const std::uint64_t after_first = ws.growthEvents();
    EXPECT_GE(after_first, 2u);

    // Re-requesting the same or smaller shapes must not grow.
    ws.buffer(0, 8, 8);
    ws.buffer(0, 2, 8);
    ws.buffer(1, 1, 16); // same element count, reshaped
    EXPECT_EQ(ws.growthEvents(), after_first);

    // A larger request grows once, then is stable again.
    ws.buffer(0, 16, 16);
    const std::uint64_t after_growth = ws.growthEvents();
    EXPECT_GT(after_growth, after_first);
    ws.buffer(0, 16, 16);
    ws.buffer(0, 8, 8);
    EXPECT_EQ(ws.growthEvents(), after_growth);
}

TEST(Workspace, SlotsAreStableAcrossLaterReservations)
{
    kernels::Workspace ws;
    const std::size_t first = ws.reserveSlots(1);
    Matrix &a = ws.buffer(first, 4, 4);
    a.fill(7.0);
    // A second reservation (another module attaching) must not move
    // the first module's buffers.
    const std::size_t second = ws.reserveSlots(3);
    EXPECT_EQ(second, 1u);
    ws.buffer(second + 2, 32, 32);
    EXPECT_EQ(&ws.buffer(first, 4, 4), &a);
    EXPECT_EQ(a(0, 0), 7.0);
}

TEST(WorkspaceDeathTest, OutOfRangeSlotPanics)
{
    kernels::Workspace ws;
    ws.reserveSlots(1);
    EXPECT_DEATH(ws.buffer(5, 1, 1), "slot");
}

} // namespace
} // namespace vaesa
