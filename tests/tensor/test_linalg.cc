/** @file Unit tests for Cholesky and triangular solves. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

/** Random SPD matrix A = B B^T + n I. */
Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix b(n, n);
    b.randomNormal(rng, 0.0, 1.0);
    Matrix a = Matrix::multiplyTransB(b, b);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += static_cast<double>(n);
    return a;
}

/**
 * Oracle: the textbook row-by-row Cholesky (row i, then j <= i, each
 * L(i,j) summing k ascending). The column-ordered cholesky() in src/
 * must reproduce it bit for bit, including where it fails.
 */
bool
referenceCholesky(const Matrix &a, Matrix &lower)
{
    const std::size_t n = a.rows();
    lower = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= lower(i, k) * lower(j, k);
            if (i == j) {
                if (acc <= 0.0 || !std::isfinite(acc))
                    return false;
                lower(i, i) = std::sqrt(acc);
            } else {
                lower(i, j) = acc / lower(j, j);
            }
        }
    }
    return true;
}

/** Oracle: choleskyJittered's decade jitter ladder over the reference
 *  factorization; returns the jitter, or -1 when every step fails. */
double
referenceJittered(const Matrix &a, Matrix &lower)
{
    const std::size_t n = a.rows();
    double diag_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        diag_mean += a(i, i);
    diag_mean = n ? diag_mean / static_cast<double>(n) : 1.0;
    if (diag_mean <= 0.0)
        diag_mean = 1.0;
    double jitter = 0.0;
    for (int attempt = 0; attempt < 12; ++attempt) {
        Matrix work = a;
        if (jitter > 0.0)
            for (std::size_t i = 0; i < n; ++i)
                work(i, i) += jitter;
        if (referenceCholesky(work, lower))
            return jitter;
        jitter = (jitter == 0.0) ? 1e-10 * diag_mean : jitter * 10.0;
    }
    return -1.0;
}

/** Oracle: scalar forward substitution, k ascending. */
std::vector<double>
referenceSolveLower(const Matrix &lower, const std::vector<double> &b)
{
    const std::size_t n = lower.rows();
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= lower(i, k) * y[k];
        y[i] = acc / lower(i, i);
    }
    return y;
}

void
expectSameBits(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
                  std::bit_cast<std::uint64_t>(b.data()[i]))
            << "element " << i << ": " << a.data()[i] << " vs "
            << b.data()[i];
}

/** A GP-style Matern-like kernel matrix over random 4-D points, with
 *  a duplicated point so it is near-singular without noise. */
Matrix
kernelLikeMatrix(std::size_t n, Rng &rng, double noise)
{
    std::vector<std::vector<double>> xs(n);
    for (auto &x : xs)
        x = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    if (n > 2)
        xs[n - 1] = xs[0];
    Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            k(i, j) = std::exp(-std::sqrt(squaredDistance(xs[i], xs[j])) /
                               0.3);
        k(i, i) += noise;
    }
    return k;
}

TEST(Linalg, CholeskyMatchesRowMajorReferenceBitwise)
{
    Rng rng(11);
    for (std::size_t n : {1u, 2u, 3u, 7u, 16u, 33u, 64u, 192u}) {
        SCOPED_TRACE(n);
        const Matrix a = randomSpd(n, rng);
        Matrix got;
        Matrix want;
        ASSERT_TRUE(referenceCholesky(a, want));
        ASSERT_TRUE(cholesky(a, got));
        expectSameBits(got, want);

        const Matrix k = kernelLikeMatrix(n, rng, 1e-6);
        const bool ok = cholesky(k, got);
        ASSERT_EQ(ok, referenceCholesky(k, want));
        if (ok)
            expectSameBits(got, want);
    }
}

TEST(Linalg, CholeskyFailsExactlyWhereReferenceFails)
{
    Rng rng(12);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<Matrix> cases;
    cases.push_back(Matrix(2, 2, {1.0, 2.0, 2.0, 1.0})); // indefinite
    cases.push_back(Matrix(3, 3, 1.0));                  // singular
    cases.push_back(Matrix(2, 2, {-1.0, 0.0, 0.0, 1.0}));
    for (std::size_t pos : {0u, 5u, 17u, 42u, 63u}) {
        for (double bad : {nan, inf, -inf}) {
            Matrix a = randomSpd(8, rng);
            a.data()[pos] = bad; // lower, diagonal or upper triangle
            cases.push_back(a);
        }
    }
    for (std::size_t c = 0; c < cases.size(); ++c) {
        Matrix got;
        Matrix want;
        const bool ok = referenceCholesky(cases[c], want);
        EXPECT_EQ(cholesky(cases[c], got), ok) << "case " << c;
        if (ok)
            expectSameBits(got, want);
    }
}

TEST(Linalg, JitterLadderMatchesReference)
{
    Rng rng(13);
    std::vector<Matrix> cases;
    cases.push_back(Matrix(3, 3, 1.0));
    for (std::size_t n : {3u, 24u, 96u})
        cases.push_back(kernelLikeMatrix(n, rng, 0.0));
    cases.push_back(randomSpd(10, rng));
    for (std::size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE(c);
        Matrix got;
        Matrix want;
        const double want_jitter = referenceJittered(cases[c], want);
        ASSERT_GE(want_jitter, 0.0);
        EXPECT_EQ(choleskyJittered(cases[c], got), want_jitter);
        expectSameBits(got, want);
    }
}

TEST(Linalg, MultiRhsSolveMatchesPerColumnSolveBitwise)
{
    Rng rng(14);
    for (std::size_t n : {1u, 5u, 40u, 192u}) {
        Matrix lower;
        ASSERT_TRUE(cholesky(randomSpd(n, rng), lower));
        for (std::size_t m : {1u, 2u, 3u, 17u, 64u}) {
            SCOPED_TRACE(::testing::Message() << n << "x" << m);
            Matrix b(n, m);
            b.randomNormal(rng, 0.0, 1.0);
            Matrix y = b;
            solveLowerInPlace(lower, y);
            for (std::size_t c = 0; c < m; ++c) {
                std::vector<double> col(n);
                for (std::size_t i = 0; i < n; ++i)
                    col[i] = b(i, c);
                const std::vector<double> want =
                    referenceSolveLower(lower, col);
                const std::vector<double> single = solveLower(lower, col);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(y(i, c)),
                              std::bit_cast<std::uint64_t>(want[i]));
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(single[i]),
                              std::bit_cast<std::uint64_t>(want[i]));
                }
            }
        }
    }
    Matrix lower;
    ASSERT_TRUE(cholesky(randomSpd(3, rng), lower));
    Matrix wrong(4, 2);
    EXPECT_DEATH(solveLowerInPlace(lower, wrong), "mismatch");
}

TEST(Linalg, CholeskyOfIdentity)
{
    Matrix eye(3, 3);
    for (int i = 0; i < 3; ++i)
        eye(i, i) = 1.0;
    Matrix lower;
    ASSERT_TRUE(cholesky(eye, lower));
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(lower(i, j), i == j ? 1.0 : 0.0, 1e-14);
}

TEST(Linalg, CholeskyKnownFactor)
{
    Matrix a(2, 2, {4.0, 2.0, 2.0, 5.0});
    Matrix lower;
    ASSERT_TRUE(cholesky(a, lower));
    EXPECT_NEAR(lower(0, 0), 2.0, 1e-14);
    EXPECT_NEAR(lower(1, 0), 1.0, 1e-14);
    EXPECT_NEAR(lower(1, 1), 2.0, 1e-14);
    EXPECT_NEAR(lower(0, 1), 0.0, 1e-14);
}

TEST(Linalg, CholeskyRejectsIndefinite)
{
    Matrix a(2, 2, {1.0, 2.0, 2.0, 1.0});
    Matrix lower;
    EXPECT_FALSE(cholesky(a, lower));
}

TEST(Linalg, CholeskyReconstructs)
{
    Rng rng(3);
    const Matrix a = randomSpd(6, rng);
    Matrix lower;
    ASSERT_TRUE(cholesky(a, lower));
    const Matrix back = Matrix::multiplyTransB(lower, lower);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_NEAR(back(i, j), a(i, j), 1e-10);
}

TEST(Linalg, TriangularSolvesInvertEachOther)
{
    Rng rng(4);
    const Matrix a = randomSpd(5, rng);
    Matrix lower;
    ASSERT_TRUE(cholesky(a, lower));
    const std::vector<double> b{1.0, -2.0, 0.5, 3.0, 0.0};
    const std::vector<double> y = solveLower(lower, b);
    // Check L y = b.
    for (std::size_t i = 0; i < 5; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k <= i; ++k)
            acc += lower(i, k) * y[k];
        EXPECT_NEAR(acc, b[i], 1e-10);
    }
    const std::vector<double> x = solveLowerTransposed(lower, y);
    // Check A x = b.
    for (std::size_t i = 0; i < 5; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < 5; ++k)
            acc += a(i, k) * x[k];
        EXPECT_NEAR(acc, b[i], 1e-9);
    }
}

TEST(Linalg, SolveSpdSolvesSystem)
{
    Rng rng(5);
    const Matrix a = randomSpd(8, rng);
    std::vector<double> b(8);
    for (auto &v : b)
        v = rng.normal();
    const std::vector<double> x = solveSpd(a, b);
    for (std::size_t i = 0; i < 8; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < 8; ++k)
            acc += a(i, k) * x[k];
        EXPECT_NEAR(acc, b[i], 1e-8);
    }
}

TEST(Linalg, JitterRecoversNearSingular)
{
    // Rank-deficient PSD matrix: ones(3,3).
    Matrix a(3, 3, 1.0);
    Matrix lower;
    const double jitter = choleskyJittered(a, lower);
    EXPECT_GT(jitter, 0.0);
    const Matrix back = Matrix::multiplyTransB(lower, lower);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(back(i, j), a(i, j) + (i == j ? jitter : 0.0),
                        1e-8);
}

TEST(Linalg, DotAndSquaredDistance)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{4.0, -5.0, 6.0};
    EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
    EXPECT_DOUBLE_EQ(squaredDistance(a, b), 9.0 + 49.0 + 9.0);
    EXPECT_DEATH(dot(a, {1.0}), "mismatch");
}

class SolveSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SolveSweep, ResidualSmallAcrossSizes)
{
    const int n = GetParam();
    Rng rng(n);
    const Matrix a = randomSpd(n, rng);
    std::vector<double> b(n);
    for (auto &v : b)
        v = rng.uniform(-2.0, 2.0);
    const std::vector<double> x = solveSpd(a, b);
    double residual = 0.0;
    for (int i = 0; i < n; ++i) {
        double acc = -b[i];
        for (int k = 0; k < n; ++k)
            acc += a(i, k) * x[k];
        residual += acc * acc;
    }
    EXPECT_LT(std::sqrt(residual), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50));

} // namespace
} // namespace vaesa
