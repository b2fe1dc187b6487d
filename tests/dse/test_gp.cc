/** @file Unit tests for Gaussian-process regression. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dse/bo.hh"
#include "dse/gp.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace vaesa {
namespace {

TEST(NormalDistribution, PdfAndCdfKnownValues)
{
    EXPECT_NEAR(normalPdf(0.0), 0.3989422804, 1e-9);
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(GaussianProcess, InterpolatesTrainingPointsWithLowNoise)
{
    GaussianProcess gp(GaussianProcess::Kernel::Rbf,
                       {0.5, 1e-8});
    const std::vector<std::vector<double>> xs{
        {0.0}, {0.5}, {1.0}};
    const std::vector<double> ys{1.0, -1.0, 2.0};
    gp.fit(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto pred = gp.predict(xs[i]);
        EXPECT_NEAR(pred.mean, ys[i], 1e-3);
        EXPECT_LT(pred.var, 1e-4);
    }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData)
{
    GaussianProcess gp(GaussianProcess::Kernel::Matern52,
                       {0.3, 1e-6});
    gp.fit({{0.0}, {0.1}, {0.2}}, {0.0, 0.1, 0.2});
    const double var_near = gp.predict({0.1}).var;
    const double var_far = gp.predict({3.0}).var;
    EXPECT_GT(var_far, var_near * 100.0);
}

TEST(GaussianProcess, PredictionRevertsToMeanFarAway)
{
    GaussianProcess gp(GaussianProcess::Kernel::Rbf, {0.2, 1e-6});
    gp.fit({{0.0}, {1.0}}, {5.0, 9.0});
    // Far from data the posterior mean reverts to the y mean (7).
    EXPECT_NEAR(gp.predict({100.0}).mean, 7.0, 1e-6);
}

TEST(GaussianProcess, Matern52SmoothFitOnSine)
{
    GaussianProcess gp(GaussianProcess::Kernel::Matern52,
                       {0.4, 1e-6});
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 20; ++i) {
        const double x = i / 20.0 * 2.0 * M_PI;
        xs.push_back({x});
        ys.push_back(std::sin(x));
    }
    gp.fit(xs, ys);
    for (double x : {0.7, 2.3, 4.1, 5.9}) {
        EXPECT_NEAR(gp.predict({x}).mean, std::sin(x), 0.05);
    }
}

TEST(GaussianProcess, VarianceIsNonNegative)
{
    Rng rng(1);
    GaussianProcess gp;
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.normal());
    }
    gp.fit(xs, ys);
    for (int i = 0; i < 50; ++i) {
        const auto pred = gp.predict({rng.uniform(), rng.uniform()});
        EXPECT_GE(pred.var, 0.0);
    }
}

TEST(GaussianProcess, HyperSearchImprovesLikelihood)
{
    Rng rng(2);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        xs.push_back({x});
        ys.push_back(std::sin(8.0 * x));
    }
    GaussianProcess fixed(GaussianProcess::Kernel::Matern52,
                          {1.6, 1e-2});
    fixed.fit(xs, ys);
    const double lik_fixed = fixed.logMarginalLikelihood();

    GaussianProcess tuned(GaussianProcess::Kernel::Matern52);
    tuned.fitWithHyperSearch(xs, ys);
    EXPECT_GE(tuned.logMarginalLikelihood(), lik_fixed);
}

TEST(GaussianProcess, HandlesConstantLabels)
{
    GaussianProcess gp;
    gp.fit({{0.0}, {1.0}, {2.0}}, {3.0, 3.0, 3.0});
    EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 1e-6);
}

TEST(GaussianProcess, DuplicateObservationsKeepSigmaFinite)
{
    // Regression: two identical observations drive the predictive
    // variance at the duplicated point negative (or, with a
    // degenerate solve, NaN) through catastrophic cancellation; the
    // old (var < 0) clamp passed NaN straight through, so
    // sqrt(var) -> NaN sigma poisoned every EI comparison and the
    // acquisition loop went blind. The clamp must be NaN-safe.
    GaussianProcess gp(GaussianProcess::Kernel::Rbf, {0.5, 1e-10});
    gp.fit({{0.25, 0.75}, {0.25, 0.75}}, {2.0, 2.0});
    const auto pred = gp.predict({0.25, 0.75});
    ASSERT_TRUE(std::isfinite(pred.mean));
    ASSERT_TRUE(std::isfinite(pred.var));
    EXPECT_GE(pred.var, 0.0);
    const double ei = expectedImprovement(pred, 1.0);
    EXPECT_TRUE(std::isfinite(ei));
    EXPECT_GE(ei, 0.0);
}

TEST(GaussianProcess, ExpectedImprovementIsNanSafe)
{
    // std::max(NaN, 0.0) returns NaN; the EI clamp must not use it.
    GaussianProcess::Prediction pred;
    pred.mean = 2.0;
    pred.var = std::numeric_limits<double>::quiet_NaN();
    const double ei = expectedImprovement(pred, 5.0);
    EXPECT_TRUE(std::isfinite(ei));
    EXPECT_DOUBLE_EQ(ei, 3.0); // sigma clamps to 0: best - mean
}

TEST(GaussianProcess, SingleObservationFitIsFinite)
{
    // stddev() of one label is NaN; fit() must fall back to unit
    // scale instead of standardizing by NaN.
    GaussianProcess gp;
    gp.fit({{0.5}}, {4.0});
    const auto pred = gp.predict({0.5});
    EXPECT_TRUE(std::isfinite(pred.mean));
    EXPECT_TRUE(std::isfinite(pred.var));
    EXPECT_NEAR(pred.mean, 4.0, 1e-3);
}

TEST(GaussianProcess, RejectsBadInputs)
{
    GaussianProcess gp;
    EXPECT_DEATH(gp.fit({}, {}), "bad observation");
    EXPECT_DEATH(gp.fit({{0.0}}, {1.0, 2.0}), "bad observation");
    EXPECT_DEATH(gp.predict({0.0}), "before fit");
}

class KernelSweep
    : public ::testing::TestWithParam<GaussianProcess::Kernel>
{
};

void
expectSamePrediction(const GaussianProcess::Prediction &a,
                     const GaussianProcess::Prediction &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean),
              std::bit_cast<std::uint64_t>(b.mean));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.var),
              std::bit_cast<std::uint64_t>(b.var));
}

std::vector<std::vector<double>>
randomPoints(std::size_t count, Rng &rng)
{
    std::vector<std::vector<double>> xs(count);
    for (auto &x : xs)
        x = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    return xs;
}

/**
 * Oracle: the per-candidate GP posterior that the batched one
 * replaced, op for op (one K* vector, dot with alpha, one forward
 * solve, variance subtraction), over an independent fit.
 */
struct ReferencePosterior
{
    GaussianProcess::Kernel kernel;
    GaussianProcess::Hyper hyper;
    std::vector<std::vector<double>> xs;
    Matrix lower;
    std::vector<double> alpha;
    double yMean = 0.0;
    double yStd = 1.0;

    double kernelValue(const std::vector<double> &a,
                       const std::vector<double> &b) const
    {
        const double d2 = squaredDistance(a, b);
        const double ls = hyper.lengthscale;
        if (kernel == GaussianProcess::Kernel::Rbf)
            return std::exp(-0.5 * d2 / (ls * ls));
        const double r = std::sqrt(d2) / ls;
        const double sq5r = std::sqrt(5.0) * r;
        return (1.0 + sq5r + 5.0 * r * r / 3.0) * std::exp(-sq5r);
    }

    ReferencePosterior(GaussianProcess::Kernel k,
                       GaussianProcess::Hyper h,
                       const std::vector<std::vector<double>> &points,
                       const std::vector<double> &ys)
        : kernel(k), hyper(h), xs(points)
    {
        yMean = mean(ys);
        yStd = stddev(ys);
        if (!(yStd > 1e-12))
            yStd = 1.0;
        std::vector<double> y_std(ys.size());
        for (std::size_t i = 0; i < ys.size(); ++i)
            y_std[i] = (ys[i] - yMean) / yStd;
        const std::size_t n = xs.size();
        Matrix kmat(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                const double v = kernelValue(xs[i], xs[j]);
                kmat(i, j) = v;
                kmat(j, i) = v;
            }
            kmat(i, i) += hyper.noiseVar;
        }
        choleskyJittered(kmat, lower);
        alpha = solveLowerTransposed(lower, solveLower(lower, y_std));
    }

    GaussianProcess::Prediction predict(const std::vector<double> &x) const
    {
        const std::size_t n = xs.size();
        std::vector<double> k_star(n);
        for (std::size_t i = 0; i < n; ++i)
            k_star[i] = kernelValue(x, xs[i]);
        double mean_std = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            mean_std += k_star[i] * alpha[i];
        const std::vector<double> v = solveLower(lower, k_star);
        double var_std = kernelValue(x, x);
        for (double vi : v)
            var_std -= vi * vi;
        if (!(var_std > 0.0))
            var_std = 0.0;
        return {yMean + yStd * mean_std, yStd * yStd * var_std};
    }
};

TEST_P(KernelSweep, PosteriorMatchesPerCandidateReferenceBitwise)
{
    Rng rng(23);
    const std::vector<std::vector<double>> xs = randomPoints(120, rng);
    std::vector<double> ys;
    for (const auto &x : xs)
        ys.push_back(std::cos(5.0 * x[1]) - x[0] + 0.2 * rng.normal());
    GaussianProcess gp(GetParam());
    gp.fitWithHyperSearch(xs, ys);
    const ReferencePosterior reference(GetParam(), gp.hyper(), xs, ys);

    std::vector<std::vector<double>> candidates = randomPoints(641, rng);
    candidates[7] = xs[3];
    std::vector<GaussianProcess::Prediction> batched(candidates.size());
    gp.predictBatch(candidates, batched);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        SCOPED_TRACE(c);
        expectSamePrediction(batched[c], reference.predict(candidates[c]));
    }
}

TEST_P(KernelSweep, BatchedPosteriorIsBitwiseThePerPointPosterior)
{
    Rng rng(21);
    const std::vector<std::vector<double>> xs = randomPoints(150, rng);
    std::vector<double> ys;
    for (const auto &x : xs)
        ys.push_back(std::sin(6.0 * x[0]) + x[1] * x[2] + rng.normal());
    GaussianProcess gp(GetParam());
    gp.fitWithHyperSearch(xs, ys);

    // BayesOpt's 641 candidates, with training points mixed in so the
    // near-zero-variance clamp runs inside blocks too.
    std::vector<std::vector<double>> candidates = randomPoints(641, rng);
    candidates[0] = xs[0];
    candidates[GaussianProcess::kPredictBlock] = xs[1];
    candidates[640] = xs[2];

    std::vector<GaussianProcess::Prediction> single;
    for (const auto &x : candidates)
        single.push_back(gp.predict(x));

    constexpr std::size_t block = GaussianProcess::kPredictBlock;
    for (std::size_t size : {std::size_t{1}, block - 1, block, block + 1,
                             std::size_t{641}}) {
        SCOPED_TRACE(size);
        // Offset the batch so block boundaries cut different points.
        const std::size_t offset = 641 - size;
        std::vector<GaussianProcess::Prediction> batched(size);
        gp.predictBatch(
            std::span(candidates).subspan(offset, size), batched);
        for (std::size_t c = 0; c < size; ++c)
            expectSamePrediction(batched[c], single[offset + c]);
    }
}

TEST(GaussianProcess, BatchedDuplicateObservationsKeepSigmaFinite)
{
    // The DuplicateObservationsKeepSigmaFinite case, scored in a
    // batch: every copy of the duplicated point is clamped, finite,
    // and bitwise the single-point result.
    GaussianProcess gp(GaussianProcess::Kernel::Rbf, {0.5, 1e-10});
    gp.fit({{0.25, 0.75}, {0.25, 0.75}}, {2.0, 2.0});
    const GaussianProcess::Prediction single = gp.predict({0.25, 0.75});
    std::vector<std::vector<double>> xs(2 * GaussianProcess::kPredictBlock +
                                        3);
    for (std::size_t c = 0; c < xs.size(); ++c)
        xs[c] = c % 2 ? std::vector<double>{0.25, 0.75}
                      : std::vector<double>{0.01 * c, 0.5};
    std::vector<GaussianProcess::Prediction> out(xs.size());
    gp.predictBatch(xs, out);
    for (std::size_t c = 0; c < xs.size(); ++c) {
        ASSERT_TRUE(std::isfinite(out[c].mean));
        ASSERT_TRUE(std::isfinite(out[c].var));
        EXPECT_GE(out[c].var, 0.0);
        if (c % 2)
            expectSamePrediction(out[c], single);
        else
            expectSamePrediction(out[c], gp.predict(xs[c]));
    }
}

TEST(GaussianProcess, HyperSearchKeepsTheWinnersFit)
{
    // The hyper search keeps the winning factor instead of refitting;
    // a fresh fit at the winning hyperparameters must agree bitwise.
    Rng rng(22);
    const std::vector<std::vector<double>> xs = randomPoints(60, rng);
    std::vector<double> ys;
    for (const auto &x : xs)
        ys.push_back(x[0] * x[0] - x[3] + 0.1 * rng.normal());
    GaussianProcess tuned;
    tuned.fitWithHyperSearch(xs, ys);
    GaussianProcess refit(GaussianProcess::Kernel::Matern52,
                          tuned.hyper());
    refit.fit(xs, ys);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tuned.logMarginalLikelihood()),
              std::bit_cast<std::uint64_t>(refit.logMarginalLikelihood()));
    for (const auto &x : randomPoints(20, rng))
        expectSamePrediction(tuned.predict(x), refit.predict(x));
}

TEST(GaussianProcess, PredictBatchRejectsBadShapes)
{
    GaussianProcess gp;
    gp.fit({{0.0, 0.0}, {1.0, 1.0}}, {1.0, 2.0});
    std::vector<std::vector<double>> xs{{0.5, 0.5}};
    std::vector<GaussianProcess::Prediction> out(2);
    EXPECT_DEATH(gp.predictBatch(xs, out), "outputs");
    EXPECT_DEATH(gp.predict({0.5}), "dims");
}

TEST_P(KernelSweep, KernelIsUnitAtZeroDistance)
{
    GaussianProcess gp(GetParam(), {0.3, 1e-6});
    gp.fit({{0.25, 0.75}}, {1.0});
    // Posterior variance at the training point is ~noise only.
    EXPECT_LT(gp.predict({0.25, 0.75}).var, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelSweep,
    ::testing::Values(GaussianProcess::Kernel::Rbf,
                      GaussianProcess::Kernel::Matern52));

} // namespace
} // namespace vaesa
