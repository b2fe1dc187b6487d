/** @file Unit tests for SGD and Adam optimizers. Built with
 *  -ffp-contract=off (tests/CMakeLists.txt), so the scalar Adam
 *  oracle rounds every multiply and add on its own. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/optim.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

/** Quadratic bowl: L = sum((w - target)^2); grad = 2 (w - target). */
void
setQuadraticGrad(Parameter &p, double target)
{
    for (std::size_t r = 0; r < p.value.rows(); ++r)
        for (std::size_t c = 0; c < p.value.cols(); ++c)
            p.grad(r, c) = 2.0 * (p.value(r, c) - target);
}

TEST(Sgd, SingleStepMovesAgainstGradient)
{
    Parameter p(1, 1, "w");
    p.value(0, 0) = 1.0;
    p.grad(0, 0) = 2.0;
    Sgd opt({&p}, 0.1);
    opt.step();
    EXPECT_DOUBLE_EQ(p.value(0, 0), 0.8);
}

TEST(Sgd, ConvergesOnQuadratic)
{
    Parameter p(2, 2, "w");
    p.value.fill(5.0);
    Sgd opt({&p}, 0.1);
    for (int i = 0; i < 200; ++i) {
        setQuadraticGrad(p, 3.0);
        opt.step();
    }
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_NEAR(p.value(r, c), 3.0, 1e-6);
}

TEST(Sgd, MomentumAcceleratesDescent)
{
    Parameter plain(1, 1, "a");
    Parameter fast(1, 1, "b");
    plain.value(0, 0) = 10.0;
    fast.value(0, 0) = 10.0;
    Sgd slow({&plain}, 0.01, 0.0);
    Sgd quick({&fast}, 0.01, 0.9);
    for (int i = 0; i < 30; ++i) {
        setQuadraticGrad(plain, 0.0);
        setQuadraticGrad(fast, 0.0);
        slow.step();
        quick.step();
    }
    EXPECT_LT(std::fabs(fast.value(0, 0)),
              std::fabs(plain.value(0, 0)));
}

TEST(Adam, ConvergesOnQuadratic)
{
    Parameter p(3, 1, "w");
    p.value.fill(-4.0);
    Adam opt({&p}, 0.05);
    for (int i = 0; i < 500; ++i) {
        setQuadraticGrad(p, 2.0);
        opt.step();
    }
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_NEAR(p.value(r, 0), 2.0, 1e-3);
}

TEST(Adam, FirstStepIsLearningRateSized)
{
    // With bias correction, the first Adam step is ~lr in magnitude
    // regardless of gradient scale.
    Parameter big(1, 1, "a");
    Parameter small(1, 1, "b");
    big.grad(0, 0) = 1000.0;
    small.grad(0, 0) = 0.001;
    Adam opt_a({&big}, 0.1);
    Adam opt_b({&small}, 0.1);
    opt_a.step();
    opt_b.step();
    EXPECT_NEAR(big.value(0, 0), -0.1, 1e-6);
    EXPECT_NEAR(small.value(0, 0), -0.1, 1e-6);
}

TEST(Adam, HandlesMultipleParameters)
{
    Parameter p1(1, 1, "a");
    Parameter p2(2, 2, "b");
    p1.value.fill(1.0);
    p2.value.fill(-1.0);
    Adam opt({&p1, &p2}, 0.05);
    for (int i = 0; i < 400; ++i) {
        setQuadraticGrad(p1, 0.5);
        setQuadraticGrad(p2, -0.5);
        opt.step();
    }
    EXPECT_NEAR(p1.value(0, 0), 0.5, 1e-3);
    EXPECT_NEAR(p2.value(1, 1), -0.5, 1e-3);
}

/** The scalar Adam loop the vectorized update replaced, kept as the
 *  bitwise oracle: same expression text, same bias corrections. */
struct ReferenceAdam
{
    double lr, beta1, beta2, eps;
    std::vector<double> m, v;
    long t = 0;

    ReferenceAdam(std::size_t n, double lr_, double beta1_,
                  double beta2_, double eps_)
        : lr(lr_), beta1(beta1_), beta2(beta2_), eps(eps_), m(n),
          v(n)
    {}

    void
    step(std::vector<double> &w, const std::vector<double> &g)
    {
        ++t;
        const double bc1 = 1.0 - std::pow(beta1, t);
        const double bc2 = 1.0 - std::pow(beta2, t);
        for (std::size_t k = 0; k < w.size(); ++k) {
            m[k] = beta1 * m[k] + (1.0 - beta1) * g[k];
            v[k] = beta2 * v[k] + (1.0 - beta2) * g[k] * g[k];
            const double m_hat = m[k] / bc1;
            const double v_hat = v[k] / bc2;
            w[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
    }
};

std::uint64_t
bitsOf(double x)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

TEST(Adam, UpdateMatchesScalarReferenceBitwise)
{
    // Sizes with and without a vector-width remainder, and gradients
    // spanning many decades (tiny, subnormal-adjacent, large) so the
    // divides and square roots see varied magnitudes.
    Parameter p1(64, 129, "w1");
    Parameter p2(1, 7, "w2");
    Rng rng(23);
    p1.value.randomUniform(rng, -1.0, 1.0);
    p2.value.randomUniform(rng, -1.0, 1.0);
    Adam opt({&p1, &p2}, 3e-3, 0.9, 0.999, 1e-8);

    ReferenceAdam ref1(p1.value.size(), 3e-3, 0.9, 0.999, 1e-8);
    ReferenceAdam ref2(p2.value.size(), 3e-3, 0.9, 0.999, 1e-8);
    std::vector<double> w1(p1.value.data(),
                           p1.value.data() + p1.value.size());
    std::vector<double> w2(p2.value.data(),
                           p2.value.data() + p2.value.size());
    std::vector<double> g1(w1.size());
    std::vector<double> g2(w2.size());

    const double scales[] = {1.0, 1e-3, 1e3, 1e-150, 1e150, 0.0};
    for (int step = 0; step < 60; ++step) {
        for (std::size_t k = 0; k < g1.size(); ++k)
            g1[k] = rng.normal() * scales[(k + step) % 6];
        for (std::size_t k = 0; k < g2.size(); ++k)
            g2[k] = rng.normal() * scales[(k * 5 + step) % 6];
        std::copy(g1.begin(), g1.end(), p1.grad.data());
        std::copy(g2.begin(), g2.end(), p2.grad.data());

        opt.step();
        ref1.step(w1, g1);
        ref2.step(w2, g2);

        std::size_t mismatches = 0;
        for (std::size_t k = 0; k < w1.size(); ++k)
            mismatches += bitsOf(p1.value.data()[k]) != bitsOf(w1[k]);
        for (std::size_t k = 0; k < w2.size(); ++k)
            mismatches += bitsOf(p2.value.data()[k]) != bitsOf(w2[k]);
        ASSERT_EQ(mismatches, 0u) << "after step " << step + 1;
    }
}

TEST(Optimizer, ZeroGradClearsAll)
{
    Parameter p1(1, 1, "a");
    Parameter p2(1, 1, "b");
    p1.grad(0, 0) = 1.0;
    p2.grad(0, 0) = 2.0;
    Sgd opt({&p1, &p2}, 0.1);
    opt.zeroGrad();
    EXPECT_DOUBLE_EQ(p1.grad(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(p2.grad(0, 0), 0.0);
}

TEST(Optimizer, NullParameterPanics)
{
    EXPECT_DEATH(Sgd({nullptr}, 0.1), "null");
}

TEST(Optimizer, LearningRateIsAdjustable)
{
    Parameter p(1, 1, "w");
    Adam opt({&p}, 1e-3);
    EXPECT_DOUBLE_EQ(opt.learningRate(), 1e-3);
    opt.setLearningRate(1e-4);
    EXPECT_DOUBLE_EQ(opt.learningRate(), 1e-4);
}

} // namespace
} // namespace vaesa::nn
