#include "dse/gp.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/linalg.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vaesa {

GaussianProcess::GaussianProcess(Kernel kernel)
    : kernel_(kernel)
{
}

GaussianProcess::GaussianProcess(Kernel kernel, const Hyper &hyper)
    : kernel_(kernel), hyper_(hyper)
{
}

void
GaussianProcess::applyKernel(double *d2, std::size_t count) const
{
    const double ls = hyper_.lengthscale;
    switch (kernel_) {
      case Kernel::Rbf:
        for (std::size_t c = 0; c < count; ++c)
            d2[c] = std::exp(-0.5 * d2[c] / (ls * ls));
        return;
      case Kernel::Matern52:
        for (std::size_t c = 0; c < count; ++c) {
            const double r = std::sqrt(d2[c]) / ls;
            const double sq5r = std::sqrt(5.0) * r;
            d2[c] = (1.0 + sq5r + 5.0 * r * r / 3.0) * std::exp(-sq5r);
        }
        return;
    }
    panic("GaussianProcess: bad kernel");
}

void
GaussianProcess::setData(const std::vector<std::vector<double>> &xs,
                         const std::vector<double> &ys)
{
    if (xs.empty() || xs.size() != ys.size())
        panic("GaussianProcess::fit: bad observation set (",
              xs.size(), " xs, ", ys.size(), " ys)");
    xs_ = xs;

    yMean_ = mean(ys);
    yStd_ = stddev(ys);
    // stddev() is NaN for fewer than two observations and ~0 for
    // identical ones; !(x > t) is the NaN-safe form of (x < t), so
    // both degenerate sets fall back to unit scale instead of
    // dividing by NaN/0 and poisoning every standardized label.
    if (!(yStd_ > 1e-12))
        yStd_ = 1.0;
    yStandardized_.resize(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        yStandardized_[i] = (ys[i] - yMean_) / yStd_;
}

Matrix
GaussianProcess::kernelMatrix() const
{
    const std::size_t n = xs_.size();
    Matrix k(n, n);
    double *pk = k.data();
    for (std::size_t i = 0; i < n; ++i) {
        double *row = pk + i * n;
        for (std::size_t j = 0; j <= i; ++j)
            row[j] = squaredDistance(xs_[i], xs_[j]);
        applyKernel(row, i + 1);
        for (std::size_t j = 0; j < i; ++j)
            pk[j * n + i] = row[j];
    }
    return k;
}

void
GaussianProcess::factorize(Matrix k)
{
    const std::size_t n = k.rows();
    for (std::size_t i = 0; i < n; ++i)
        k.data()[i * n + i] += hyper_.noiseVar;

    choleskyJittered(k, choleskyLower_);
    alpha_ = solveLowerTransposed(
        choleskyLower_, solveLower(choleskyLower_, yStandardized_));

    // log p(y) = -0.5 y^T alpha - sum log L_ii - n/2 log(2 pi).
    double quad = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        quad += yStandardized_[i] * alpha_[i];
    double log_det_half = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        log_det_half += std::log(choleskyLower_.data()[i * n + i]);
    logLik_ = -0.5 * quad - log_det_half -
              0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &xs,
                     const std::vector<double> &ys)
{
    setData(xs, ys);
    factorize(kernelMatrix());
}

void
GaussianProcess::predictBatch(std::span<const std::vector<double>> xs,
                              std::span<Prediction> out) const
{
    if (xs_.empty())
        panic("GaussianProcess::predict before fit");
    if (out.size() != xs.size())
        panic("GaussianProcess::predictBatch: ", xs.size(),
              " points but ", out.size(), " outputs");
    const std::size_t n = xs_.size();
    const std::size_t dim = xs_.front().size();
    for (const std::vector<double> &x : xs)
        if (x.size() != dim)
            panic("GaussianProcess::predict: point has ", x.size(),
                  " dims, the fit has ", dim);
    // xt holds the block's points transposed (dim x block); ks holds
    // K* (n x block, one column per point), then V = L^{-1} K* after
    // the in-place solve. Every loop below runs over the block's
    // points innermost, so each point sees exactly the op sequence of
    // a one-point posterior: squared distances summed over d
    // ascending, and the mean and variance sums over i ascending.
    std::vector<double> xt;
    Matrix ks;
    std::vector<double> mean_std;
    std::vector<double> var_std;
    for (std::size_t b0 = 0; b0 < xs.size(); b0 += kPredictBlock) {
        const std::size_t bw = std::min(kPredictBlock, xs.size() - b0);
        xt.resize(dim * bw);
        for (std::size_t c = 0; c < bw; ++c)
            for (std::size_t d = 0; d < dim; ++d)
                xt[d * bw + c] = xs[b0 + c][d];

        ks.resizeBuffer(n, bw);
        for (std::size_t i = 0; i < n; ++i) {
            double *row = ks.data() + i * bw;
            std::fill(row, row + bw, 0.0);
            for (std::size_t d = 0; d < dim; ++d) {
                const double xid = xs_[i][d];
                const double *xd = xt.data() + d * bw;
                for (std::size_t c = 0; c < bw; ++c) {
                    const double diff = xd[c] - xid;
                    row[c] += diff * diff;
                }
            }
            applyKernel(row, bw);
        }

        mean_std.assign(bw, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const double *row = ks.data() + i * bw;
            const double a = alpha_[i];
            for (std::size_t c = 0; c < bw; ++c)
                mean_std[c] += row[c] * a;
        }

        solveLowerInPlace(choleskyLower_, ks);
        var_std.assign(bw, 0.0);
        for (std::size_t d = 0; d < dim; ++d) {
            const double *xd = xt.data() + d * bw;
            for (std::size_t c = 0; c < bw; ++c) {
                const double diff = xd[c] - xd[c];
                var_std[c] += diff * diff;
            }
        }
        applyKernel(var_std.data(), bw);
        for (std::size_t i = 0; i < n; ++i) {
            const double *row = ks.data() + i * bw;
            for (std::size_t c = 0; c < bw; ++c)
                var_std[c] -= row[c] * row[c];
        }

        for (std::size_t c = 0; c < bw; ++c) {
            // Clamp BEFORE the caller takes sqrt: near-duplicate rows
            // make the subtraction catastrophically cancel, which can
            // leave a slightly negative or (through a degenerate
            // solve) NaN residual variance. (var < 0.0) is false for
            // NaN and would let it through, so test the NaN-safe
            // complement instead.
            const double var = var_std[c] > 0.0 ? var_std[c] : 0.0;
            out[b0 + c] = {yMean_ + yStd_ * mean_std[c],
                           yStd_ * yStd_ * var};
        }
    }
}

GaussianProcess::Prediction
GaussianProcess::predict(const std::vector<double> &x) const
{
    Prediction pred;
    predictBatch({&x, 1}, {&pred, 1});
    return pred;
}

double
GaussianProcess::logMarginalLikelihood() const
{
    if (xs_.empty())
        panic("logMarginalLikelihood before fit");
    return logLik_;
}

void
GaussianProcess::fitWithHyperSearch(
    const std::vector<std::vector<double>> &xs,
    const std::vector<double> &ys)
{
    static const double lengthscales[] = {0.05, 0.1, 0.2, 0.4, 0.8,
                                          1.6};
    static const double noises[] = {1e-6, 1e-4, 1e-2};

    setData(xs, ys);
    Hyper best = hyper_;
    double best_lik = -1e300;
    Matrix best_lower;
    std::vector<double> best_alpha;
    for (double ls : lengthscales) {
        hyper_.lengthscale = ls;
        const Matrix k = kernelMatrix();
        for (double nv : noises) {
            hyper_.noiseVar = nv;
            factorize(k);
            if (logLik_ > best_lik) {
                best_lik = logLik_;
                best = hyper_;
                std::swap(best_lower, choleskyLower_);
                std::swap(best_alpha, alpha_);
            }
        }
    }
    hyper_ = best;
    if (best_alpha.empty()) {
        // No grid point beat the sentinel (every likelihood NaN):
        // keep the starting hyperparameters, as fit() would.
        factorize(kernelMatrix());
        return;
    }
    choleskyLower_ = std::move(best_lower);
    alpha_ = std::move(best_alpha);
    logLik_ = best_lik;
}

double
normalPdf(double z)
{
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

} // namespace vaesa
