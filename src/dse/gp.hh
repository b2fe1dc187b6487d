/**
 * @file
 * Gaussian-process regression for Bayesian optimization.
 *
 * Supports RBF and Matern-5/2 kernels with isotropic lengthscale,
 * observation noise, and internal y-standardization. Hyperparameters
 * are selected by maximizing the log marginal likelihood over a small
 * grid, which is robust and deterministic.
 */

#ifndef VAESA_DSE_GP_HH
#define VAESA_DSE_GP_HH

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.hh"

namespace vaesa {

/** Gaussian-process regressor with a fixed kernel family. */
class GaussianProcess
{
  public:
    /** Kernel family. */
    enum class Kernel { Rbf, Matern52 };

    /** Kernel hyperparameters (y is standardized internally, so the
     *  signal variance is fixed at 1). */
    struct Hyper
    {
        /** Isotropic lengthscale in box units. */
        double lengthscale = 0.3;

        /** Observation-noise variance (standardized units). */
        double noiseVar = 1e-4;
    };

    /** Construct with a kernel family and default hyperparameters. */
    explicit GaussianProcess(Kernel kernel = Kernel::Matern52);

    /** Construct with a kernel family and hyperparameters. */
    GaussianProcess(Kernel kernel, const Hyper &hyper);

    /**
     * Fit to observations. Inputs are copied; y is standardized
     * internally. Requires at least one observation.
     */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys);

    /** Posterior mean and variance at one point. */
    struct Prediction
    {
        /** Posterior mean in original y units. */
        double mean;

        /** Posterior variance in original y^2 units (>= 0). */
        double var;
    };

    /** Points scored per posterior block: the unit of work BayesOpt
     *  fans out across its pool. */
    static constexpr std::size_t kPredictBlock = 64;

    /**
     * Posterior at a batch of points: out[c] for xs[c]. Requires a
     * prior fit(). Points are scored kPredictBlock at a time: K* for
     * the block, the mean, one multi-right-hand-side forward solve and
     * the variance terms, vectorized across points while every point
     * keeps its own k-ascending op order. A point's result is
     * therefore bitwise independent of the batch it rides in.
     */
    void predictBatch(std::span<const std::vector<double>> xs,
                      std::span<Prediction> out) const;

    /** Predict at one point: a predictBatch() of one. */
    Prediction predict(const std::vector<double> &x) const;

    /** Log marginal likelihood of the last fit (standardized y). */
    double logMarginalLikelihood() const;

    /**
     * Pick hyperparameters by grid-searching lengthscale x noise for
     * the maximum log marginal likelihood and keep the winner's fit.
     * The kernel matrix is built once per lengthscale; the noise
     * levels only change its diagonal.
     */
    void fitWithHyperSearch(const std::vector<std::vector<double>> &xs,
                            const std::vector<double> &ys);

    /** Current hyperparameters. */
    const Hyper &hyper() const { return hyper_; }

    /** Set hyperparameters (takes effect at the next fit). */
    void setHyper(const Hyper &hyper) { hyper_ = hyper; }

    /** Number of fitted observations (0 before fit). */
    std::size_t sampleCount() const { return xs_.size(); }

  private:
    /** Validate and store the observations; standardize ys. */
    void setData(const std::vector<std::vector<double>> &xs,
                 const std::vector<double> &ys);

    /** Map count squared distances to kernel values in place (unit
     *  signal variance). */
    void applyKernel(double *d2, std::size_t count) const;

    /** Noise-free kernel matrix of the stored inputs. */
    Matrix kernelMatrix() const;

    /** Factor k + noiseVar I; set alpha and the log likelihood. */
    void factorize(Matrix k);

    Kernel kernel_;
    Hyper hyper_;
    std::vector<std::vector<double>> xs_;
    std::vector<double> yStandardized_;
    std::vector<double> alpha_;
    Matrix choleskyLower_;
    double yMean_ = 0.0;
    double yStd_ = 1.0;
    double logLik_ = 0.0;
};

/** Standard normal probability density. */
double normalPdf(double z);

/** Standard normal cumulative distribution (via erf). */
double normalCdf(double z);

} // namespace vaesa

#endif // VAESA_DSE_GP_HH
