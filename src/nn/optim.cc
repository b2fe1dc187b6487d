#include "nn/optim.hh"

#include <cmath>

#include "nn/serialize.hh"
#include "tensor/kernels/kernels.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

namespace vaesa::nn {

namespace {

/** Shared ShapeMismatch builder for optimizer-state loaders. */
LoadError
stateError(const std::string &message)
{
    return makeLoadError(LoadError::Kind::ShapeMismatch, "", 0,
                         "optimizer state: " + message);
}

} // namespace

Optimizer::Optimizer(std::vector<Parameter *> params)
    : params_(std::move(params))
{
    for (Parameter *p : params_)
        if (!p)
            panic("Optimizer received a null parameter");
}

void
Optimizer::zeroGrad()
{
    for (Parameter *p : params_)
        p->zeroGrad();
}

void
Optimizer::serializeState(ByteBuffer &) const
{}

std::optional<LoadError>
Optimizer::deserializeState(ByteReader &)
{
    return std::nullopt;
}

Sgd::Sgd(std::vector<Parameter *> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum)
{
    velocity_.reserve(params_.size());
    for (Parameter *p : params_)
        velocity_.emplace_back(p->value.rows(), p->value.cols());
}

void
Sgd::step()
{
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Parameter *p = params_[i];
        if (momentum_ != 0.0) {
            velocity_[i].scale(momentum_);
            velocity_[i].addScaled(p->grad, 1.0);
            p->value.addScaled(velocity_[i], -lr_);
        } else {
            p->value.addScaled(p->grad, -lr_);
        }
    }
}

void
Sgd::serializeState(ByteBuffer &out) const
{
    out.putU64(velocity_.size());
    for (const Matrix &v : velocity_)
        putMatrix(out, v);
}

std::optional<LoadError>
Sgd::deserializeState(ByteReader &in)
{
    const std::uint64_t count = in.getU64();
    if (in.failed() || count != velocity_.size())
        return stateError("SGD velocity count mismatch");
    for (Matrix &v : velocity_)
        if (!readMatrixInto(in, v))
            return stateError("SGD velocity shape mismatch");
    return std::nullopt;
}

Adam::Adam(std::vector<Parameter *> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1),
      beta2_(beta2), eps_(eps)
{
    firstMoment_.reserve(params_.size());
    secondMoment_.reserve(params_.size());
    for (Parameter *p : params_) {
        firstMoment_.emplace_back(p->value.rows(), p->value.cols());
        secondMoment_.emplace_back(p->value.rows(), p->value.cols());
    }
}

void
Adam::step()
{
    ++stepCount_;
    const double bc1 = 1.0 - std::pow(beta1_, stepCount_);
    const double bc2 = 1.0 - std::pow(beta2_, stepCount_);
    const kernels::AdamStep coeffs{lr_, beta1_, beta2_, eps_, bc1, bc2};
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Parameter *p = params_[i];
        VAESA_CHECK_FINITE_ALL(p->grad, "Adam::step gradient for "
                               "parameter ", i);
        kernels::adamUpdate(p->value.size(), p->value.data(),
                            firstMoment_[i].data(),
                            secondMoment_[i].data(), p->grad.data(),
                            coeffs);
    }
}

void
Adam::serializeState(ByteBuffer &out) const
{
    out.putU64(static_cast<std::uint64_t>(stepCount_));
    out.putU64(firstMoment_.size());
    for (std::size_t i = 0; i < firstMoment_.size(); ++i) {
        putMatrix(out, firstMoment_[i]);
        putMatrix(out, secondMoment_[i]);
    }
}

std::optional<LoadError>
Adam::deserializeState(ByteReader &in)
{
    const std::uint64_t steps = in.getU64();
    const std::uint64_t count = in.getU64();
    if (in.failed() || count != firstMoment_.size())
        return stateError("Adam moment count mismatch");
    for (std::size_t i = 0; i < firstMoment_.size(); ++i)
        if (!readMatrixInto(in, firstMoment_[i]) ||
            !readMatrixInto(in, secondMoment_[i]))
            return stateError("Adam moment shape mismatch");
    stepCount_ = static_cast<long>(steps);
    return std::nullopt;
}

} // namespace vaesa::nn
