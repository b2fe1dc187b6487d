/**
 * @file
 * Runtime contract checks for the layer boundaries of the pipeline.
 *
 * VAESA_EXPECT() states a precondition, VAESA_ENSURE() a
 * postcondition, and VAESA_CHECK_FINITE() rejects NaN/Inf scalars at
 * the numeric boundaries (losses, gradients, cost-model outputs).
 * Latent-space DSE is numerically fragile: a NaN produced inside one
 * subsystem otherwise only surfaces three subsystems later as a flat
 * BO curve, so these checks fail fast where the bad value is born.
 *
 * The checks compile to unevaluated no-ops unless the translation
 * unit is built with VAESA_CHECKS=1 (the `VAESA_CHECKS` CMake
 * option; ON by default in Debug and in the sanitizer presets, OFF in
 * plain Release). A violation throws ContractViolation rather than
 * aborting, so a long-running server can catch it at the request
 * boundary and fail one request instead of the process; uncaught it
 * still terminates loudly like panic().
 */

#ifndef VAESA_UTIL_CONTRACTS_HH
#define VAESA_UTIL_CONTRACTS_HH

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/logging.hh"

namespace vaesa {

/**
 * Thrown on a failed VAESA_EXPECT/VAESA_ENSURE/VAESA_CHECK_FINITE.
 * Derives from std::logic_error: a violation is a programming error
 * or corrupted input, never a recoverable condition of the algorithm.
 */
class ContractViolation : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/**
 * Report a failed contract: logs the violation and throws
 * ContractViolation. Out of line so the check macros stay small.
 */
[[noreturn]] void contractFail(const char *kind, const char *expr,
                               const char *file, int line,
                               const std::string &message);

/**
 * True when the vaesa libraries themselves were compiled with
 * VAESA_CHECKS=1. Tests use this to skip library-boundary contract
 * tests in builds where the checks are compiled out. (A test TU can
 * still force the macros on locally by defining VAESA_CHECKS before
 * including this header.)
 */
bool contractChecksActive();

namespace detail {

/** True when every element of a Matrix-like object is finite. */
template <typename M>
bool
allFinite(const M &m)
{
    const double *p = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

} // namespace detail

} // namespace vaesa

#if !defined(VAESA_CHECKS)
#define VAESA_CHECKS 0
#endif

#if VAESA_CHECKS

#define VAESA_CONTRACT_IMPL_(kind, cond, ...)                           \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::vaesa::contractFail(                                      \
                kind, #cond, __FILE__, __LINE__,                        \
                ::vaesa::detail::concat("" __VA_OPT__(, ) __VA_ARGS__));\
        }                                                               \
    } while (false)

/** Precondition: must hold on entry; extra args describe the context. */
#define VAESA_EXPECT(cond, ...)                                         \
    VAESA_CONTRACT_IMPL_("precondition", cond, __VA_ARGS__)

/** Postcondition: must hold on the produced result. */
#define VAESA_ENSURE(cond, ...)                                         \
    VAESA_CONTRACT_IMPL_("postcondition", cond, __VA_ARGS__)

/** Reject a NaN/Inf scalar (evaluates `value` exactly once). */
#define VAESA_CHECK_FINITE(value, ...)                                  \
    do {                                                                \
        const double vaesa_cf_value_ =                                  \
            static_cast<double>(value);                                 \
        if (!std::isfinite(vaesa_cf_value_)) {                          \
            ::vaesa::contractFail(                                      \
                "finite-check", #value, __FILE__, __LINE__,             \
                ::vaesa::detail::concat(                                \
                    "value=", vaesa_cf_value_                           \
                    __VA_OPT__(, " ", ) __VA_ARGS__));                  \
        }                                                               \
    } while (false)

/** Reject a Matrix (or Matrix-like) containing any NaN/Inf element. */
#define VAESA_CHECK_FINITE_ALL(matrix, ...)                             \
    do {                                                                \
        if (!::vaesa::detail::allFinite(matrix)) {                      \
            ::vaesa::contractFail(                                      \
                "finite-check", #matrix, __FILE__, __LINE__,            \
                ::vaesa::detail::concat(                                \
                    "non-finite element" __VA_OPT__(, " ", )            \
                    __VA_ARGS__));                                      \
        }                                                               \
    } while (false)

#else

// Disabled checks name their arguments only inside sizeof, which
// never evaluates its operand: nothing runs, yet a variable that
// exists only to be checked does not trip -Wunused-variable in
// Release -Werror builds.
#define VAESA_CONTRACT_UNEVALUATED_(expr, ...)                          \
    ((void)sizeof(expr),                                                \
     (void)sizeof(::vaesa::detail::concat("" __VA_OPT__(, ) __VA_ARGS__)))

#define VAESA_EXPECT(cond, ...)                                         \
    VAESA_CONTRACT_UNEVALUATED_(cond, __VA_ARGS__)
#define VAESA_ENSURE(cond, ...)                                         \
    VAESA_CONTRACT_UNEVALUATED_(cond, __VA_ARGS__)
#define VAESA_CHECK_FINITE(value, ...)                                  \
    VAESA_CONTRACT_UNEVALUATED_(value, __VA_ARGS__)
#define VAESA_CHECK_FINITE_ALL(matrix, ...)                             \
    VAESA_CONTRACT_UNEVALUATED_(matrix, __VA_ARGS__)

#endif // VAESA_CHECKS

#endif // VAESA_UTIL_CONTRACTS_HH
