#include "tensor/linalg.hh"

#include <cmath>

#include "util/logging.hh"

namespace vaesa {

bool
cholesky(const Matrix &a, Matrix &lower)
{
    if (a.rows() != a.cols())
        panic("cholesky requires a square matrix");
    const std::size_t n = a.rows();
    // Left-looking and column-ordered: column j of L is accumulated
    // for all its rows i >= j together, in lt's row j (the factor is
    // built transposed so one column's rows are contiguous and the
    // row loop vectorizes). Each L(i,j) still starts from a(i,j),
    // subtracts L(i,k) L(j,k) in k-ascending order and divides by
    // L(j,j): the op sequence of the textbook row-by-row loop, so the
    // factor is bitwise equal to it and the first non-positive or
    // non-finite pivot is the same one.
    std::vector<double> lt(n * n, 0.0); // lt[j * n + i] = L(i, j)
    const double *pa = a.data();
    for (std::size_t j = 0; j < n; ++j) {
        double *col = lt.data() + j * n;
        for (std::size_t i = j; i < n; ++i)
            col[i] = pa[i * n + j];
        for (std::size_t k = 0; k < j; ++k) {
            const double *colk = lt.data() + k * n;
            const double ljk = colk[j];
            for (std::size_t i = j; i < n; ++i)
                col[i] -= colk[i] * ljk;
        }
        if (col[j] <= 0.0 || !std::isfinite(col[j]))
            return false;
        const double ljj = std::sqrt(col[j]);
        col[j] = ljj;
        for (std::size_t i = j + 1; i < n; ++i)
            col[i] /= ljj;
    }
    lower = Matrix(n, n);
    double *pl = lower.data();
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = j; i < n; ++i)
            pl[i * n + j] = lt[j * n + i];
    return true;
}

void
solveLowerInPlace(const Matrix &lower, Matrix &b)
{
    const std::size_t n = lower.rows();
    if (lower.cols() != n || b.rows() != n)
        panic("solveLowerInPlace dimension mismatch");
    const std::size_t m = b.cols();
    const double *pl = lower.data();
    double *pb = b.data();
    // Row i of the result subtracts L(i,k) y_k for k ascending, then
    // divides by L(i,i): solveLower's op order for every column. The
    // columns are independent, so the c loops vectorize across them.
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = pl + i * n;
        double *__restrict__ yi = pb + i * m;
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = li[k];
            const double *__restrict__ yk = pb + k * m;
            for (std::size_t c = 0; c < m; ++c)
                yi[c] -= lik * yk[c];
        }
        const double lii = li[i];
        for (std::size_t c = 0; c < m; ++c)
            yi[c] /= lii;
    }
}

std::vector<double>
solveLower(const Matrix &lower, const std::vector<double> &b)
{
    if (b.size() != lower.rows())
        panic("solveLower dimension mismatch");
    Matrix y(b.size(), 1, b);
    solveLowerInPlace(lower, y);
    return {y.data(), y.data() + b.size()};
}

std::vector<double>
solveLowerTransposed(const Matrix &lower, const std::vector<double> &y)
{
    const std::size_t n = lower.rows();
    if (y.size() != n)
        panic("solveLowerTransposed dimension mismatch");
    std::vector<double> x(n);
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double acc = y[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= lower(k, i) * x[k];
        x[i] = acc / lower(i, i);
    }
    return x;
}

double
choleskyJittered(const Matrix &a, Matrix &lower)
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
        if (cholesky(work, lower))
            return jitter;
        jitter = (jitter == 0.0) ? 1e-10 * diag_mean : jitter * 10.0;
    }
    panic("choleskyJittered: matrix not SPD even with jitter ", jitter);
}

std::vector<double>
solveSpd(const Matrix &a, const std::vector<double> &b, double *jitter_out)
{
    Matrix lower;
    const double jitter = choleskyJittered(a, lower);
    if (jitter_out)
        *jitter_out = jitter;
    return solveLowerTransposed(lower, solveLower(lower, b));
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        panic("dot dimension mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

double
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        panic("squaredDistance dimension mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

} // namespace vaesa
