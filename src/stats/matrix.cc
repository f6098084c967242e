#include "stats/matrix.hh"

#include <cmath>

#include "support/logging.hh"

namespace rodinia {
namespace stats {

Matrix::Matrix(size_t rows, size_t cols)
    : nRows(rows), nCols(cols), elems(rows * cols, 0.0)
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    if (rows.empty())
        return Matrix();
    Matrix m(rows.size(), rows[0].size());
    for (size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != m.nCols)
            fatal("Matrix::fromRows: ragged input at row ", r);
        for (size_t c = 0; c < m.nCols; ++c)
            m.at(r, c) = rows[r][c];
    }
    return m;
}

Matrix
Matrix::transposed() const
{
    Matrix t(nCols, nRows);
    for (size_t r = 0; r < nRows; ++r)
        for (size_t c = 0; c < nCols; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

Matrix
Matrix::multiply(const Matrix &rhs) const
{
    if (nCols != rhs.nRows)
        panic("Matrix::multiply: dimension mismatch (", nRows, "x", nCols,
              ") * (", rhs.nRows, "x", rhs.nCols, ")");
    Matrix out(nRows, rhs.nCols);
    for (size_t r = 0; r < nRows; ++r) {
        for (size_t k = 0; k < nCols; ++k) {
            double v = at(r, k);
            if (v == 0.0)
                continue;
            for (size_t c = 0; c < rhs.nCols; ++c)
                out.at(r, c) += v * rhs.at(k, c);
        }
    }
    return out;
}

std::vector<double>
Matrix::colMeans() const
{
    std::vector<double> means(nCols, 0.0);
    if (nRows == 0)
        return means;
    for (size_t r = 0; r < nRows; ++r)
        for (size_t c = 0; c < nCols; ++c)
            means[c] += at(r, c);
    for (auto &m : means)
        m /= double(nRows);
    return means;
}

std::vector<double>
Matrix::colStddevs() const
{
    std::vector<double> sd(nCols, 0.0);
    if (nRows < 2)
        return sd;
    auto means = colMeans();
    for (size_t r = 0; r < nRows; ++r) {
        for (size_t c = 0; c < nCols; ++c) {
            double d = at(r, c) - means[c];
            sd[c] += d * d;
        }
    }
    for (auto &v : sd)
        v = std::sqrt(v / double(nRows - 1));
    return sd;
}

Matrix
Matrix::standardized() const
{
    auto means = colMeans();
    auto sds = colStddevs();
    Matrix out(nRows, nCols);
    for (size_t r = 0; r < nRows; ++r) {
        for (size_t c = 0; c < nCols; ++c) {
            double sd = sds[c];
            out.at(r, c) = sd > 1e-12 ? (at(r, c) - means[c]) / sd : 0.0;
        }
    }
    return out;
}

Matrix
Matrix::covariance() const
{
    auto means = colMeans();
    Matrix cov(nCols, nCols);
    if (nRows < 2)
        return cov;
    for (size_t r = 0; r < nRows; ++r) {
        for (size_t i = 0; i < nCols; ++i) {
            double di = at(r, i) - means[i];
            for (size_t j = i; j < nCols; ++j)
                cov.at(i, j) += di * (at(r, j) - means[j]);
        }
    }
    for (size_t i = 0; i < nCols; ++i) {
        for (size_t j = i; j < nCols; ++j) {
            cov.at(i, j) /= double(nRows - 1);
            cov.at(j, i) = cov.at(i, j);
        }
    }
    return cov;
}

} // namespace stats
} // namespace rodinia
