/**
 * @file
 * Minimal dense-matrix support for the statistics substrate.
 *
 * The characterization pipeline only needs small matrices (tens of
 * workloads by tens of features), so this is a straightforward
 * row-major container with the handful of operations PCA and
 * clustering require.
 */

#ifndef RODINIA_STATS_MATRIX_HH
#define RODINIA_STATS_MATRIX_HH

#include <cstddef>
#include <vector>

namespace rodinia {
namespace stats {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a rows-by-cols matrix of zeros. */
    Matrix(size_t rows, size_t cols);

    /** Construct from nested initializer data (rows of equal width). */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    size_t rows() const { return nRows; }
    size_t cols() const { return nCols; }

    double &at(size_t r, size_t c) { return elems[r * nCols + c]; }
    double at(size_t r, size_t c) const { return elems[r * nCols + c]; }

    /** Matrix transpose. */
    Matrix transposed() const;

    /** Matrix product this * rhs. Dimensions must agree. */
    Matrix multiply(const Matrix &rhs) const;

    /** Per-column means. */
    std::vector<double> colMeans() const;

    /** Per-column sample standard deviations (divide by n - 1). */
    std::vector<double> colStddevs() const;

    /**
     * Return a copy with each column shifted to zero mean and scaled
     * to unit variance. Constant columns are left at zero (rather
     * than dividing by zero) since they carry no information.
     */
    Matrix standardized() const;

    /** Sample covariance matrix of the columns (cols x cols). */
    Matrix covariance() const;

  private:
    size_t nRows = 0;
    size_t nCols = 0;
    std::vector<double> elems;
};

} // namespace stats
} // namespace rodinia

#endif // RODINIA_STATS_MATRIX_HH
