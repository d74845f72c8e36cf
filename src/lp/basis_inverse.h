// Dense basis inverse that knows where its zeros are.
//
// The revised simplex (revised.cpp) keeps B⁻¹ as a dense m×m row-major
// array. For the block-angular placement LPs nearly every entry stays an
// exact zero: with 200 seeds on one switch (m = 604) only 0.24% of the
// multiply-adds of a full BTRAN sweep touch a nonzero. So each row also
// carries a list of column indices that is a superset of the row's
// nonzeros. The identity starts every row i at {i}; a pivot on row r
// changes row i only by a multiple of row r, so row i's new nonzeros lie in
// the union of the two lists, and that union becomes row i's list. Each
// column keeps the transpose: the rows whose list holds it. BTRAN and the
// pivot update loop over row lists, FTRAN over column lists, instead of
// all m entries.
//
// Exactness: every skipped operation is `x ± 0·v` or `0 / p` on finite
// values, and the operations that remain run on the same operands in the
// same order as the full sweep (each entry of w, y and B⁻¹ receives its
// terms in ascending order of the row or column they come from). Every
// nonzero result is therefore bit-identical to the dense loops; only the
// sign of an exact zero may differ, which no comparison in the solver can
// observe.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace farm::lp {

class BasisInverse {
 public:
  // The identity of order m.
  void reset(std::size_t m) {
    m_ = m;
    a_.assign(m * m, 0.0);
    index_.resize(m);
    col_index_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      a_[i * m + i] = 1.0;
      index_[i].assign(1, static_cast<std::uint32_t>(i));
      col_index_[i].assign(1, static_cast<std::uint32_t>(i));
    }
    stamp_.assign(m, 0);
    epoch_ = 0;
  }

  const double* row(std::size_t i) const { return a_.data() + i * m_; }
  // Columns of row i, unordered: a superset of its nonzeros.
  const std::vector<std::uint32_t>& row_index(std::size_t i) const {
    return index_[i];
  }
  // Rows whose list holds column c, unordered.
  const std::vector<std::uint32_t>& col_index(std::size_t c) const {
    return col_index_[c];
  }

  // w = B⁻¹·a for a sparse column a given as (row, value) pairs with
  // ascending rows. `support` receives, unordered, the rows of w that can
  // be nonzero; every other entry is +0.
  void ftran(const std::uint32_t* rows, const double* vals, std::size_t nnz,
             double* w, std::vector<std::uint32_t>& support) {
    for (std::size_t i = 0; i < m_; ++i) w[i] = 0.0;
    support.clear();
    const std::uint64_t tag = ++epoch_;
    for (std::size_t k = 0; k < nnz; ++k) {
      const double v = vals[k];
      const double* col = a_.data() + rows[k];
      for (std::uint32_t i : col_index_[rows[k]]) {
        w[i] += col[i * m_] * v;
        if (stamp_[i] != tag) {
          stamp_[i] = tag;
          support.push_back(i);
        }
      }
    }
  }

  // y += c · (row i of B⁻¹).
  void add_row(double c, std::size_t i, double* y) const {
    const double* r = row(i);
    for (std::uint32_t col : index_[i]) y[col] += c * r[col];
  }

  // Basis change: the column whose image under B⁻¹ is w (rows outside
  // `support` zero, as ftran leaves them) enters on row `leave`. Rows whose
  // multiplier |w_i| is below `drop` are left as they are.
  void pivot(const double* w, const std::vector<std::uint32_t>& support,
             std::size_t leave, double drop) {
    double* prow = a_.data() + leave * m_;
    const std::vector<std::uint32_t>& pidx = index_[leave];
    const double piv = w[leave];
    for (std::uint32_t c : pidx) prow[c] /= piv;
    for (std::uint32_t i : support) {
      if (i == leave) continue;
      const double f = w[i];
      if (std::abs(f) < drop) continue;
      double* r = a_.data() + std::size_t{i} * m_;
      for (std::uint32_t c : pidx) r[c] -= f * prow[c];
      merge_index(i, pidx);
    }
  }

 private:
  // index_[i] ∪= add, without sorting: stamp row i's columns, append the
  // unstamped ones (and row i to their column lists).
  void merge_index(std::uint32_t i, const std::vector<std::uint32_t>& add) {
    std::vector<std::uint32_t>& idx = index_[i];
    const std::uint64_t tag = ++epoch_;
    for (std::uint32_t c : idx) stamp_[c] = tag;
    for (std::uint32_t c : add)
      if (stamp_[c] != tag) {
        idx.push_back(c);
        col_index_[c].push_back(i);
      }
  }

  std::size_t m_ = 0;
  std::vector<double> a_;                              // m×m, row-major
  std::vector<std::vector<std::uint32_t>> index_;      // per row
  std::vector<std::vector<std::uint32_t>> col_index_;  // per column
  std::vector<std::uint64_t> stamp_;  // per row or column, by epoch
  std::uint64_t epoch_ = 0;
};

}  // namespace farm::lp
