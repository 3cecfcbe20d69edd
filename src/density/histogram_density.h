// The shared core of all histogram estimators (§3.1).
//
// A histogram partitions the domain into bins (c_i, c_{i+1}] with counts
// n_i. The density estimate is f̂_H(x) = (1/n) Σ (n_i / h_i) 1[x in bin i]
// and the selectivity of Q(a, b) follows formula (4):
//
//   σ̂_H(a, b) = (1/n) Σ_i (n_i / h_i) ψ_i(a, b)
//
// with ψ_i the length of the overlap between the query and bin i. The bin
// *placement* policies (equi-width, equi-depth, max-diff, shifted) live in
// src/est; they all delegate the arithmetic to BinnedDensity.
#ifndef SELEST_DENSITY_HISTOGRAM_DENSITY_H_
#define SELEST_DENSITY_HISTOGRAM_DENSITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/util/simd.h"
#include "src/util/status.h"

namespace selest {

// An immutable histogram: k+1 edges and k counts. Zero-width bins are
// permitted (equi-depth histograms over heavily duplicated data collapse
// quantile edges) and are treated as atoms: their count contributes fully
// whenever the query covers the bin's position.
class BinnedDensity {
 public:
  // `edges` must be non-decreasing with at least two entries;
  // `counts` must have edges.size()−1 entries. `total_count` is the sample
  // size n used for normalization (usually the sum of counts, but the
  // average shifted histogram normalizes shifted copies differently).
  static StatusOr<BinnedDensity> Create(std::vector<double> edges,
                                        std::vector<double> counts,
                                        double total_count);

  // Convenience: buckets `sample` into the bins defined by `edges` (values
  // outside the edge range are clamped into the first/last bin) and
  // normalizes by the sample size.
  static StatusOr<BinnedDensity> FromSample(std::span<const double> sample,
                                            std::vector<double> edges);

  size_t num_bins() const { return counts_.size(); }
  // Edges and counts live in contiguous 64-byte-aligned strips (SoA hot
  // state for the vector batch kernels; DESIGN.md §12).
  const AlignedDoubles& edges() const { return edges_; }
  const AlignedDoubles& counts() const { return counts_; }
  double total_count() const { return total_count_; }

  // Density estimate f̂_H(x); atoms (zero-width bins) return +inf at their
  // position and are better handled through Selectivity.
  double Density(double x) const;

  // Selectivity of [a, b] per formula (4). Atoms contribute fully when
  // a <= c <= b. Returns a value in [0, 1] (up to rounding).
  double Selectivity(double a, double b) const;

  // Selectivity for one SIMD block: ops.width queries at a time, each
  // out[k] bit-identical to Selectivity(a[k], b[k]). Arrays must be
  // ops.width long and kSimdAlign-aligned.
  void SelectivityBlock(const SimdOps& ops, const double* a, const double* b,
                        double* out) const {
    ops.histogram_block(edges_.data(), counts_.data(),
                        static_cast<int64_t>(counts_.size()), total_count_, a,
                        b, out);
  }

  // Bytes of storage for the edges + counts: what a system catalog would
  // persist.
  size_t StorageBytes() const;

  // This histogram with `values` bucketed into the existing bins (the same
  // clamping rule as FromSample) and the total raised by values.size().
  // Exact: folding rows one batch at a time equals bucketing them all at
  // once. An empty span returns an unchanged copy.
  BinnedDensity FoldedWith(std::span<const double> values) const;

  // Cumulative mass strictly derived state: total mass at or below `x`
  // (atoms at `x` included). Used by the equi-depth quantile fold.
  double MassBelow(double x) const;

 private:
  BinnedDensity(AlignedDoubles edges, AlignedDoubles counts,
                double total_count)
      : edges_(std::move(edges)),
        counts_(std::move(counts)),
        total_count_(total_count) {}

  AlignedDoubles edges_;
  AlignedDoubles counts_;
  double total_count_;
};

}  // namespace selest

#endif  // SELEST_DENSITY_HISTOGRAM_DENSITY_H_
