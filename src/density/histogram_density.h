// The shared core of all histogram estimators (§3.1).
//
// A histogram partitions the domain into bins (c_i, c_{i+1}] with counts
// n_i. The density estimate is f̂_H(x) = (1/n) Σ (n_i / h_i) 1[x in bin i]
// and the selectivity of Q(a, b) follows formula (4):
//
//   σ̂_H(a, b) = (1/n) Σ_i (n_i / h_i) ψ_i(a, b)
//
// with ψ_i the length of the overlap between the query and bin i. Every bin
// strictly between the first and the last bin a query touches is fully
// covered (ψ_i = h_i), so the sum is the first bin's share, plus a
// difference of running counts, plus the last bin's share: O(1) once the
// two bins are found (DESIGN.md §12). The bin *placement* policies
// (equi-width, equi-depth, max-diff, shifted) live in src/est; they all
// delegate the arithmetic to BinnedDensity.
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
  // `edges` must be finite and non-decreasing with at least two entries;
  // `counts` must be finite, non-negative, with a finite sum, and have
  // edges.size()−1 entries. `total_count` is the sample size n used for
  // normalization (usually the sum of counts, but the average shifted
  // histogram normalizes shifted copies differently).
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
  // a <= c <= b. Returns a value in [0, 1] (up to rounding): first bin's
  // share + (cumulative[last] − cumulative[first + 1]) + last bin's share.
  double Selectivity(double a, double b) const;

  // The bins formula (4) visits for [a, b]: [first, end). `first` is the
  // bin before the first edge >= a (bin 0 when there is none before it),
  // so an atom at `a` is kept; `end` is the first bin from `first` on
  // whose low edge is not <= b (num_bins() when there is none). Empty
  // when end <= first. Both bins are found from a uniform cell map of
  // the edges: near-uniform edges (equi-width, each ASH shift) settle
  // each cell with two edge comparisons; other edges search the edges of
  // the query bound's own cell. Both give the binary search's span for
  // every input.
  struct BinSpan {
    size_t first;
    size_t end;
  };
  BinSpan Locate(double a, double b) const;

  // True when the edges lie on a uniform grid (edge i within cells
  // [i − 1, i + 1) of it, for every i) and Locate needs no search.
  bool has_grid() const { return guide_.empty(); }

  // Selectivity for one SIMD block: ops.width queries at a time, each
  // out[k] bit-identical to Selectivity(a[k], b[k]). Arrays must be
  // ops.width long and kSimdAlign-aligned.
  void SelectivityBlock(const SimdOps& ops, const double* a, const double* b,
                        double* out) const {
    const HistogramView view = {
        edges_.data(),         counts_.data(), cumulative_.data(),
        static_cast<int64_t>(counts_.size()), total_count_, cell_origin_,
        has_grid() ? cell_inv_width_ : 0.0};
    ops.histogram_block(view, a, b, out);
  }

  // Bytes of storage for the edges + counts: what a system catalog would
  // persist.
  size_t StorageBytes() const;

  // This histogram with `values` bucketed into the existing bins (the same
  // clamping rule as FromSample) and the total raised by values.size().
  // Exact: folding rows one batch at a time equals bucketing them all at
  // once. An empty span returns an unchanged copy.
  BinnedDensity FoldedWith(std::span<const double> values) const;

  // Total mass at or below `x` (atoms at `x` included), read from the
  // running counts plus the share of the bin holding `x`. Used by the
  // equi-depth quantile fold.
  double MassBelow(double x) const;

 private:
  BinnedDensity(AlignedDoubles edges, AlignedDoubles counts,
                double total_count);

  // Recomputes cumulative_ from counts_ (FoldedWith changes the counts).
  void DeriveCumulative();
  // Sets the cell map, and the guide when the edges are not on a grid.
  void DeriveLocate();
  // The cell of x, clamped to [0, k − 1] (NaN to 0).
  size_t Cell(double x) const;

  AlignedDoubles edges_;
  AlignedDoubles counts_;
  double total_count_;
  // Derived state, rebuilt from edges_ and counts_; never serialized and
  // not part of StorageBytes. Running counts: cumulative_[i] = counts[0] +
  // … + counts[i−1], summed left to right (k+1 entries).
  AlignedDoubles cumulative_;
  // The cell map x ↦ ⌊(x − cell_origin_) · cell_inv_width_⌋ over k cells,
  // and, off a grid, guide_[j]: the first edge in cell j or above (k + 1
  // entries, guide_[k] = k + 1). Empty on a grid.
  double cell_origin_ = 0.0;
  double cell_inv_width_ = 0.0;
  std::vector<size_t> guide_;
};

}  // namespace selest

#endif  // SELEST_DENSITY_HISTOGRAM_DENSITY_H_
