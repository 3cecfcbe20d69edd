#include "src/density/histogram_density.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace selest {

StatusOr<BinnedDensity> BinnedDensity::Create(std::vector<double> edges,
                                              std::vector<double> counts,
                                              double total_count) {
  if (edges.size() < 2) {
    return InvalidArgumentError("histogram needs at least two edges");
  }
  if (counts.size() + 1 != edges.size()) {
    return InvalidArgumentError("counts must have edges.size()-1 entries");
  }
  if (!(total_count > 0.0) || !std::isfinite(total_count)) {
    return InvalidArgumentError("total_count must be positive and finite");
  }
  for (double e : edges) {
    if (!std::isfinite(e)) return InvalidArgumentError("edges must be finite");
  }
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    if (edges[i] > edges[i + 1]) {
      return InvalidArgumentError("edges must be non-decreasing");
    }
  }
  // Finite counts with a finite sum keep every running-count difference
  // finite; the sum is the last running count.
  double sum = 0.0;
  for (double c : counts) {
    if (!(c >= 0.0)) return InvalidArgumentError("counts must be non-negative");
    sum += c;
  }
  if (!std::isfinite(sum)) {
    return InvalidArgumentError("counts must have a finite sum");
  }
  return BinnedDensity(AlignedDoubles(edges.begin(), edges.end()),
                       AlignedDoubles(counts.begin(), counts.end()),
                       total_count);
}

BinnedDensity::BinnedDensity(AlignedDoubles edges, AlignedDoubles counts,
                             double total_count)
    : edges_(std::move(edges)),
      counts_(std::move(counts)),
      total_count_(total_count) {
  DeriveCumulative();
  DeriveLocate();
}

void BinnedDensity::DeriveCumulative() {
  cumulative_.resize(counts_.size() + 1);
  double sum = 0.0;
  cumulative_[0] = sum;
  for (size_t i = 0; i < counts_.size(); ++i) {
    sum += counts_[i];
    cumulative_[i + 1] = sum;
  }
}

void BinnedDensity::DeriveLocate() {
  const size_t k = num_bins();
  guide_.clear();
  // The grid is fitted to edges 1..k−1: a shifted equi-width histogram's
  // leading partial bin and a trailing edge clamped to the domain are the
  // only off-grid edges it has. Locate needs every edge i in cells
  // [i − 1, i + 1) of the grid. Then for x in cell c, with g = ⌊c⌋ clamped
  // to [0, k − 1], edge g − 1 lies in a cell below c and edge g + 2 in one
  // above it; the cell map is monotone, so x's lower-bound index and its
  // count of edges <= x are each g, g + 1 or g + 2.
  if (k >= 3) {
    const double width =
        (edges_[k - 1] - edges_[1]) / static_cast<double>(k - 2);
    cell_origin_ = edges_[1] - width;
    cell_inv_width_ = 1.0 / width;
    bool on_grid = width > 0.0 && std::isfinite(cell_inv_width_);
    for (size_t i = 0; on_grid && i <= k; ++i) {
      const double cell = (edges_[i] - cell_origin_) * cell_inv_width_;
      const double index = static_cast<double>(i);
      on_grid = cell >= index - 1.0 && cell < index + 1.0;
    }
    if (on_grid) return;
  }
  // Other edges: k equal cells over [edges.front(), edges.back()] (one
  // cell when the range is empty or its width does not invert), and
  // guide_[j] = the first edge in cell j or above; guide_[k] = k + 1.
  cell_origin_ = edges_.front();
  cell_inv_width_ =
      static_cast<double>(k) / (edges_.back() - edges_.front());
  if (!std::isfinite(cell_inv_width_)) cell_inv_width_ = 0.0;
  guide_.resize(k + 1);
  size_t i = 0;
  for (size_t j = 0; j < k; ++j) {
    while (i <= k && Cell(edges_[i]) < j) ++i;
    guide_[j] = i;
  }
  guide_[k] = k + 1;
}

namespace {

// Bin i's term of formula (4) for [a, b], in counts: the full count of an
// atom with a <= lo <= b, else count · overlap/width when the overlap is
// positive. `overlap <= 0.0` is the skip test, not `!(overlap > 0.0)`: a
// NaN bound's NaN overlap is kept. histogram_block replays these
// operations lane for lane.
double BinMass(const double* edges, const double* counts, size_t i, double a,
               double b) {
  const double lo = edges[i];
  const double hi = edges[i + 1];
  const double width = hi - lo;
  if (width <= 0.0) return lo >= a && lo <= b ? counts[i] : 0.0;
  const double overlap = std::min(b, hi) - std::max(a, lo);
  if (overlap <= 0.0) return 0.0;
  return counts[i] * (overlap / width);
}

// Bin i covers (edges[i], edges[i+1]]; the first bin also includes its
// left edge so the full edge range is covered. Out-of-range values clamp
// into the first/last bin. Shared by FromSample and FoldedWith so batch
// builds and incremental folds bucket identically.
size_t BucketIndex(std::span<const double> edges, size_t num_bins, double v) {
  const size_t pos = BranchFreeLowerBound(edges.data(), edges.size(), v);
  const size_t bin = pos == 0 ? 0 : pos - 1;
  return std::min(bin, num_bins - 1);
}

}  // namespace

StatusOr<BinnedDensity> BinnedDensity::FromSample(
    std::span<const double> sample, std::vector<double> edges) {
  if (sample.empty()) {
    return InvalidArgumentError("histogram needs a non-empty sample");
  }
  if (edges.size() < 2) {
    return InvalidArgumentError("histogram needs at least two edges");
  }
  std::vector<double> counts(edges.size() - 1, 0.0);
  for (double v : sample) {
    counts[BucketIndex(edges, counts.size(), v)] += 1.0;
  }
  const double total = static_cast<double>(sample.size());
  return Create(std::move(edges), std::move(counts), total);
}

double BinnedDensity::Density(double x) const {
  if (x < edges_.front() || x > edges_.back()) return 0.0;
  auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  size_t bin = it == edges_.begin()
                   ? 0
                   : static_cast<size_t>(it - edges_.begin()) - 1;
  bin = std::min(bin, counts_.size() - 1);
  const double width = edges_[bin + 1] - edges_[bin];
  if (width <= 0.0) {
    return counts_[bin] > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return counts_[bin] / (total_count_ * width);
}

size_t BinnedDensity::Cell(double x) const {
  double cell = (x - cell_origin_) * cell_inv_width_;
  if (!(cell >= 0.0)) cell = 0.0;  // below the map, or NaN
  const double top = static_cast<double>(num_bins() - 1);
  if (cell > top) cell = top;
  return static_cast<size_t>(cell);
}

BinnedDensity::BinSpan BinnedDensity::Locate(double a, double b) const {
  const double* e = edges_.data();
  const size_t k = num_bins();
  const size_t ca = Cell(a);
  const size_t cb = Cell(b);
  if (has_grid()) {
    // Two comparisons step each cell to the exact index (DeriveLocate);
    // NaN maps to cell 0 and compares false, as the searches do.
    const size_t lower = ca + (e[ca] < a) + (e[ca + 1] < a);
    const size_t end = std::min(cb + (e[cb] <= b) + (e[cb + 1] <= b), k);
    return {lower == 0 ? 0 : lower - 1, end};
  }
  // Edges in a lower cell than x are < x and edges in a higher cell are
  // > x (the cell map is monotone), so each search covers x's own cell.
  // lower_bound (not upper_bound) so that a zero-width atom bin located
  // exactly at `a` is not skipped. A NaN b has no edge <= it, though
  // upper_bound would count its whole cell.
  const size_t lower =
      guide_[ca] +
      BranchFreeLowerBound(e + guide_[ca], guide_[ca + 1] - guide_[ca], a);
  const size_t end =
      std::isnan(b)
          ? 0
          : std::min(guide_[cb] + BranchFreeUpperBound(
                                      e + guide_[cb],
                                      guide_[cb + 1] - guide_[cb], b),
                     k);
  return {lower == 0 ? 0 : lower - 1, end};
}

double BinnedDensity::Selectivity(double a, double b) const {
  if (a > b) return 0.0;
  const BinSpan span = Locate(a, b);
  double mass = 0.0;
  if (span.first < span.end) {
    const size_t last = span.end - 1;
    // Every bin strictly between first and last is fully covered, so its
    // term is its count: the running-count difference replaces them.
    double interior = 0.0;
    double tail = 0.0;
    if (last > span.first) {
      interior = cumulative_[last] - cumulative_[span.first + 1];
      tail = BinMass(edges_.data(), counts_.data(), last, a, b);
    }
    mass = (BinMass(edges_.data(), counts_.data(), span.first, a, b) +
            interior) +
           tail;
  }
  return std::clamp(mass / total_count_, 0.0, 1.0);
}

size_t BinnedDensity::StorageBytes() const {
  return sizeof(double) * (edges_.size() + counts_.size());
}

BinnedDensity BinnedDensity::FoldedWith(std::span<const double> values) const {
  BinnedDensity folded(*this);
  for (double v : values) {
    folded.counts_[BucketIndex(edges_, counts_.size(), v)] += 1.0;
  }
  folded.total_count_ += static_cast<double>(values.size());
  folded.DeriveCumulative();
  return folded;
}

double BinnedDensity::MassBelow(double x) const {
  const BinSpan span = Locate(edges_.front(), x);
  if (span.end == 0) return 0.0;
  const size_t last = span.end - 1;
  return cumulative_[last] +
         BinMass(edges_.data(), counts_.data(), last, edges_.front(), x);
}

}  // namespace selest
