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
  if (!(total_count > 0.0)) {
    return InvalidArgumentError("total_count must be positive");
  }
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    if (edges[i] > edges[i + 1]) {
      return InvalidArgumentError("edges must be non-decreasing");
    }
  }
  for (double c : counts) {
    if (c < 0.0) return InvalidArgumentError("counts must be non-negative");
  }
  return BinnedDensity(AlignedDoubles(edges.begin(), edges.end()),
                       AlignedDoubles(counts.begin(), counts.end()),
                       total_count);
}

namespace {

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

double BinnedDensity::Selectivity(double a, double b) const {
  if (a > b) return 0.0;
  double mass = 0.0;
  // Only bins overlapping [a, b] contribute; find the first candidate by
  // binary search. lower_bound (not upper_bound) so that zero-width atom
  // bins located exactly at `a` are not skipped. The branch-free search
  // returns the same index and is what the vector block kernel replays,
  // keeping the two paths structurally identical.
  const size_t first = BranchFreeLowerBound(edges_.data(), edges_.size(), a);
  size_t i = first == 0 ? 0 : first - 1;
  for (; i < counts_.size() && edges_[i] <= b; ++i) {
    const double lo = edges_[i];
    const double hi = edges_[i + 1];
    const double width = hi - lo;
    if (width <= 0.0) {
      // Atom at lo: all of its mass lies inside [a, b] iff a <= lo <= b.
      if (lo >= a && lo <= b) mass += counts_[i];
      continue;
    }
    const double overlap = std::min(b, hi) - std::max(a, lo);
    if (overlap <= 0.0) continue;
    mass += counts_[i] * (overlap / width);
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
  return folded;
}

double BinnedDensity::MassBelow(double x) const {
  return Selectivity(edges_.front(), x) * total_count_;
}

}  // namespace selest
