// Portable SIMD shim: runtime-dispatched vector kernels for the estimator
// hot paths (DESIGN.md §12).
//
// One binary serves any host: the vector kernels are compiled into
// per-ISA translation units (util/simd_avx2.cc at 4 lanes,
// util/simd_avx512.cc at 8 lanes, both from util/simd_kernels.inc.h) and
// selected once at runtime from CPUID. The scalar tier has no kernel
// table at all — callers fall back to their existing per-query scalar
// code, which keeps exactly one source of truth for the reference
// semantics.
//
// Exactness policy (tested by est_simd_identity_test): every vector
// kernel is *bit-identical* to the scalar path. Two layouts are used. The
// histogram and sorted-count kernels batch one query per SIMD lane and
// replay the scalar code's floating-point operations in the same order
// within each lane; data-dependent scalar branches become lane blends
// whose discarded side never feeds the accumulator (x + 0.0 == x for the
// non-negative finite partial sums involved). The kernel fringe scan
// serves one query with one sample per lane: it computes each sample's
// contribution exactly as the scalar expression does, then adds the lanes
// to the running sum one by one in index order. The per-ISA TUs are
// compiled with -ffp-contract=off so no tier ever fuses a multiply-add the
// baseline scalar build would not. kSimdUlpTolerance documents the
// contract and is asserted at 0.
#ifndef SELEST_UTIL_SIMD_H_
#define SELEST_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace selest {

// The vector kernels are exact, not merely close: the identity suite
// compares them to the scalar path with EXPECT_EQ, i.e. a 0-ULP bound.
inline constexpr int kSimdUlpTolerance = 0;

// ---------------------------------------------------------------------------
// Aligned storage for struct-of-arrays hot state.
// ---------------------------------------------------------------------------

// Hot estimator state (bin edges/counts, sorted sample strips, strip-table
// nodes, per-block query staging) is kept on cache-line boundaries so a
// vector block never straddles more lines than it must.
inline constexpr size_t kSimdAlign = 64;

template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kSimdAlign)));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(kSimdAlign));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;
// The SoA workhorse: a contiguous, 64-byte-aligned strip of doubles.
using AlignedDoubles = AlignedVector<double>;

// ---------------------------------------------------------------------------
// Branch-free four-way binary search.
// ---------------------------------------------------------------------------
//
// Replaces the std::lower_bound/std::upper_bound chains on the indexed
// kernel, sampling, and histogram paths. Each step probes the three
// quarter pivots of the window with independent (ILP-friendly, cmov-able)
// comparisons; over a sorted array the predicates are monotone, so the
// sum of the true ones advances the base straight to the chosen quarter.
// Returns exactly the index std::lower_bound/std::upper_bound would for
// every total-ordered input (asserted by util_simd_test, including
// duplicate runs and ±inf keys).

inline size_t BranchFreeLowerBound(const double* data, size_t n, double key) {
  const double* base = data;
  while (n > 3) {
    const size_t q = n >> 2;
    const size_t s1 = base[q - 1] < key ? q : 0;
    const size_t s2 = base[2 * q - 1] < key ? q : 0;
    const size_t s3 = base[3 * q - 1] < key ? q : 0;
    const size_t adv = s1 + s2 + s3;
    base += adv;
    n = adv == 3 * q ? n - 3 * q : q;
  }
  // n <= 3: a cmov chain finishes the window (re-testing a non-advancing
  // position is a no-op, so the fixed trip count is safe).
  for (size_t i = 0; i < n; ++i) base += (*base < key) ? 1 : 0;
  return static_cast<size_t>(base - data);
}

inline size_t BranchFreeUpperBound(const double* data, size_t n, double key) {
  const double* base = data;
  // Advance on !(key < x), never the would-be-equivalent x <= key: they
  // differ for NaN keys (std::upper_bound returns n, x <= NaN would give 0),
  // and callers rely on matching std exactly for every input.
  while (n > 3) {
    const size_t q = n >> 2;
    const size_t s1 = !(key < base[q - 1]) ? q : 0;
    const size_t s2 = !(key < base[2 * q - 1]) ? q : 0;
    const size_t s3 = !(key < base[3 * q - 1]) ? q : 0;
    const size_t adv = s1 + s2 + s3;
    base += adv;
    n = adv == 3 * q ? n - 3 * q : q;
  }
  for (size_t i = 0; i < n; ++i) base += !(key < *base) ? 1 : 0;
  return static_cast<size_t>(base - data);
}

// ---------------------------------------------------------------------------
// The dispatched block kernels.
// ---------------------------------------------------------------------------

// Widest tier; block staging buffers are sized for it.
inline constexpr int kMaxSimdWidth = 8;

// What histogram_block reads of a BinnedDensity: the k+1 edges, the k
// counts, their k+1 running sums (cumulative[i] = counts[0] + … +
// counts[i−1], summed left to right) and, when grid_inv_width > 0, the
// uniform grid whose cell (x − grid_origin) · grid_inv_width guesses the
// bin of x.
struct HistogramView {
  const double* edges;
  const double* counts;
  const double* cumulative;
  int64_t num_bins;
  double total_count;
  double grid_origin;
  double grid_inv_width;
};

// One table per vector tier. The *_block functions process exactly
// `width` queries (a/b/out are width-long, kSimdAlign-aligned); callers
// pad the final partial block by replicating its last query — lanes are
// independent, so padding never changes a real lane's bits.
struct SimdOps {
  int width = 0;

  // BinnedDensity::Selectivity for one block: per lane, the same bin
  // locate, the same two partial bins and the same cumulative difference,
  // added in the same order. Handles every input (atoms, inverted and
  // out-of-range queries) — never bails.
  void (*histogram_block)(const HistogramView& histogram, const double* a,
                          const double* b, double* out);

  // SamplingEstimator::EstimateSelectivity for one block: two vectorized
  // branch-free searches per lane.
  void (*sorted_count_block)(const double* sorted, int64_t n, const double* a,
                             const double* b, double* out);

  // KernelEstimator::CdfSum's fringe scan for ONE query (Epanechnikov):
  // returns `sum` plus Cdf((b − x)/h) − Cdf((a − x)/h) for every x in
  // sorted[from, to). The samples are loaded `width` at a time and their
  // contributions computed as one vector, then added to `sum` one at a
  // time in index order — the scalar loop's association, so the result is
  // bit-identical to it. `from` need not be aligned; from >= to adds
  // nothing.
  double (*kernel_fringe)(const double* sorted, size_t from, size_t to,
                          double a, double b, double h, double sum);
};

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* SimdTierName(SimdTier tier);

// True when this host can execute `tier` (kScalar is always supported).
bool SimdTierSupported(SimdTier tier);

// The tier the vector paths use right now: the best supported tier, capped by
// the SELEST_SIMD environment variable ("scalar", "avx2", "avx512";
// detected once) and by any active ScopedSimdTier override.
SimdTier ActiveSimdTier();

// The kernel table for the active tier, or nullptr for the scalar tier
// (callers then run their per-query scalar code). Thread-safe.
const SimdOps* ActiveSimdOps();

// The table for one specific tier (nullptr for kScalar or an unsupported
// tier); used by the identity tests and the speedup benches.
const SimdOps* SimdOpsForTier(SimdTier tier);

// Scoped tier override for tests and benchmarks. Takes effect for estimate
// calls issued after construction (including work batch calls fan out to
// pool threads); do not change tiers while a call is in flight.
// Requires SimdTierSupported(tier).
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier tier);
  ~ScopedSimdTier();

  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

 private:
  int previous_;  // encoded override slot, -1 = none
};

}  // namespace selest

#endif  // SELEST_UTIL_SIMD_H_
