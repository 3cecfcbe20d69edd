// Width-parametric vector kernels, included by the per-ISA translation
// units (util/simd_avx2.cc, util/simd_avx512.cc) with
//
//   SELEST_SIMD_NAMESPACE — namespace to define the kernels in, and
//   SELEST_SIMD_WIDTH     — lanes per block (4 or 8).
//
// The kernels are written with GCC vector extensions. The *_block kernels
// put one query per lane, replaying the scalar reference code's
// floating-point operations in the same order within each lane;
// data-dependent scalar branches become blends whose discarded side
// contributes exactly 0.0. The kernel fringe scan puts one sample per lane
// and adds the lanes in index order. Either way results are bit-identical
// to the scalar path (DESIGN.md §12; the including TU is compiled with
// -ffp-contract=off so no multiply-add fusion can creep in).
//
// This file deliberately has no include guard semantics beyond one
// inclusion per TU; it must only be included by the simd_*.cc ISA files.

#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "src/util/simd.h"

namespace selest {
namespace SELEST_SIMD_NAMESPACE {
namespace {

constexpr int kW = SELEST_SIMD_WIDTH;

typedef double VecD __attribute__((vector_size(kW * 8)));
typedef int64_t VecI __attribute__((vector_size(kW * 8)));

inline VecD BroadcastD(double x) {
  VecD v;
  for (int i = 0; i < kW; ++i) v[i] = x;
  return v;
}

inline VecI BroadcastI(int64_t x) {
  VecI v;
  for (int i = 0; i < kW; ++i) v[i] = x;
  return v;
}

inline VecD LoadD(const double* p) {
  VecD v;
  for (int i = 0; i < kW; ++i) v[i] = p[i];
  return v;
}

inline void StoreD(double* p, VecD v) {
  for (int i = 0; i < kW; ++i) p[i] = v[i];
}

// Hardware gathers where the ISA has them: the block kernels are
// gather-bound (edges/counts/sample strips indexed per lane), and the
// elementwise fallback loop costs kW dependent scalar loads per call.
inline VecD Gather(const double* p, VecI idx) {
#if SELEST_SIMD_WIDTH == 8 && defined(__AVX512F__)
  // Full-mask gather over a zeroed source: the plain unmasked intrinsic
  // expands over an undefined source vector and trips -Wmaybe-uninitialized.
  return (VecD)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), (__mmask8)-1,
                                        (__m512i)idx, p, 8);
#elif SELEST_SIMD_WIDTH == 4 && defined(__AVX2__)
  return (VecD)_mm256_i64gather_pd(p, (__m256i)idx, 8);
#else
  VecD v;
  for (int i = 0; i < kW; ++i) v[i] = p[idx[i]];
  return v;
#endif
}

inline bool AnyTrue(VecI m) {
  int64_t acc = 0;
  for (int i = 0; i < kW; ++i) acc |= m[i];
  return acc != 0;
}

inline bool AllTrue(VecI m) {
  int64_t acc = -1;
  for (int i = 0; i < kW; ++i) acc &= m[i];
  return acc != 0;
}

// Clamps indices into [0, n) so inactive lanes gather a valid (ignored)
// address.
inline VecI ClampIndex(VecI idx, int64_t n) {
  const VecI hi = BroadcastI(n - 1);
  const VecI over = idx > hi;
  idx = over ? hi : idx;
  const VecI zero = {};
  const VecI under = idx < zero;
  return under ? zero : idx;
}

// ---------------------------------------------------------------------------
// Vectorized branch-free searches (all lanes over one shared array, so the
// halving schedule — and thus the trip count — is lane-invariant).
// ---------------------------------------------------------------------------

// Four-way rounds, like the scalar BranchFreeLowerBound: the three probes
// of a round are independent gathers that issue together, so the
// latency chain is log4 rounds deep instead of log2. The window length is
// kept lane-invariant (len − 3q covers both the fully-advanced lane's
// remainder q + len mod 4 and the partially-advanced lane's quartile q —
// a slightly-too-wide window still brackets the answer), and the masks are
// monotone, so every lane lands on exactly the std::lower_bound index.
inline VecI LowerBoundV(const double* data, int64_t n, VecD key) {
  VecI base = {};
  if (n <= 0) return base;
  int64_t len = n;
  while (len > 3) {
    const int64_t q = len >> 2;
    const VecD g1 = Gather(data, base + (q - 1));
    const VecD g2 = Gather(data, base + (2 * q - 1));
    const VecD g3 = Gather(data, base + (3 * q - 1));
    const VecI m1 = g1 < key;
    const VecI m2 = g2 < key;
    const VecI m3 = g3 < key;
    base += (m1 & q) + (m2 & q) + (m3 & q);
    len -= 3 * q;
  }
  // Finish the ≤3-wide window with independent probes: base+k stays in
  // bounds for k < len (base + len <= n is a loop invariant), and the
  // running AND counts the leading run of advancing probes — exactly the
  // chained one-at-a-time walk, minus the serial gather latencies.
  VecI adv = {};
  VecI run = BroadcastI(-1);
  for (int64_t k = 0; k < len; ++k) {
    const VecD probe = Gather(data, base + k);
    run &= probe < key;
    adv -= run;  // run lanes are -1 while still advancing
  }
  return base + adv;
}

inline VecI UpperBoundV(const double* data, int64_t n, VecD key) {
  VecI base = {};
  if (n <= 0) return base;
  int64_t len = n;
  while (len > 3) {
    const int64_t q = len >> 2;
    const VecD g1 = Gather(data, base + (q - 1));
    const VecD g2 = Gather(data, base + (2 * q - 1));
    const VecD g3 = Gather(data, base + (3 * q - 1));
    // ~(key < probe), not probe <= key: the two differ on NaN keys, and
    // this search must return exactly BranchFreeUpperBound's (= std's)
    // index for every lane.
    const VecI m1 = ~(key < g1);
    const VecI m2 = ~(key < g2);
    const VecI m3 = ~(key < g3);
    base += (m1 & q) + (m2 & q) + (m3 & q);
    len -= 3 * q;
  }
  VecI adv = {};
  VecI run = BroadcastI(-1);
  for (int64_t k = 0; k < len; ++k) {
    const VecD probe = Gather(data, base + k);
    run &= ~(key < probe);
    adv -= run;
  }
  return base + adv;
}

// ---------------------------------------------------------------------------
// Scalar-replica arithmetic helpers (exact operation order).
// ---------------------------------------------------------------------------

// std::clamp(v, 0.0, 1.0) — (v < lo) ? lo : (hi < v) ? hi : v.
inline VecD Clamp01(VecD v) {
  const VecD zero = {};
  const VecD one = BroadcastD(1.0);
  const VecI below = v < zero;
  VecD r = below ? zero : v;
  const VecI above = one < r;
  return above ? one : r;
}

// Kernel::Cdf for Epanechnikov: 0 below −1, 1 above +1, else
// 0.5 + 0.25·(3t − t³) with t³ evaluated as (t·t)·t, exactly as the
// scalar code in density/kernel.cc.
inline VecD EpanechnikovCdf(VecD t) {
  const VecD t3 = (t * t) * t;
  const VecD poly = BroadcastD(0.5) + BroadcastD(0.25) * (BroadcastD(3.0) * t - t3);
  const VecD zero = {};
  const VecD one = BroadcastD(1.0);
  const VecI low = t <= BroadcastD(-1.0);
  const VecI high = t >= one;
  VecD r = low ? zero : poly;
  r = high ? one : r;
  return r;
}

// ---------------------------------------------------------------------------
// histogram_block: BinnedDensity::Selectivity, one query per lane.
// ---------------------------------------------------------------------------

void HistogramBlock(const double* edges, const double* counts,
                    int64_t num_bins, double total_count, const double* a,
                    const double* b, double* out) {
  const VecD av = LoadD(a);
  const VecD bv = LoadD(b);
  const int64_t num_edges = num_bins + 1;

  // Starting bin: lower_bound on the edges, stepped back one unless at the
  // front (the scalar path's atom-at-`a` rule).
  const VecI first = LowerBoundV(edges, num_edges, av);
  const VecI zero_i = {};
  const VecI at_front = first == zero_i;
  const VecI start = at_front ? zero_i : first - 1;

  const VecI nbins = BroadcastI(num_bins);
  const VecI last_bin = BroadcastI(num_bins - 1);
  const VecD zero = {};
  VecD mass = zero;
  // The walk visits consecutive bins, so each trip's high edge is the next
  // trip's low edge: carry it across iterations instead of re-gathering.
  // Exhausted lanes hold a stale clamped (ic, lo); their contributions are
  // masked off below, so the stale values never reach `mass`.
  VecI ic = ClampIndex(start, num_bins);
  VecD lo = Gather(edges, ic);
  for (int64_t j = 0;; ++j) {
    const VecI i = start + j;
    const VecI in_range = i < nbins;
    const VecD hi = Gather(edges, ic + 1);
    // The walk stops at the first bin past the query; edges ascend, so
    // every lane's active mask is monotone and the loop ends when all
    // lanes have passed their last overlapping bin.
    const VecI active = in_range & (lo <= bv);
    if (!AnyTrue(active)) break;
    const VecD cnt = Gather(counts, ic);
    const VecD width = hi - lo;
    // Regular bin: count · overlap/width, added only when overlap > 0.
    const VecI hi_first = hi < bv;
    const VecD mn = hi_first ? hi : bv;  // std::min(b, hi)
    const VecI lo_second = av < lo;
    const VecD mx = lo_second ? lo : av;  // std::max(a, lo)
    const VecD overlap = mn - mx;
    // Atom bin (width <= 0): full count iff a <= lo <= b.
    const VecI atom = width <= zero;
    const VecI atom_in = (lo >= av) & (lo <= bv);
    const VecD atom_contrib = atom_in ? cnt : zero;
    // Interior bins of a multi-bin query are fully covered: overlap and
    // width come from the same subtraction, and IEEE x/x == 1.0 exactly
    // for finite nonzero x, so count · (overlap/width) is just the count.
    // When every lane is covered, an atom, or inactive, skip the vector
    // divide — the dominant walk cost — with a bit-identical result.
    VecD regular_contrib;
    const VecI full = overlap == width;
    if (AllTrue(full | atom | ~active)) {
      regular_contrib = cnt;
    } else {
      const VecD regular = cnt * (overlap / width);
      // Matches the scalar `if (overlap <= 0.0) continue;` — NOT
      // overlap > 0: a NaN bound makes the overlap NaN, which the scalar
      // accumulates.
      const VecI skip_bin = overlap <= zero;
      regular_contrib = skip_bin ? zero : regular;
    }
    VecD contrib = atom ? atom_contrib : regular_contrib;
    contrib = active ? contrib : zero;
    mass += contrib;
    const VecI step = ic < last_bin;
    ic = step ? ic + 1 : ic;
    lo = hi;  // stale for clamped lanes, which are inactive from here on
  }

  const VecD total = BroadcastD(total_count);
  VecD result = Clamp01(mass / total);
  const VecI inverted = av > bv;
  result = inverted ? zero : result;
  StoreD(out, result);
}

// ---------------------------------------------------------------------------
// sorted_count_block: SamplingEstimator::EstimateSelectivity.
// ---------------------------------------------------------------------------

void SortedCountBlock(const double* sorted, int64_t n, const double* a,
                      const double* b, double* out) {
  const VecD av = LoadD(a);
  const VecD bv = LoadD(b);
  const VecI lo = LowerBoundV(sorted, n, av);
  const VecI hi = UpperBoundV(sorted, n, bv);
  const VecD matched = __builtin_convertvector(hi - lo, VecD);
  VecD result = matched / BroadcastD(static_cast<double>(n));
  const VecI inverted = av > bv;
  const VecD zero = {};
  result = inverted ? zero : result;
  StoreD(out, result);
}

// ---------------------------------------------------------------------------
// kernel_fringe: KernelEstimator::CdfSum's fringe scan (Epanechnikov), one
// query, one sample per lane.
// ---------------------------------------------------------------------------

// The per-sample contributions Cdf((b − x)/h) − Cdf((a − x)/h), lane for
// lane the scalar expression. Two one-sided skips drop a divide without
// changing a bit: when fl(b − x) >= h in every lane, the quotient
// fl(fl(b − x)/h) is >= 1 (division by h > 0 is monotone and 1.0 is
// representable), where Cdf returns exactly 1.0; when fl(a − x) <= −h in
// every lane, the quotient is <= −1 and Cdf returns exactly 0.0. A NaN
// difference fails both tests and takes the full path.
inline VecD FringeTerms(VecD x, VecD av, VecD bv, VecD hv) {
  const VecD upper_diff = bv - x;
  const VecD lower_diff = av - x;
  VecD upper = BroadcastD(1.0);
  if (!AllTrue(upper_diff >= hv)) upper = EpanechnikovCdf(upper_diff / hv);
  VecD lower = {};
  if (!AllTrue(lower_diff <= -hv)) lower = EpanechnikovCdf(lower_diff / hv);
  return upper - lower;
}

double KernelFringe(const double* sorted, size_t from, size_t to, double a,
                    double b, double h, double sum) {
  const VecD av = BroadcastD(a);
  const VecD bv = BroadcastD(b);
  const VecD hv = BroadcastD(h);
  size_t i = from;
  for (; i + kW <= to; i += kW) {
    const VecD terms = FringeTerms(LoadD(sorted + i), av, bv, hv);
    // In index order, one at a time: the scalar loop's association.
    for (int k = 0; k < kW; ++k) sum += terms[k];
  }
  if (i < to) {
    // Partial tail: pad with the last sample (so the skip tests see only
    // real values) and add the real lanes alone.
    const size_t m = to - i;
    VecD x;
    for (int k = 0; k < kW; ++k) {
      const size_t lane = static_cast<size_t>(k);
      x[k] = sorted[i + (lane < m ? lane : m - 1)];
    }
    const VecD terms = FringeTerms(x, av, bv, hv);
    for (size_t k = 0; k < m; ++k) sum += terms[k];
  }
  return sum;
}

}  // namespace

const SimdOps* GetOps() {
  static const SimdOps ops = {
      /*width=*/kW,
      /*histogram_block=*/&HistogramBlock,
      /*sorted_count_block=*/&SortedCountBlock,
      /*kernel_fringe=*/&KernelFringe,
  };
  return &ops;
}

}  // namespace SELEST_SIMD_NAMESPACE
}  // namespace selest
