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

// BinnedDensity::Cell on a grid: ⌊(x − origin)·inv⌋ with the cell clamped to
// [0, k − 1] (NaN to 0). AVX2 has no double→int64 convert, so the floor
// is taken by the 2^52 trick: adding 2^52 rounds to the nearest integer,
// and lanes where that rounded up step back by one.
inline VecI GridCellV(const HistogramView& h, VecD x) {
  VecD cell = (x - BroadcastD(h.grid_origin)) * BroadcastD(h.grid_inv_width);
  const VecD zero = {};
  cell = cell >= zero ? cell : zero;
  const VecD top = BroadcastD(static_cast<double>(h.num_bins - 1));
  cell = cell > top ? top : cell;
  const VecD magic = BroadcastD(4503599627370496.0);  // 2^52
  const VecD shifted = cell + magic;
  const VecI nearest = (VecI)shifted - (VecI)magic;
  return nearest + ((shifted - magic) > cell);  // true lanes are −1
}

// BinnedDensity::BinMass, lane for lane: the atom rule and
// count · (overlap / width) with the `overlap <= 0` skip, as blends.
inline VecD BinMassV(const HistogramView& h, VecI bin, VecD av, VecD bv) {
  const VecD lo = Gather(h.edges, bin);
  const VecD hi = Gather(h.edges, bin + 1);
  const VecD cnt = Gather(h.counts, bin);
  const VecD zero = {};
  const VecD width = hi - lo;
  const VecI atom_in = (lo >= av) & (lo <= bv);
  const VecD atom_mass = atom_in ? cnt : zero;
  const VecD mn = hi < bv ? hi : bv;  // std::min(b, hi)
  const VecD mx = av < lo ? lo : av;  // std::max(a, lo)
  const VecD overlap = mn - mx;
  const VecD regular = cnt * (overlap / width);
  const VecD regular_mass = overlap <= zero ? zero : regular;
  return width <= zero ? atom_mass : regular_mass;
}

void HistogramBlock(const HistogramView& h, const double* a, const double* b,
                    double* out) {
  const VecD av = LoadD(a);
  const VecD bv = LoadD(b);
  const int64_t k = h.num_bins;
  const double* e = h.edges;
  const VecI zero_i = {};
  const VecI kv = BroadcastI(k);

  // Locate: `lower` is BranchFreeLowerBound(edges, a), `end` the number of
  // leading edges <= b capped at k — BinnedDensity::Locate's span. On a
  // grid each guess steps by its two comparisons (true lanes are −1).
  VecI lower;
  VecI end;
  if (h.grid_inv_width > 0.0) {
    const VecI ga = GridCellV(h, av);
    lower = ga - (Gather(e, ga) < av) - (Gather(e, ga + 1) < av);
    const VecI gb = GridCellV(h, bv);
    end = gb - (Gather(e, gb) <= bv) - (Gather(e, gb + 1) <= bv);
    end = end > kv ? kv : end;
  } else {
    lower = LowerBoundV(e, k + 1, av);
    // UpperBoundV counts every edge for a NaN key; the scalar span of a
    // NaN b is empty.
    end = UpperBoundV(e, k, bv) & (bv == bv);
  }
  const VecI first = lower == zero_i ? zero_i : lower - 1;
  const VecI last = end - 1;

  // First bin + (cumulative[last] − cumulative[first + 1]) + last bin, in
  // that order; lanes whose span is one bin add 0.0 twice, empty spans
  // answer 0. A block of one-bin spans skips the last bin's and the
  // running counts' gathers. Indices are clamped so idle lanes gather
  // valid addresses.
  const VecD zero = {};
  const VecI first_c = ClampIndex(first, k);
  const VecI multi = last > first;
  VecD interior = zero;
  VecD tail = zero;
  if (AnyTrue(multi)) {
    const VecI last_c = ClampIndex(last, k);
    interior = Gather(h.cumulative, last_c) -
               Gather(h.cumulative, first_c + 1);
    interior = multi ? interior : zero;
    tail = multi ? BinMassV(h, last_c, av, bv) : zero;
  }
  VecD mass = (BinMassV(h, first_c, av, bv) + interior) + tail;
  mass = first < end ? mass : zero;

  VecD result = Clamp01(mass / BroadcastD(h.total_count));
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
