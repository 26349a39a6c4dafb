// Mergeable log-bucketed latency histograms — the distribution side of the
// observability layer (obs/trace.hpp keeps totals; this keeps shapes).
//
// Bucketing is HDR-style log-linear with fixed, deterministic boundaries:
// values below kSubBuckets (64) get one bucket each (exact); above that,
// each power-of-two range is split into kSubBuckets equal-width buckets,
// so every bucket's relative width is at most 1/64 (~1.6%). The bucket a
// value lands in is a pure function of the value — independent of insert
// order, thread count, or platform — which is what makes histograms
//
//   * mergeable: merge() adds per-bucket counts, and any merge order (or
//     any sharding of the samples across recorders) produces bit-identical
//     state;
//   * comparable: a percentile query answers with the bucket's inclusive
//     upper edge, so the reported value is >= the exact sample percentile
//     and at most one bucket width above it (the oracle property the tests
//     pin down).
//
// Values are nanoseconds in [0, kMaxTrackable]; larger samples land in a
// single overflow bucket and saturate percentile queries at max() (which is
// tracked exactly alongside the buckets, as is min()).
//
// Two flavors share the bucket map:
//
//   * Histogram — plain counts, single writer, merge/percentile/JSON. This
//     is what reports hold and what crosses thread boundaries by value.
//   * AtomicHistogram — the same buckets as relaxed atomics for lock-free
//     concurrent recording on serving hot paths; snapshot() freezes it into
//     a Histogram. Counts commute, so a snapshot after N recorded samples
//     equals the single-threaded histogram of those samples.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace laacad {
class JsonWriter;
}

namespace laacad::obs {

/// Shared bucket geometry. 64 linear buckets, then 64 sub-buckets per
/// power of two up to 2^37 ns (~137 s) — 2048 buckets total, one uint64
/// each. Everything is constexpr so both flavors and the tests agree on
/// one map.
struct HistogramBuckets {
  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;  // 64
  /// Exponent count: values in [2^6, 2^37) bucket logarithmically.
  static constexpr int kExponents = 31;
  static constexpr int kNumBuckets =
      static_cast<int>(kSubBuckets) * (kExponents + 1);  // 2048
  /// Largest value with a regular bucket; beyond lies the overflow bucket.
  static constexpr std::uint64_t kMaxTrackable =
      (kSubBuckets << kExponents) - 1;  // 2^37 - 1 ns (~137 s)

  /// Bucket index of a value (kNumBuckets for overflow). Pure function.
  static constexpr int index_of(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<int>(v);
    if (v > kMaxTrackable) return kNumBuckets;
    // v in [2^(6+e), 2^(7+e)) for e >= 0: keep the top 7 bits.
    int e = 0;
    for (std::uint64_t top = v >> (kSubBucketBits + 1); top != 0; top >>= 1)
      ++e;
    const std::uint64_t mantissa = v >> e;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<int>(kSubBuckets * static_cast<std::uint64_t>(e) +
                            mantissa);
  }

  /// Inclusive upper edge of bucket i — the value percentile queries
  /// report. For the overflow bucket this is kMaxTrackable (callers
  /// saturate at the exact tracked max instead).
  static constexpr std::uint64_t upper_edge(int i) {
    if (i < static_cast<int>(kSubBuckets)) return static_cast<std::uint64_t>(i);
    if (i >= kNumBuckets) return kMaxTrackable;
    const int e = i / static_cast<int>(kSubBuckets) - 1;
    const std::uint64_t mantissa =
        kSubBuckets + static_cast<std::uint64_t>(i) % kSubBuckets;
    return ((mantissa + 1) << e) - 1;
  }
};

/// Plain mergeable histogram. Buckets allocate lazily on the first record
/// or merge, so an empty histogram is an empty vector and four counters.
class Histogram {
 public:
  using Buckets = HistogramBuckets;

  void record(std::uint64_t ns);

  /// Add another histogram's counts. Commutative and associative: any
  /// merge tree over the same multiset of samples yields identical state.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::uint64_t min() const { return count_ ? min_ : 0; }  ///< exact
  std::uint64_t max() const { return max_; }               ///< exact
  std::uint64_t overflow() const;  ///< samples beyond kMaxTrackable

  /// Value at quantile q in [0, 1]: the inclusive upper edge of the bucket
  /// holding the ceil(q * count)-th smallest sample (>= the exact sample
  /// percentile, within one bucket width). q >= 1, overflow hits, and the
  /// top bucket all saturate at the exact max(). Returns 0 when empty.
  std::uint64_t value_at(double q) const;

  /// out[i] = value_at(qs[i]) for ascending `qs`, in one cumulative scan.
  void values_at(std::span<const double> qs,
                 std::span<std::uint64_t> out) const;

  double mean_ns() const;  ///< from the exact running sum, not the buckets

  /// Compact JSON: {"count":N,"min_ns":..,"max_ns":..,"sum_ns":..,
  /// "buckets":[[index,count],...]} with buckets ascending by index and
  /// the overflow bucket (if any) last under index kNumBuckets. Two
  /// histograms with equal state serialize byte-identically.
  void write_json(JsonWriter& w) const;

  /// Convenience: the standard percentile block this PR reports
  /// everywhere: {"count":..,"p50_us":..,"p90_us":..,"p99_us":..,
  /// "p999_us":..,"max_us":..,"mean_us":..}. Microseconds as doubles.
  void write_percentiles_json(JsonWriter& w) const;

  /// Parse the write_json encoding back (for tools reading BENCH output).
  /// Returns false on malformed input.
  static bool from_json(const std::string& raw, Histogram* out);

 private:
  friend class AtomicHistogram;  // snapshot() fills a Histogram directly

  void ensure_buckets();

  std::vector<std::uint64_t> buckets_;  // empty, or kNumBuckets + 1 slots
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// Lock-free concurrent recorder: fixed atomic buckets, relaxed increments.
/// Built for serving hot paths where many connection threads record into
/// one per-verb histogram. snapshot() is not atomic with respect to
/// concurrent record() calls (a racing sample may or may not be included),
/// but every sample recorded before the snapshot call began is.
class AtomicHistogram {
 public:
  using Buckets = HistogramBuckets;

  AtomicHistogram();

  void record(std::uint64_t ns);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  Histogram snapshot() const;

  /// Zero every bucket (tests; not linearizable vs concurrent record()).
  void reset();

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace laacad::obs
