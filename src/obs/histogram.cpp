#include "obs/histogram.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>

#include "common/flatjson.hpp"
#include "common/json_writer.hpp"

namespace laacad::obs {

namespace {
constexpr int kTotalSlots = HistogramBuckets::kNumBuckets + 1;  // + overflow
}  // namespace

void Histogram::ensure_buckets() {
  if (buckets_.empty()) buckets_.assign(kTotalSlots, 0);
}

void Histogram::record(std::uint64_t ns) {
  ensure_buckets();
  ++buckets_[static_cast<std::size_t>(Buckets::index_of(ns))];
  ++count_;
  sum_ += ns;
  min_ = std::min(min_, ns);
  max_ = std::max(max_, ns);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  ensure_buckets();
  for (std::size_t i = 0; i < other.buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t Histogram::overflow() const {
  return buckets_.empty() ? 0 : buckets_[Buckets::kNumBuckets];
}

std::uint64_t Histogram::value_at(double q) const {
  std::uint64_t v = 0;
  values_at({&q, 1}, {&v, 1});
  return v;
}

void Histogram::values_at(std::span<const double> qs,
                          std::span<std::uint64_t> out) const {
  // The rank of q: ceil(q * count), clamped to [1, count].
  const auto rank_of = [&](double q) {
    double target = std::ceil(q * static_cast<double>(count_));
    if (!(target >= 1.0)) target = 1.0;  // q <= 0 (and NaN) clamp to rank 1
    return std::min(count_, static_cast<std::uint64_t>(target));
  };
  if (count_ == 0) {
    std::fill_n(out.begin(), qs.size(), 0);
    return;
  }
  std::size_t next = 0;
  std::uint64_t cum = 0;
  for (int i = 0; i < kTotalSlots && next < qs.size(); ++i) {
    cum += buckets_[static_cast<std::size_t>(i)];
    // Ranks ascend with qs, so every rank this bucket reaches is next.
    for (; next < qs.size() && cum >= rank_of(qs[next]); ++next) {
      // In the last nonempty bucket the exact max is a tighter (and still
      // same-bucket) answer; it also covers the overflow bucket, whose
      // edge is meaningless.
      out[next] = cum == count_ ? max_ : Buckets::upper_edge(i);
    }
  }
  // Unreachable: every rank is <= count.
  for (; next < qs.size(); ++next) out[next] = max_;
}

double Histogram::mean_ns() const {
  if (count_ == 0) return std::nan("");
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

void Histogram::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("count", count_);
  w.kv("min_ns", min());
  w.kv("max_ns", max_);
  w.kv("sum_ns", sum_);
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    w.begin_array();
    w.value(static_cast<int>(i));
    w.value(buckets_[i]);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void Histogram::write_percentiles_json(JsonWriter& w) const {
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };
  static constexpr double kQuantiles[] = {0.50, 0.90, 0.99, 0.999};
  std::uint64_t ns[std::size(kQuantiles)];
  values_at(kQuantiles, ns);
  w.begin_object();
  w.kv("count", count_);
  w.kv("p50_us", count_ ? us(ns[0]) : std::nan(""));
  w.kv("p90_us", count_ ? us(ns[1]) : std::nan(""));
  w.kv("p99_us", count_ ? us(ns[2]) : std::nan(""));
  w.kv("p999_us", count_ ? us(ns[3]) : std::nan(""));
  w.kv("max_us", count_ ? us(max_) : std::nan(""));
  w.kv("mean_us", mean_ns() / 1000.0);  // NaN -> null when empty
  w.end_object();
}

bool Histogram::from_json(const std::string& raw, Histogram* out) {
  double count = 0.0, min_ns = 0.0, max_ns = 0.0, sum_ns = 0.0;
  if (!flatjson::get_number(raw, "count", &count) ||
      !flatjson::get_number(raw, "min_ns", &min_ns) ||
      !flatjson::get_number(raw, "max_ns", &max_ns) ||
      !flatjson::get_number(raw, "sum_ns", &sum_ns))
    return false;
  std::string buckets;
  if (!flatjson::get_raw(raw, "buckets", &buckets)) return false;

  Histogram h;
  h.count_ = static_cast<std::uint64_t>(count);
  h.sum_ = static_cast<std::uint64_t>(sum_ns);
  h.min_ = h.count_ ? static_cast<std::uint64_t>(min_ns) : ~0ull;
  h.max_ = static_cast<std::uint64_t>(max_ns);
  h.ensure_buckets();
  // Scan "[[i,c],[i,c],...]": pairs of unsigned integers.
  std::uint64_t recounted = 0;
  std::size_t pos = 0;
  const auto next_uint = [&](std::uint64_t* v) {
    while (pos < buckets.size() &&
           !std::isdigit(static_cast<unsigned char>(buckets[pos])))
      ++pos;
    if (pos >= buckets.size()) return false;
    *v = 0;
    while (pos < buckets.size() &&
           std::isdigit(static_cast<unsigned char>(buckets[pos])))
      *v = *v * 10 + static_cast<std::uint64_t>(buckets[pos++] - '0');
    return true;
  };
  std::uint64_t index = 0, c = 0;
  while (next_uint(&index)) {
    if (!next_uint(&c) || index >= static_cast<std::uint64_t>(kTotalSlots))
      return false;
    h.buckets_[static_cast<std::size_t>(index)] += c;
    recounted += c;
  }
  if (recounted != h.count_) return false;
  *out = std::move(h);
  return true;
}

AtomicHistogram::AtomicHistogram()
    : buckets_(new std::atomic<std::uint64_t>[kTotalSlots]) {
  for (int i = 0; i < kTotalSlots; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void AtomicHistogram::record(std::uint64_t ns) {
  buckets_[static_cast<std::size_t>(Buckets::index_of(ns))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  // CAS loops for min/max: contended only while the extremum is moving.
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (ns < seen &&
         !min_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

Histogram AtomicHistogram::snapshot() const {
  Histogram h;
  h.ensure_buckets();
  std::uint64_t total = 0, sum = 0;
  for (int i = 0; i < kTotalSlots; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    h.buckets_[static_cast<std::size_t>(i)] = c;
    total += c;
  }
  sum = sum_.load(std::memory_order_relaxed);
  h.count_ = total;
  h.sum_ = sum;
  h.min_ = min_.load(std::memory_order_relaxed);
  h.max_ = max_.load(std::memory_order_relaxed);
  return h;
}

void AtomicHistogram::reset() {
  for (int i = 0; i < kTotalSlots; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace laacad::obs
