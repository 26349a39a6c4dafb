// Latency-histogram contracts — everything the serving metrics and
// serve_bench lean on:
//
//  1. The bucket map is a pure function: index_of/upper_edge are mutually
//     consistent, monotone, and every bucket's relative width is <= 1/64.
//  2. Oracle agreement: against a sorted-vector oracle over the same
//     samples, value_at(q) lands in exactly the bucket that holds the
//     rank-ceil(q*n) sample, is >= the exact percentile, and saturates to
//     the exact max at the top. Covers empty, one-sample, and overflow.
//  3. State is a function of the sample multiset alone: any merge order
//     and any sharding across recording threads (1, 2, 8 atomic writers)
//     produce byte-identical JSON.
//  4. The compact JSON encoding round-trips through from_json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "obs/histogram.hpp"

namespace laacad::obs {
namespace {

using Buckets = HistogramBuckets;

std::string to_json(const Histogram& h) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  h.write_json(w);
  return out.str();
}

std::string percentiles_json(const Histogram& h) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  h.write_percentiles_json(w);
  return out.str();
}

/// Deterministic mixed workload: a uniform body, a lognormal-ish bulk, and
/// a heavy tail — exercises linear buckets, log buckets, and wide spreads.
std::vector<std::uint64_t> sample_mix(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::uint64_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int shape = rng.uniform_int(0, 9);
    if (shape < 2) {
      v.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 100)));
    } else if (shape < 9) {
      v.push_back(static_cast<std::uint64_t>(
          50000.0 * std::exp(rng.uniform(-1.0, 1.5))));
    } else {  // heavy tail, up to ~10 ms
      v.push_back(static_cast<std::uint64_t>(
          std::pow(10.0, rng.uniform(5.0, 7.0))));
    }
  }
  return v;
}

std::uint64_t oracle_percentile(std::vector<std::uint64_t> sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

TEST(HistogramBucketsTest, IndexAndEdgeAreMutuallyConsistent) {
  for (int i = 0; i < Buckets::kNumBuckets; ++i) {
    const std::uint64_t edge = Buckets::upper_edge(i);
    EXPECT_EQ(Buckets::index_of(edge), i) << "edge of bucket " << i;
    // The next value starts the next bucket.
    EXPECT_EQ(Buckets::index_of(edge + 1), i + 1);
  }
  EXPECT_EQ(Buckets::index_of(0), 0);
  EXPECT_EQ(Buckets::index_of(Buckets::kMaxTrackable), Buckets::kNumBuckets - 1);
  EXPECT_EQ(Buckets::index_of(Buckets::kMaxTrackable + 1), Buckets::kNumBuckets);
  EXPECT_EQ(Buckets::index_of(~0ull), Buckets::kNumBuckets);
}

TEST(HistogramBucketsTest, RelativeWidthBounded) {
  // Above the linear range, bucket width / lower edge <= 1/64: the bound
  // that makes "percentile = bucket upper edge" an at-most-1.6% error.
  for (int i = static_cast<int>(Buckets::kSubBuckets);
       i < Buckets::kNumBuckets; ++i) {
    const double lo = static_cast<double>(Buckets::upper_edge(i - 1)) + 1.0;
    const double hi = static_cast<double>(Buckets::upper_edge(i));
    EXPECT_LE((hi - lo + 1.0) / lo, 1.0 / 64.0 + 1e-12) << "bucket " << i;
  }
}

TEST(HistogramTest, EmptyOneSampleAndOverflowEdges) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.value_at(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  // Empty percentiles serialize as nulls, not garbage.
  EXPECT_NE(percentiles_json(h).find("\"p50_us\":null"), std::string::npos);

  h.record(1234);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(h.value_at(q), 1234u) << q;
  EXPECT_EQ(h.min(), 1234u);
  EXPECT_EQ(h.max(), 1234u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 1234.0);

  Histogram o;
  o.record(Buckets::kMaxTrackable + 12345);
  EXPECT_EQ(o.overflow(), 1u);
  // Overflow saturates at the exact tracked max, not the bucket edge.
  EXPECT_EQ(o.value_at(0.5), Buckets::kMaxTrackable + 12345);
  EXPECT_EQ(o.max(), Buckets::kMaxTrackable + 12345);
}

TEST(HistogramTest, OracleAgreementOnMixedSamples) {
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    const std::vector<std::uint64_t> samples = sample_mix(seed, 5000);
    Histogram h;
    for (const std::uint64_t s : samples) h.record(s);
    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    EXPECT_EQ(h.count(), sorted.size());
    EXPECT_EQ(h.min(), sorted.front());
    EXPECT_EQ(h.max(), sorted.back());
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
      const std::uint64_t exact = oracle_percentile(sorted, q);
      const std::uint64_t got = h.value_at(q);
      EXPECT_EQ(Buckets::index_of(got), Buckets::index_of(exact))
          << "seed " << seed << " q " << q;
      EXPECT_GE(got, exact);
    }
    EXPECT_EQ(h.value_at(1.0), sorted.back());
  }
}

// values_at resolves several quantiles in one cumulative scan; each answer
// must equal the single-quantile value_at, and the percentile block it
// feeds must keep its bytes.
TEST(HistogramTest, OnePassRanksEqualValueAt) {
  const std::vector<double> qs = {0.0, 0.01, 0.5, 0.5, 0.9, 0.99,
                                  0.999, 1.0, 2.0};
  const auto check = [&](const Histogram& h, const char* what) {
    std::vector<std::uint64_t> got(qs.size(), 7);
    h.values_at(qs, got);
    for (std::size_t i = 0; i < qs.size(); ++i)
      EXPECT_EQ(got[i], h.value_at(qs[i])) << what << " q " << qs[i];

    std::ostringstream want;
    JsonWriter w(want, /*indent=*/0);
    const auto us = [&](double q) {
      return h.empty() ? std::nan("")
                       : static_cast<double>(h.value_at(q)) / 1000.0;
    };
    w.begin_object();
    w.kv("count", h.count());
    w.kv("p50_us", us(0.50));
    w.kv("p90_us", us(0.90));
    w.kv("p99_us", us(0.99));
    w.kv("p999_us", us(0.999));
    w.kv("max_us", h.empty() ? std::nan("")
                             : static_cast<double>(h.max()) / 1000.0);
    w.kv("mean_us", h.mean_ns() / 1000.0);
    w.end_object();
    EXPECT_EQ(percentiles_json(h), want.str()) << what;
  };

  check(Histogram{}, "empty");
  Histogram one;
  one.record(1234);
  check(one, "one sample");
  Histogram over;
  over.record(Buckets::kMaxTrackable + 5);
  over.record(Buckets::kMaxTrackable + 12345);
  check(over, "overflow only");
  for (const std::uint64_t seed : {3ull, 11ull, 42ull}) {
    Histogram h;
    for (const std::uint64_t s : sample_mix(seed, 1 + static_cast<int>(seed) * 97))
      h.record(s);
    check(h, "random");
  }
}

TEST(HistogramTest, MergeOrderInvariance) {
  const std::vector<std::uint64_t> samples = sample_mix(3, 3000);
  // Shard into 5 chunks, merge under three different trees.
  std::vector<Histogram> chunks(5);
  for (std::size_t i = 0; i < samples.size(); ++i)
    chunks[i % chunks.size()].record(samples[i]);

  Histogram forward;
  for (const Histogram& c : chunks) forward.merge(c);

  Histogram backward;
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it)
    backward.merge(*it);

  Histogram nested;  // ((c3 + c1) + (c4 + c0)) + c2
  Histogram left = chunks[3], right = chunks[4];
  left.merge(chunks[1]);
  right.merge(chunks[0]);
  nested.merge(left);
  nested.merge(right);
  nested.merge(chunks[2]);

  Histogram reference;
  for (const std::uint64_t s : samples) reference.record(s);

  const std::string expected = to_json(reference);
  EXPECT_EQ(to_json(forward), expected);
  EXPECT_EQ(to_json(backward), expected);
  EXPECT_EQ(to_json(nested), expected);
}

TEST(HistogramTest, CopyIsDeep) {
  Histogram a;
  a.record(100);
  Histogram b = a;
  b.record(200);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.count(), 2u);
  a = b;
  a.record(300);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(a.count(), 3u);
}

TEST(AtomicHistogramTest, ThreadCountInvariantJson) {
  const std::vector<std::uint64_t> samples = sample_mix(11, 20000);
  std::string expected;
  for (const int threads : {1, 2, 8}) {
    AtomicHistogram atomic;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < samples.size();
             i += static_cast<std::size_t>(threads))
          atomic.record(samples[i]);
      });
    }
    for (std::thread& w : workers) w.join();
    const std::string got = to_json(atomic.snapshot());
    if (expected.empty()) expected = got;
    EXPECT_EQ(got, expected) << threads << " recording threads";
  }
  // And the single-threaded plain histogram agrees with all of them.
  Histogram plain;
  for (const std::uint64_t s : samples) plain.record(s);
  EXPECT_EQ(to_json(plain), expected);
}

TEST(AtomicHistogramTest, ResetClears) {
  AtomicHistogram atomic;
  atomic.record(5);
  atomic.record(500000);
  atomic.reset();
  EXPECT_EQ(atomic.count(), 0u);
  EXPECT_TRUE(atomic.snapshot().empty());
}

TEST(HistogramTest, JsonRoundTrip) {
  const std::vector<std::uint64_t> samples = sample_mix(42, 2000);
  Histogram h;
  for (const std::uint64_t s : samples) h.record(s);
  h.record(Buckets::kMaxTrackable + 7);  // include the overflow bucket

  const std::string encoded = to_json(h);
  Histogram back;
  ASSERT_TRUE(Histogram::from_json(encoded, &back)) << encoded;
  EXPECT_EQ(to_json(back), encoded);
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.value_at(0.99), h.value_at(0.99));

  Histogram junk;
  EXPECT_FALSE(Histogram::from_json("{}", &junk));
  EXPECT_FALSE(Histogram::from_json("{\"count\":3,\"buckets\":[[0,1]]}",
                                    &junk));  // count mismatch
  EXPECT_FALSE(Histogram::from_json("not json", &junk));
}

}  // namespace
}  // namespace laacad::obs
