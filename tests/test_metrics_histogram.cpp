// Histogram catalogue tests: bucket geometry, quantile edge cases, merge,
// recording through the Histo catalogue, and wire-independent invariants.
#include <gtest/gtest.h>

#include <cstdint>

#include "coorm/common/metrics.hpp"

using namespace coorm;
using metrics::bucketIndex;
using metrics::bucketLowerBound;
using metrics::bucketUpperBound;
using metrics::HistogramData;

TEST(HistogramBuckets, FirstSixteenValuesAreExact) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(bucketIndex(v), v);
    EXPECT_EQ(bucketLowerBound(v), v);
    EXPECT_EQ(bucketUpperBound(v), v);
  }
}

TEST(HistogramBuckets, LowerBoundIsSmallestValueMappingToBucket) {
  for (std::size_t idx = 0; idx < metrics::kHistoBuckets; ++idx) {
    const std::uint64_t lo = bucketLowerBound(idx);
    EXPECT_EQ(bucketIndex(lo), idx) << "lower bound of bucket " << idx;
    if (lo > 0) {
      EXPECT_LT(bucketIndex(lo - 1), idx) << "value below bucket " << idx;
    }
  }
}

TEST(HistogramBuckets, UpperBoundIsLargestValueMappingToBucket) {
  for (std::size_t idx = 0; idx + 1 < metrics::kHistoBuckets; ++idx) {
    const std::uint64_t hi = bucketUpperBound(idx);
    EXPECT_EQ(bucketIndex(hi), idx) << "upper bound of bucket " << idx;
    EXPECT_EQ(bucketIndex(hi + 1), idx + 1) << "value above bucket " << idx;
  }
}

TEST(HistogramBuckets, MonotoneOverPowersOfTwo) {
  std::size_t last = 0;
  for (int exp = 0; exp < 63; ++exp) {
    const std::uint64_t v = std::uint64_t{1} << exp;
    const std::size_t idx = bucketIndex(v);
    EXPECT_GE(idx, last) << "v=2^" << exp;
    last = idx;
  }
}

TEST(HistogramBuckets, HugeValuesSaturateIntoLastBucket) {
  EXPECT_EQ(bucketIndex(~std::uint64_t{0}), metrics::kHistoBuckets - 1);
  EXPECT_EQ(bucketIndex(std::uint64_t{1} << 40), metrics::kHistoBuckets - 1);
  EXPECT_EQ(bucketUpperBound(metrics::kHistoBuckets - 1), ~std::uint64_t{0});
}

TEST(HistogramBuckets, RelativeErrorBoundedBySubBucketWidth) {
  // Within an octave split into 16 sub-buckets, the bucket width is
  // 2^exp/16, so lower-bound quantiles under-report by < 6.25%.
  for (std::uint64_t v = 16; v < (1u << 20); v = v * 17 / 16 + 1) {
    const std::size_t idx = bucketIndex(v);
    const std::uint64_t lo = bucketLowerBound(idx);
    EXPECT_LE(lo, v);
    EXPECT_LT(static_cast<double>(v - lo), 0.0625 * static_cast<double>(v));
  }
}

TEST(HistogramData, EmptyQuantilesAreZero) {
  const HistogramData h;
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.totalInBuckets(), 0u);
}

TEST(HistogramData, SingleSampleDominatesEveryQuantile) {
  HistogramData h;
  h.buckets[bucketIndex(100)] = 1;
  h.count = 1;
  h.sum = 100;
  const std::uint64_t expect = bucketLowerBound(bucketIndex(100));
  EXPECT_EQ(h.quantile(0.0), expect);
  EXPECT_EQ(h.quantile(0.5), expect);
  EXPECT_EQ(h.quantile(0.999), expect);
  EXPECT_EQ(h.quantile(1.0), expect);
}

TEST(HistogramData, QuantilesClampOutOfRangeInputs) {
  HistogramData h;
  h.buckets[3] = 4;
  h.count = 4;
  EXPECT_EQ(h.quantile(-1.0), 3u);
  EXPECT_EQ(h.quantile(2.0), 3u);
}

TEST(HistogramData, QuantileWalksTheDistribution) {
  // 90 samples at 10, 9 at 1000, 1 at 100000: p50 in the low bucket, p99
  // in the middle, p999 at the top (within bucket accuracy).
  HistogramData h;
  h.buckets[bucketIndex(10)] += 90;
  h.buckets[bucketIndex(1000)] += 9;
  h.buckets[bucketIndex(100000)] += 1;
  h.count = 100;
  h.sum = 90 * 10 + 9 * 1000 + 100000;
  EXPECT_EQ(h.quantile(0.50), bucketLowerBound(bucketIndex(10)));
  EXPECT_EQ(h.quantile(0.99), bucketLowerBound(bucketIndex(1000)));
  EXPECT_EQ(h.quantile(0.999), bucketLowerBound(bucketIndex(100000)));
}

TEST(HistogramData, SaturatedSamplesReportLastBucketBound) {
  HistogramData h;
  h.buckets[metrics::kHistoBuckets - 1] = 2;
  h.count = 2;
  EXPECT_EQ(h.quantile(0.5), bucketLowerBound(metrics::kHistoBuckets - 1));
}

TEST(HistogramData, MergeAddsBucketwise) {
  HistogramData a;
  a.buckets[5] = 2;
  a.count = 2;
  a.sum = 10;
  HistogramData b;
  b.buckets[5] = 1;
  b.buckets[200] = 3;
  b.count = 4;
  b.sum = 50;
  a.merge(b);
  EXPECT_EQ(a.buckets[5], 3u);
  EXPECT_EQ(a.buckets[200], 3u);
  EXPECT_EQ(a.count, 6u);
  EXPECT_EQ(a.sum, 60u);
  EXPECT_EQ(a.totalInBuckets(), 6u);
}

TEST(HistogramCatalogue, RecordShowsUpInSnapshot) {
  metrics::reset();
  metrics::record(metrics::Histo::kPassLatencyUs, 42);
  metrics::record(metrics::Histo::kPassLatencyUs, 42);
  metrics::record(metrics::Histo::kRequestRttUs, 7);
  const metrics::Snapshot snap = metrics::snapshot();
  const metrics::HistogramData& pass = snap[metrics::Histo::kPassLatencyUs];
  EXPECT_EQ(pass.count, 2u);
  EXPECT_EQ(pass.sum, 84u);
  EXPECT_EQ(pass.buckets[bucketIndex(42)], 2u);
  EXPECT_EQ(snap[metrics::Histo::kRequestRttUs].count, 1u);
  EXPECT_EQ(snap[metrics::Histo::kJournalFsyncUs].count, 0u);
  metrics::reset();
  EXPECT_EQ(metrics::snapshot()[metrics::Histo::kPassLatencyUs].count, 0u);
}

TEST(HistogramCatalogue, EveryHistoHasAName) {
  for (std::size_t i = 0; i < metrics::kHistoCount; ++i) {
    const std::string_view n = metrics::name(static_cast<metrics::Histo>(i));
    EXPECT_FALSE(n.empty()) << "histo " << i;
    EXPECT_NE(n, "unknown") << "histo " << i;
  }
}
