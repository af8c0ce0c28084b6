#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace parastack::util {
namespace {

TEST(Histogram, BucketsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(Histogram, AddsToCorrectBucket) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.9);
  h.add(2.0);
  h.add(9.99);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeTrackedSeparately) {
  // Out-of-range samples must not be folded into the edge buckets — that
  // silently corrupts the tails. They land in explicit flow counters.
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(42.0);
  h.add(1.0);  // the range is half-open: hi itself overflows
  h.add(0.25);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.in_range(), 1u);
}

TEST(Histogram, AsciiRendersFlowRows) {
  Histogram h(0.0, 2.0, 2);
  h.add(-1.0);
  h.add(5.0);
  h.add(5.5);
  h.add(0.5);
  const std::string art = h.ascii(10);
  int lines = 0;
  for (const char c : art) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);  // underflow + 2 buckets + overflow
  EXPECT_NE(art.find("<"), std::string::npos);
  EXPECT_NE(art.find(">="), std::string::npos);
}

TEST(Histogram, AsciiOmitsEmptyFlowRows) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  const std::string art = h.ascii(10);
  int lines = 0;
  for (const char c : art) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_EQ(art.find(">="), std::string::npos);
}

TEST(Histogram, AsciiRendersOneLinePerBucket) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5);
  h.add(0.6);
  h.add(2.5);
  const std::string art = h.ascii(10);
  int lines = 0;
  for (const char c : art) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(HistogramDeath, InvalidConstruction) {
  EXPECT_DEATH(Histogram(1.0, 1.0, 3), "non-empty");
  EXPECT_DEATH(Histogram(0.0, 1.0, 0), "at least one");
}

TEST(Histogram, ExactEdgeSamplesLandInTheEdgeBucket) {
  // bucket_lo(b) is the published inclusive lower edge, but the float
  // division (x - lo) / width can round a sample sitting exactly on it
  // into bucket b-1 (e.g. width = 1/3). add() must agree with the edges.
  Histogram h(0.0, 1.0, 3);
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    h.add(h.bucket_lo(b));
  }
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    EXPECT_EQ(h.count(b), 1u) << "edge sample strayed from bucket " << b;
  }
}

TEST(Histogram, PropertyCountsConserveAndMatchEdges) {
  Rng rng(0x5150ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const double lo = rng.uniform(-100.0, 100.0);
    const double hi = lo + rng.uniform(0.5, 200.0);
    const auto buckets =
        static_cast<std::size_t>(rng.uniform_int(std::int64_t{1}, 40));
    Histogram h(lo, hi, buckets);
    std::vector<std::size_t> expected(buckets, 0);
    std::size_t expected_under = 0;
    std::size_t expected_over = 0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
      // Mix interior draws with exact-edge hits (the off-by-one trap).
      double x;
      const double kind = rng.uniform();
      if (kind < 0.2) {
        x = h.bucket_lo(
            static_cast<std::size_t>(rng.uniform_int(std::uint64_t{buckets})));
      } else {
        x = rng.uniform(lo - 10.0, hi + 10.0);
      }
      h.add(x);
      if (x < lo) {
        ++expected_under;
      } else if (x >= hi) {
        ++expected_over;
      } else {
        // Reference classification: scan the published edges.
        std::size_t b = buckets - 1;
        for (std::size_t j = 0; j + 1 < buckets; ++j) {
          if (x >= h.bucket_lo(j) && x < h.bucket_lo(j + 1)) {
            b = j;
            break;
          }
        }
        ++expected[b];
      }
    }
    EXPECT_EQ(h.total(), static_cast<std::size_t>(n));
    EXPECT_EQ(h.underflow(), expected_under);
    EXPECT_EQ(h.overflow(), expected_over);
    EXPECT_EQ(h.in_range(),
              static_cast<std::size_t>(n) - expected_under - expected_over);
    for (std::size_t b = 0; b < buckets; ++b) {
      EXPECT_EQ(h.count(b), expected[b])
          << "trial " << trial << " bucket " << b;
    }
  }
}

}  // namespace
}  // namespace parastack::util
