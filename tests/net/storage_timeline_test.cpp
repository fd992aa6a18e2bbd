#include "net/storage_timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace datastage {
namespace {

Interval iv(std::int64_t a, std::int64_t b) {
  return Interval{SimTime::from_usec(a), SimTime::from_usec(b)};
}

TEST(StorageTimelineTest, StartsEmpty) {
  const StorageTimeline st(100);
  EXPECT_EQ(st.capacity(), 100);
  EXPECT_EQ(st.usage_at(SimTime::zero()), 0);
  EXPECT_EQ(st.max_usage(iv(0, 1'000'000)), 0);
  EXPECT_EQ(st.min_free(iv(0, 1'000'000)), 100);
}

TEST(StorageTimelineTest, SingleAllocation) {
  StorageTimeline st(100);
  st.allocate(30, iv(10, 50));
  EXPECT_EQ(st.usage_at(SimTime::from_usec(9)), 0);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(10)), 30);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(49)), 30);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(50)), 0);  // half-open release
  EXPECT_EQ(st.max_usage(iv(0, 10)), 0);
  EXPECT_EQ(st.max_usage(iv(0, 11)), 30);
  EXPECT_EQ(st.max_usage(iv(50, 60)), 0);
}

TEST(StorageTimelineTest, OverlappingAllocationsStack) {
  StorageTimeline st(100);
  st.allocate(30, iv(10, 50));
  st.allocate(40, iv(30, 80));
  EXPECT_EQ(st.max_usage(iv(0, 100)), 70);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(30)), 70);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(50)), 40);
  EXPECT_TRUE(st.fits(30, iv(0, 100)));
  EXPECT_FALSE(st.fits(31, iv(0, 100)));
  EXPECT_TRUE(st.fits(60, iv(50, 100)));  // after the first release
}

TEST(StorageTimelineTest, InfiniteHoldWindows) {
  StorageTimeline st(100);
  st.allocate(60, Interval{SimTime::from_usec(5), SimTime::infinity()});
  EXPECT_EQ(st.max_usage(Interval{SimTime::zero(), SimTime::infinity()}), 60);
  EXPECT_FALSE(st.fits(50, Interval{SimTime::from_usec(7), SimTime::infinity()}));
  EXPECT_TRUE(st.fits(40, Interval{SimTime::from_usec(7), SimTime::infinity()}));
  EXPECT_TRUE(st.fits(100, iv(0, 5)));  // before the hold begins
}

TEST(StorageTimelineTest, ExactCapacityFits) {
  StorageTimeline st(100);
  st.allocate(100, iv(0, 10));
  EXPECT_EQ(st.max_usage(iv(0, 10)), 100);
  EXPECT_TRUE(st.fits(100, iv(10, 20)));
  EXPECT_FALSE(st.fits(1, iv(5, 15)));
}

TEST(StorageTimelineTest, EmptyIntervalAndZeroBytesAreNoOps) {
  StorageTimeline st(10);
  st.allocate(5, iv(7, 7));
  st.allocate(0, iv(0, 100));
  EXPECT_EQ(st.max_usage(iv(0, 100)), 0);
  EXPECT_EQ(st.max_usage(iv(5, 5)), 0);  // empty query
}

TEST(StorageTimelineTest, ManyAdjacentAllocations) {
  StorageTimeline st(1000);
  for (std::int64_t i = 0; i < 10; ++i) {
    st.allocate(10, iv(i * 10, i * 10 + 10));
  }
  // Adjacent, never overlapping: max stays 10.
  EXPECT_EQ(st.max_usage(iv(0, 100)), 10);
  st.allocate(5, iv(0, 100));
  EXPECT_EQ(st.max_usage(iv(0, 100)), 15);
}

// Every query must give the same answer as a brute-force sum over the raw
// allocation list, on short random windows.
TEST(StorageTimelineTest, RandomAllocationsMatchBruteForce) {
  constexpr std::int64_t kDomain = 500;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    StorageTimeline st(std::int64_t{1} << 40);
    std::vector<std::pair<Interval, std::int64_t>> raw;
    const auto brute_at = [&](std::int64_t t) {
      std::int64_t total = 0;
      for (const auto& [alloc_iv, bytes] : raw) {
        if (alloc_iv.contains(SimTime::from_usec(t))) total += bytes;
      }
      return total;
    };
    for (int step = 0; step < 120; ++step) {
      const std::int64_t a = rng.uniform_i64(0, kDomain);
      const std::int64_t b = a + rng.uniform_i64(1, 60);
      const std::int64_t bytes = rng.uniform_i64(1, 1000);
      st.allocate(bytes, iv(a, b));
      raw.emplace_back(iv(a, b), bytes);

      const std::int64_t t = rng.uniform_i64(0, kDomain);
      EXPECT_EQ(st.usage_at(SimTime::from_usec(t)), brute_at(t))
          << "seed " << seed << " step " << step << " t " << t;

      const std::int64_t qa = rng.uniform_i64(0, kDomain);
      const std::int64_t qb = qa + rng.uniform_i64(0, 80);
      std::int64_t best = 0;
      for (std::int64_t u = qa; u < qb; ++u) best = std::max(best, brute_at(u));
      EXPECT_EQ(st.max_usage(iv(qa, qb)), best)
          << "seed " << seed << " step " << step << " [" << qa << "," << qb << ")";
    }
  }
}

// Naive per-instant oracle: one usage level per microsecond of [0, kLast),
// plus one level for every instant from kLast on (only infinite holds reach
// that far). Each allocation adds to every instant it covers.
class InstantOracle {
 public:
  static constexpr std::int64_t kLast = 2600;

  InstantOracle() : levels_(index(kLast + 1), 0) {}

  void allocate(std::int64_t bytes, std::int64_t begin, std::int64_t end) {
    for (std::int64_t t = begin; t < std::min(end, kLast + 1); ++t) level(t) += bytes;
  }

  std::int64_t at(std::int64_t t) const { return levels_[index(std::min(t, kLast))]; }

  // Max over [begin, end); kLast + 1 or more stands for an infinite end.
  std::int64_t max_over(std::int64_t begin, std::int64_t end) const {
    std::int64_t best = 0;
    for (std::int64_t t = begin; t < std::min(end, kLast + 1); ++t) {
      best = std::max(best, levels_[index(t)]);
    }
    return best;
  }

 private:
  static std::size_t index(std::int64_t t) { return static_cast<std::size_t>(t); }
  std::int64_t& level(std::int64_t t) { return levels_[index(t)]; }

  std::vector<std::int64_t> levels_;
};

constexpr std::int64_t kForever = InstantOracle::kLast + 1;

Interval window(std::int64_t begin, std::int64_t end) {
  return Interval{SimTime::from_usec(begin),
                  end >= kForever ? SimTime::infinity() : SimTime::from_usec(end)};
}

// Exhaustive sweep over every breakpoint time t: windows starting at t, just
// before t and between t and the previous breakpoint; windows ending at t
// (every chunk boundary is some breakpoint's time); infinite windows.
void expect_matches_everywhere(const StorageTimeline& st, const InstantOracle& oracle,
                               const std::vector<std::int64_t>& times,
                               std::uint64_t seed, int step) {
  std::int64_t prev = 0;
  for (const std::int64_t t : times) {
    const auto where = [&] {
      return ::testing::Message() << "seed " << seed << " step " << step << " t " << t;
    };
    EXPECT_EQ(st.usage_at(SimTime::from_usec(t)), oracle.at(t)) << where();
    for (const std::int64_t begin : {t, t - 1, (prev + t) / 2, prev, std::int64_t{0}}) {
      if (begin < 0) continue;
      EXPECT_EQ(st.max_usage(window(begin, kForever)), oracle.max_over(begin, kForever))
          << where() << " [" << begin << ",inf)";
      if (begin < t) {
        EXPECT_EQ(st.max_usage(window(begin, t)), oracle.max_over(begin, t))
            << where() << " [" << begin << "," << t << ")";
      }
      EXPECT_EQ(st.max_usage(window(begin, t + 1)), oracle.max_over(begin, t + 1))
          << where() << " [" << begin << "," << t + 1 << ")";
    }
    prev = t;
  }
}

// Randomized suite for the chunked max/lazy-add layout: hundreds of
// breakpoints on one timeline (many chunk splits), repeated allocations at
// identical begin and end, infinite holds, and allocations that exactly fill
// capacity, all checked against the per-instant oracle.
TEST(StorageTimelinePropertyTest, ChunkedLayoutMatchesInstantOracle) {
  constexpr std::int64_t kCapacity = 1'000'000;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    StorageTimeline st(kCapacity);
    InstantOracle oracle;
    std::vector<std::int64_t> times{0};  // distinct breakpoint times, sorted
    const auto note_time = [&](std::int64_t t) {
      const auto it = std::lower_bound(times.begin(), times.end(), t);
      if (it == times.end() || *it != t) times.insert(it, t);
    };
    std::int64_t begin = 0;
    std::int64_t end = 1;
    int exact_fills = 0;
    for (int step = 0; step < 600; ++step) {
      // Repeat the previous window now and then; otherwise reuse existing
      // breakpoints as begin or end, or draw fresh ones.
      if (!rng.bernoulli(0.125)) {
        begin = rng.bernoulli(0.25) ? times[static_cast<std::size_t>(rng.uniform_i64(
                                          0, static_cast<std::int64_t>(times.size()) - 1))]
                                    : rng.uniform_i64(0, 2000);
        const auto later = std::upper_bound(times.begin(), times.end(), begin);
        if (rng.bernoulli(0.125)) {
          end = kForever;
        } else if (later != times.end() && rng.bernoulli(0.25)) {
          end = *later;
        } else {
          end = begin + rng.uniform_i64(1, 400);
        }
      }
      const Interval iv = window(begin, end);
      const std::int64_t room = kCapacity - oracle.max_over(begin, end);
      ASSERT_EQ(st.min_free(iv), room) << "seed " << seed << " step " << step;
      const bool fill = end < kForever && rng.bernoulli(0.05);
      const std::int64_t bytes = fill ? room : rng.uniform_i64(1, 2000);
      if (bytes > room) {
        EXPECT_FALSE(st.fits(bytes, iv)) << "seed " << seed << " step " << step;
        continue;
      }
      EXPECT_TRUE(st.fits(bytes, iv)) << "seed " << seed << " step " << step;
      st.allocate(bytes, iv);
      oracle.allocate(bytes, begin, end);
      note_time(begin);
      if (end < kForever) note_time(end);
      if (fill && bytes > 0) {
        ++exact_fills;
        EXPECT_EQ(st.max_usage(iv), kCapacity);
        EXPECT_FALSE(st.fits(1, iv));
      }

      const std::int64_t qa = rng.uniform_i64(0, InstantOracle::kLast);
      const std::int64_t qb = rng.bernoulli(0.5) ? kForever : qa + rng.uniform_i64(1, 300);
      EXPECT_EQ(st.max_usage(window(qa, qb)), oracle.max_over(qa, qb))
          << "seed " << seed << " step " << step << " [" << qa << "," << qb << ")";
      if (step % 100 == 99) {
        ASSERT_NO_FATAL_FAILURE(expect_matches_everywhere(st, oracle, times, seed, step));
      }
    }
    EXPECT_GT(times.size(), 200u) << "seed " << seed;
    EXPECT_GT(exact_fills, 0) << "seed " << seed;
  }
}

TEST(StorageTimelineDeathTest, OverCapacityAllocationAborts) {
  StorageTimeline st(100);
  st.allocate(80, iv(0, 50));
  EXPECT_DEATH(st.allocate(30, iv(40, 60)), "capacity");
}

}  // namespace
}  // namespace datastage
