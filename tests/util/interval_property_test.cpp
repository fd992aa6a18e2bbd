// Randomized property suite: IntervalSet vs an independent naive reference.
//
// The reference implements the documented contract with linear scans and
// full-vector rebuilds — no binary search, no clever in-place surgery — so
// any agreement between the two is evidence about the contract, not shared
// code. It pins the exact member layout (adjacency preserved by
// insert_disjoint, merged by insert_merge) and the earliest_fit boundary
// semantics (window edges, zero-length requests, zero-length windows).
#include "util/interval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace datastage {
namespace {

SimTime at(std::int64_t usec) { return SimTime::zero() + SimDuration::from_usec(usec); }

// Naive reference: a sorted vector of disjoint members, every operation a
// linear pass.
class NaiveSet {
 public:
  const std::vector<Interval>& members() const { return members_; }

  bool overlaps(const Interval& iv) const {
    if (iv.empty()) return false;
    return std::any_of(members_.begin(), members_.end(),
                       [&](const Interval& m) { return m.overlaps(iv); });
  }

  void insert_disjoint(const Interval& iv) {
    members_.push_back(iv);
    sort();
  }

  void insert_merge(const Interval& iv) {
    if (iv.empty()) return;
    Interval merged = iv;
    std::vector<Interval> rest;
    for (const Interval& m : members_) {
      // Overlapping or exactly adjacent members coalesce into the new one.
      if (m.overlaps(merged) || m.end == merged.begin || merged.end == m.begin) {
        merged.begin = min(merged.begin, m.begin);
        merged.end = max(merged.end, m.end);
      } else {
        rest.push_back(m);
      }
    }
    rest.push_back(merged);
    members_ = std::move(rest);
    sort();
  }

  void subtract(const Interval& iv) {
    if (iv.empty()) return;
    std::vector<Interval> rest;
    for (const Interval& m : members_) {
      if (!m.overlaps(iv)) {
        rest.push_back(m);
        continue;
      }
      if (m.begin < iv.begin) rest.push_back(Interval{m.begin, iv.begin});
      if (iv.end < m.end) rest.push_back(Interval{iv.end, m.end});
    }
    members_ = std::move(rest);
    sort();
  }

  std::optional<SimTime> earliest_fit(SimTime not_before, SimDuration length,
                                      const Interval& window) const {
    SimTime start = max(not_before, window.begin);
    while (true) {
      if (start + length > window.end) return std::nullopt;
      const Interval candidate{start, start + length};
      // A zero-length candidate is blocked only strictly inside a member
      // (start == member.begin fits; Interval::overlaps agrees: an empty
      // interval at m.begin does not overlap m).
      std::optional<SimTime> bump;
      for (const Interval& m : members_) {
        const bool blocked = candidate.empty()
                                 ? (m.begin < start && start < m.end)
                                 : m.overlaps(candidate);
        if (blocked && (!bump.has_value() || m.end < *bump)) bump = m.end;
      }
      if (!bump.has_value()) return start;
      start = *bump;
    }
  }

  SimDuration covered_within(const Interval& window) const {
    SimDuration total = SimDuration::zero();
    for (const Interval& m : members_) {
      const SimTime lo = max(m.begin, window.begin);
      const SimTime hi = min(m.end, window.end);
      if (lo < hi) total = total + (hi - lo);
    }
    return total;
  }

 private:
  void sort() {
    std::sort(members_.begin(), members_.end(),
              [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  }

  std::vector<Interval> members_;
};

Interval random_interval(Rng& rng, std::int64_t domain) {
  const std::int64_t a = rng.uniform_i64(0, domain);
  const std::int64_t len = rng.uniform_i64(1, domain / 8 + 1);
  return Interval{at(a), at(a + len)};
}

void expect_same_members(const IntervalSet& real, const NaiveSet& naive,
                         std::uint64_t seed, int step) {
  ASSERT_EQ(real.intervals().size(), naive.members().size())
      << "seed " << seed << " step " << step;
  for (std::size_t i = 0; i < naive.members().size(); ++i) {
    EXPECT_EQ(real.intervals()[i], naive.members()[i])
        << "seed " << seed << " step " << step << " member " << i;
  }
}

// Random op soup: every mutation applied to both, full member-list equality
// and query agreement checked after each step.
TEST(IntervalPropertyTest, RandomOperationsAgreeWithNaiveReference) {
  constexpr std::int64_t kDomain = 240;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    IntervalSet real;
    NaiveSet naive;
    for (int step = 0; step < 160; ++step) {
      const std::int64_t op = rng.uniform_i64(0, 3);
      const Interval iv = random_interval(rng, kDomain);
      switch (op) {
        case 0:  // insert_disjoint where legal, otherwise a query
          if (!naive.overlaps(iv)) {
            ASSERT_FALSE(real.overlaps(iv));
            real.insert_disjoint(iv);
            naive.insert_disjoint(iv);
          } else {
            EXPECT_TRUE(real.overlaps(iv));
          }
          break;
        case 1:
          real.insert_merge(iv);
          naive.insert_merge(iv);
          break;
        case 2:
          real.subtract(iv);
          naive.subtract(iv);
          break;
        default:
          EXPECT_EQ(real.overlaps(iv), naive.overlaps(iv));
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_members(real, naive, seed, step));

      // Query agreement on a random probe each step.
      const Interval window = random_interval(rng, kDomain);
      const SimTime nb = at(rng.uniform_i64(0, kDomain));
      const SimDuration len = SimDuration::from_usec(rng.uniform_i64(0, 24));
      EXPECT_EQ(real.earliest_fit(nb, len, window),
                naive.earliest_fit(nb, len, window))
          << "seed " << seed << " step " << step;
      EXPECT_EQ(real.covered_within(window), naive.covered_within(window))
          << "seed " << seed << " step " << step;
    }
  }
}

// Dense adjacency stress: many touching members from alternating disjoint
// inserts and subtracts, then exhaustive earliest_fit probes at every
// boundary-adjacent start. Catches off-by-ones a random probe rarely hits.
TEST(IntervalPropertyTest, ExhaustiveBoundaryProbesOnAdjacentMembers) {
  IntervalSet real;
  NaiveSet naive;
  // [10,20) [20,30) [40,50) [50,52) plus merge-made [60,80).
  for (const Interval iv : {Interval{at(10), at(20)}, Interval{at(20), at(30)},
                            Interval{at(40), at(50)}, Interval{at(50), at(52)}}) {
    real.insert_disjoint(iv);
    naive.insert_disjoint(iv);
  }
  real.insert_merge(Interval{at(60), at(70)});
  naive.insert_merge(Interval{at(60), at(70)});
  real.insert_merge(Interval{at(70), at(80)});
  naive.insert_merge(Interval{at(70), at(80)});
  real.subtract(Interval{at(44), at(46)});
  naive.subtract(Interval{at(44), at(46)});
  expect_same_members(real, naive, 0, 0);

  for (std::int64_t wb = 0; wb <= 90; wb += 5) {
    for (std::int64_t we = wb; we <= 90; we += 5) {  // includes empty windows
      const Interval window{at(wb), at(we)};
      for (std::int64_t nb = 0; nb <= 90; nb += 3) {
        for (const std::int64_t len : {0, 1, 2, 5, 10, 30}) {
          EXPECT_EQ(real.earliest_fit(at(nb), SimDuration::from_usec(len), window),
                    naive.earliest_fit(at(nb), SimDuration::from_usec(len), window))
              << "window [" << wb << "," << we << ") nb " << nb << " len " << len;
        }
      }
    }
  }
}

// Reservation workload (insert_disjoint only — what LinkSchedule does)
// replayed against IntervalSet and the naive reference: member lists and
// every query must agree. Hundreds of short reservations per trial, so
// inserts land before, between and after long runs of existing members.
TEST(IntervalPropertyTest, MatchesNaiveSetOnReservationWorkloads) {
  constexpr std::int64_t kDomain = 20'000;
  // Short intervals, like link reservations: long draws saturate the domain
  // after a couple dozen inserts.
  const auto random_reservation = [](Rng& rng) {
    const std::int64_t a = rng.uniform_i64(0, kDomain);
    const std::int64_t len = rng.uniform_i64(1, 24);
    return Interval{at(a), at(a + len)};
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    IntervalSet real;
    NaiveSet naive;
    int inserted = 0;
    for (int step = 0; step < 900; ++step) {
      const Interval iv = random_reservation(rng);
      ASSERT_EQ(real.overlaps(iv), naive.overlaps(iv)) << "seed " << seed;
      if (!naive.overlaps(iv)) {
        real.insert_disjoint(iv);
        naive.insert_disjoint(iv);
        ++inserted;
      }

      const Interval window = random_interval(rng, kDomain);
      const SimTime nb = at(rng.uniform_i64(0, kDomain));
      const SimDuration len = SimDuration::from_usec(rng.uniform_i64(0, 400));
      ASSERT_EQ(real.earliest_fit(nb, len, window), naive.earliest_fit(nb, len, window))
          << "seed " << seed << " step " << step;
    }
    ASSERT_GT(inserted, 200) << "seed " << seed;
    EXPECT_EQ(real.intervals(), naive.members());
  }
}

// --- directed boundary cases ----------------------------------------------

TEST(IntervalPropertyTest, EarliestFitExactlyFillsTheWindowTail) {
  IntervalSet set;
  set.insert_disjoint(Interval{at(0), at(90)});
  const Interval window{at(0), at(100)};
  EXPECT_EQ(set.earliest_fit(at(0), SimDuration::from_usec(10), window), at(90));
  EXPECT_EQ(set.earliest_fit(at(0), SimDuration::from_usec(11), window), std::nullopt);
}

TEST(IntervalPropertyTest, EarliestFitAtTheWindowBegin) {
  IntervalSet set;
  set.insert_disjoint(Interval{at(0), at(10)});
  const Interval window{at(10), at(30)};
  // The busy interval ends exactly at the window begin: fits immediately.
  EXPECT_EQ(set.earliest_fit(at(0), SimDuration::from_usec(20), window), at(10));
}

TEST(IntervalPropertyTest, ZeroLengthWindowAdmitsOnlyZeroLengthFits) {
  const IntervalSet set;
  const Interval window{at(50), at(50)};
  EXPECT_EQ(set.earliest_fit(at(0), SimDuration::zero(), window), at(50));
  EXPECT_EQ(set.earliest_fit(at(0), SimDuration::from_usec(1), window), std::nullopt);
  // not_before past the (empty) window: nothing fits, not even zero length.
  EXPECT_EQ(set.earliest_fit(at(51), SimDuration::zero(), window), std::nullopt);
}

TEST(IntervalPropertyTest, ZeroLengthFitSkipsStrictInteriorsButNotSeams) {
  IntervalSet set;
  set.insert_disjoint(Interval{at(10), at(20)});
  set.insert_disjoint(Interval{at(20), at(30)});  // adjacent, kept separate
  const Interval window{at(0), at(100)};
  // Strictly inside the first member: bumped to its end — which is the seam
  // between the two members, and a zero-length fit at a seam is legal.
  EXPECT_EQ(set.earliest_fit(at(15), SimDuration::zero(), window), at(20));
  EXPECT_EQ(set.earliest_fit(at(10), SimDuration::zero(), window), at(10));
}

TEST(IntervalPropertyTest, CoveredWithinClipsPartialOverlaps) {
  IntervalSet set;
  set.insert_merge(Interval{at(0), at(10)});
  set.insert_merge(Interval{at(20), at(30)});
  EXPECT_EQ(set.covered_within(Interval{at(5), at(25)}),
            SimDuration::from_usec(10));
  EXPECT_EQ(set.covered_within(Interval{at(12), at(18)}), SimDuration::zero());
  EXPECT_EQ(set.covered_within(Interval{at(30), at(30)}), SimDuration::zero());
}

}  // namespace
}  // namespace datastage
