// Per-machine storage usage over time.
//
// Cap[i](t) in the paper is piecewise constant: it changes when a copy of an
// item is placed on a machine and when garbage collection reclaims it. We
// track *usage* as a piecewise-constant step function keyed by breakpoints;
// free capacity over a window is capacity minus the maximum usage inside it.
//
// Layout: the breakpoints live in a sorted sequence of bounded chunks; a
// chunk that reaches 2 * kChunk breakpoints (kChunk = 32) splits in half, so
// a new breakpoint shifts one chunk, not the whole tail. Each chunk carries
// the maximum of its breakpoints' stored usage and a lazy `add` that applies
// to every breakpoint in it. allocate() splits the step function at the
// window's begin (and end, when finite), adds the bytes directly to the
// partially covered edge chunks and to the lazy `add` of every chunk wholly
// inside the window. max_usage() reads the edge chunks breakpoint by
// breakpoint and every chunk wholly inside the window as `max + add`. With C
// chunks and n breakpoints in the window, a query costs
// O(log C + n / kChunk + kChunk) and is exact: destination holds run to
// infinity, so fit checks no longer scan every later breakpoint.
//
// Times at or beyond SimTime::infinity() are the end of time: a window
// ending there covers every later breakpoint and splits nothing at its end.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/interval.hpp"
#include "util/time.hpp"

namespace datastage {

class StorageTimeline {
 public:
  explicit StorageTimeline(std::int64_t capacity_bytes);

  std::int64_t capacity() const { return capacity_; }

  /// Maximum usage at any instant within [iv.begin, iv.end).
  std::int64_t max_usage(const Interval& iv) const;

  /// Free bytes guaranteed throughout `iv`.
  std::int64_t min_free(const Interval& iv) const { return capacity_ - max_usage(iv); }

  /// True iff `bytes` fit throughout `iv`.
  bool fits(std::int64_t bytes, const Interval& iv) const {
    return bytes <= min_free(iv);
  }

  /// Adds `bytes` of usage throughout `iv`. Asserts the result never exceeds
  /// capacity (callers must check with fits() first).
  void allocate(std::int64_t bytes, const Interval& iv);

  /// Usage at a single instant.
  std::int64_t usage_at(SimTime t) const;

 private:
  // Split threshold 2 * kChunk keeps every chunk in [kChunk, 2 * kChunk)
  // after its first split.
  static constexpr std::size_t kChunk = 32;

  // Usage level starting at `time`, lasting until the next breakpoint. The
  // stored level excludes the owning chunk's lazy `add`.
  struct Breakpoint {
    SimTime time;
    std::int64_t usage;
  };

  struct Chunk {
    std::vector<Breakpoint> items;  // times strictly ascending, non-empty
    SimTime first;                  // == items.front().time
    std::int64_t max = 0;           // max of items[].usage
    std::int64_t add = 0;           // true level of items[i] is usage + add
  };

  // Position (chunk, index-in-chunk) of the last breakpoint with time <= t:
  // the breakpoint whose level is in effect at t. {0, size_t(-1)} when t is
  // before time zero (usage there is 0).
  std::pair<std::size_t, std::size_t> step_at(SimTime t) const;
  // Ensures a breakpoint exists at `t` without changing any level.
  void split_at(SimTime t);
  void maybe_split(std::size_t chunk);

  // Invariant: globally sorted, chunk i precedes chunk i + 1, never empty;
  // the first breakpoint is at time zero (items never exist before it).
  std::vector<Chunk> chunks_;
  std::int64_t capacity_;
};

}  // namespace datastage
