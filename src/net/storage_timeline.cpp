#include "net/storage_timeline.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

StorageTimeline::StorageTimeline(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  DS_ASSERT(capacity_bytes >= 0);
  chunks_.push_back(Chunk{{Breakpoint{SimTime::zero(), 0}}, SimTime::zero(), 0, 0});
}

std::pair<std::size_t, std::size_t> StorageTimeline::step_at(SimTime t) const {
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), t,
      [](SimTime value, const Chunk& c) { return value < c.first; });
  if (it == chunks_.begin()) return {0, kNone};
  const Chunk& chunk = *std::prev(it);
  const auto jt = std::upper_bound(
      chunk.items.begin(), chunk.items.end(), t,
      [](SimTime value, const Breakpoint& bp) { return value < bp.time; });
  // chunk.first <= t, so at least one breakpoint of this chunk precedes jt.
  return {static_cast<std::size_t>(it - chunks_.begin()) - 1,
          static_cast<std::size_t>(jt - chunk.items.begin()) - 1};
}

std::int64_t StorageTimeline::usage_at(SimTime t) const {
  const auto [ci, ii] = step_at(t);
  if (ii == kNone) return 0;  // before every breakpoint
  return chunks_[ci].items[ii].usage + chunks_[ci].add;
}

std::int64_t StorageTimeline::max_usage(const Interval& iv) const {
  if (iv.empty()) return 0;
  // The maximum of a step function over [begin, end) is the largest level
  // among the step in effect at begin and every breakpoint inside the
  // window. Before the first breakpoint the level is 0.
  auto [ci, from] = step_at(iv.begin);
  if (from == kNone) from = 0;  // a window from before time zero
  std::int64_t best = 0;
  for (std::size_t c = ci; c < chunks_.size(); ++c, from = 0) {
    const Chunk& chunk = chunks_[c];
    if (from == 0 && chunk.items.back().time < iv.end) {
      best = std::max(best, chunk.max + chunk.add);  // wholly inside
      continue;
    }
    for (std::size_t j = from; j < chunk.items.size(); ++j) {
      if (chunk.items[j].time >= iv.end) return best;
      best = std::max(best, chunk.items[j].usage + chunk.add);
    }
  }
  return best;
}

void StorageTimeline::allocate(std::int64_t bytes, const Interval& iv) {
  DS_ASSERT(bytes >= 0);
  if (iv.empty() || bytes == 0) return;
  DS_ASSERT_MSG(max_usage(iv) + bytes <= capacity_,
                "storage allocation exceeds machine capacity (caller must "
                "check fits() first)");
  split_at(iv.begin);
  if (!iv.end.is_infinite()) split_at(iv.end);

  // Every breakpoint in [begin, end) rises by `bytes`: whole chunks through
  // their lazy add, the edge chunks one breakpoint at a time.
  auto [ci, from] = step_at(iv.begin);  // the breakpoint at iv.begin
  for (std::size_t c = ci; c < chunks_.size(); ++c, from = 0) {
    Chunk& chunk = chunks_[c];
    if (from == 0 && chunk.items.back().time < iv.end) {
      chunk.add += bytes;
      continue;
    }
    for (std::size_t j = from; j < chunk.items.size(); ++j) {
      if (chunk.items[j].time >= iv.end) return;
      chunk.items[j].usage += bytes;
      chunk.max = std::max(chunk.max, chunk.items[j].usage);
    }
  }
}

void StorageTimeline::split_at(SimTime t) {
  const auto [ci, ii] = step_at(t);
  DS_ASSERT_MSG(ii != kNone, "storage holds never begin before time zero");
  Chunk& chunk = chunks_[ci];
  if (chunk.items[ii].time == t) return;
  // The new breakpoint continues the level of the step it splits.
  chunk.items.insert(chunk.items.begin() + static_cast<std::ptrdiff_t>(ii) + 1,
                     Breakpoint{t, chunk.items[ii].usage});
  maybe_split(ci);
}

void StorageTimeline::maybe_split(std::size_t chunk) {
  Chunk& full = chunks_[chunk];
  if (full.items.size() < 2 * kChunk) return;
  const auto summarize = [](Chunk& c) {
    c.first = c.items.front().time;
    c.max = c.items.front().usage;
    for (const Breakpoint& bp : c.items) c.max = std::max(c.max, bp.usage);
  };
  Chunk right;
  right.items.assign(full.items.begin() + static_cast<std::ptrdiff_t>(kChunk),
                     full.items.end());
  right.add = full.add;
  summarize(right);
  full.items.resize(kChunk);
  summarize(full);
  chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(chunk) + 1,
                 std::move(right));
}

}  // namespace datastage
