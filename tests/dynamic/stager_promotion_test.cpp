// A request that resolves at a staged intermediate copy: the copy becomes a
// destination copy (an infinite hold) only when that hold fits the machine's
// storage; otherwise the request closes unsatisfied and the copy stays
// intermediate until gc. The residual rebuild must never find permanent
// copies that do not fit together, and the merged schedule must replay clean
// against effective_scenario().
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/satisfaction.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "obs/observer.hpp"
#include "serve/scheduler_service.hpp"
#include "sim/simulator.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::ScenarioBuilder;

constexpr std::int64_t kMB = 1'000'000;
const Interval kAlways{SimTime::zero(), at_min(600)};

SchedulerSpec spec() { return {HeuristicKind::kFullOne, CostCriterion::kC4}; }

// The merged schedule replays clean on the world that existed, and the
// replay's satisfied count matches the stager's records.
void expect_replays_clean(const Scenario& effective, const DynamicResult& result) {
  const SimReport replay = simulate(effective, result.schedule);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues.front());
  EXPECT_EQ(satisfied_count(replay.outcomes), result.satisfied_count());
}

// Machine 1 sits on the only path 0 -> 1 -> 2. Item "big" (2 MB) appears at
// 1 as an original source at 60 min and stays there forever. "relay" (2 MB,
// announced at 1 min, due at 2 by 10 min) is staged through 1 and held there
// until gc (10 min deadline + 5 min gamma), long before big appears. A
// request for "relay" at 1 then finds the staged copy; holding it forever
// next to big needs 4 MB at 1 from 60 min on.
Scenario relay_scenario(std::int64_t relay_capacity) {
  return ScenarioBuilder()
      .machine(100 * kMB)
      .machine(relay_capacity)
      .machine(100 * kMB)
      .machine(100 * kMB)
      .link(0, 1, 8 * kMB, kAlways)
      .link(1, 2, 8 * kMB, kAlways)
      .link(1, 3, 8 * kMB, kAlways)
      .horizon(at_min(600))
      .gamma(SimDuration::minutes(5))
      .item(2 * kMB).source(1, at_min(60)).request(3, at_min(120))
      .build();
}

StagingEvent relay_item_at(SimTime at) {
  DataItem relay;
  relay.name = "relay";
  relay.size_bytes = 2 * kMB;
  relay.sources = {SourceLocation{MachineId(0), SimTime::zero()}};
  relay.requests = {Request{MachineId(2), at_min(10), kPriorityHigh}};
  return StagingEvent{at, NewItemEvent{std::move(relay)}};
}

StagingEvent request_at(SimTime at, std::int32_t dest, SimTime deadline) {
  return StagingEvent{at, NewRequestEvent{"relay", Request{MachineId(dest), deadline,
                                                           kPriorityHigh}}};
}

EngineOptions observed(obs::RunObserver* observer) {
  EngineOptions options;
  options.observer = observer;
  return options;
}

TEST(StagerPromotionTest, UnfittingPromotionClosesUnsatisfiedAndStaysIntermediate) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(relay_scenario(3 * kMB), spec(), observed(&observer));
  stager.on_event(relay_item_at(at_min(1)));
  stager.on_event(request_at(at_min(5), 1, at_min(20)));
  EXPECT_EQ(stager.request_status("relay", MachineId(1)),
            DynamicRequestStatus::kUnsatisfied)
      << "machine 1 has no room to keep relay next to big";
  EXPECT_EQ(registry.counter_value("dynamic.promotions_refused"), 1u);

  // The copy at 1 stayed intermediate: gc reclaims it before big appears,
  // and both real destinations are served.
  const DynamicResult result = stager.finish();
  const Scenario effective = stager.effective_scenario();
  EXPECT_EQ(result.satisfied_count(), 2u);
  EXPECT_EQ(stager.request_status("relay", MachineId(2)),
            DynamicRequestStatus::kSatisfied);
  expect_replays_clean(effective, result);
}

TEST(StagerPromotionTest, FittingPromotionBecomesPermanent) {
  // Same events with room to spare: the staged copy turns into a destination
  // copy, survives gc, and serves a much later request at once.
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(relay_scenario(100 * kMB), spec(), observed(&observer));
  stager.on_event(relay_item_at(at_min(1)));
  stager.on_event(request_at(at_min(5), 1, at_min(20)));
  EXPECT_EQ(stager.request_status("relay", MachineId(1)),
            DynamicRequestStatus::kSatisfied)
      << "the staged copy serves the request on the spot";
  stager.on_event(request_at(at_min(30), 1, at_min(300)));
  EXPECT_EQ(stager.request_status("relay", MachineId(1)),
            DynamicRequestStatus::kSatisfied);
  EXPECT_EQ(registry.counter_value("dynamic.promotions_refused"), 0u);

  const DynamicResult result = stager.finish();
  const Scenario effective = stager.effective_scenario();
  EXPECT_EQ(result.satisfied_count(), 4u);
  expect_replays_clean(effective, result);
}

TEST(StagerPromotionTest, ServiceRejectsRequestItCannotKeep) {
  // The same refusal through the admission service: the submit is rejected,
  // not reported as served, and the merged schedule replays clean.
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  ServiceOptions options;
  options.engine.observer = &observer;
  SchedulerService service(relay_scenario(3 * kMB), options);
  const StagingEvent relay = relay_item_at(at_min(1));
  SubmitRequest introduce;
  introduce.at = relay.at;
  introduce.item_name = "relay";
  introduce.new_item = std::get<NewItemEvent>(relay.body).item;
  introduce.request = introduce.new_item->requests.front();
  EXPECT_EQ(service.submit(introduce).outcome, AdmissionOutcome::kAdmitted);

  SubmitRequest at_relay;
  at_relay.at = at_min(5);
  at_relay.item_name = "relay";
  at_relay.request = Request{MachineId(1), at_min(20), kPriorityHigh};
  EXPECT_EQ(service.submit(at_relay).outcome, AdmissionOutcome::kFullReject);
  EXPECT_EQ(registry.counter_value("dynamic.promotions_refused"), 1u);

  const DynamicResult result = service.finish();
  EXPECT_EQ(result.satisfied_count(), 2u);
  expect_replays_clean(service.effective_scenario(), result);
}

// Congested cases served online with the clock advancing: half of every
// item's requests are held back and submitted at seeded times before their
// deadlines, so transfers commit between decisions and later requests land
// on machines that already hold staged copies. The merged schedule is not
// replayed here: with online submits, cancelled requests and gc windows
// that grow after a copy was staged make effective_scenario() charge some
// staged copies longer than the stager did, independent of promotions.
TEST(StagerPromotionTest, CongestedOnlineSubmitsWithAdvancingClockNeverAbort) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 10;
  config.min_requests_per_machine = config.max_requests_per_machine = 10;
  for (const std::uint64_t seed : {1u, 3u}) {
    const std::vector<Scenario> cases = generate_cases(config, seed, 4);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      Scenario batch = cases[c];
      Rng rng(seed * 1000003ULL + c);
      std::vector<SubmitRequest> online;
      for (DataItem& item : batch.items) {
        const std::size_t keep =
            item.requests.size() <= 1 ? item.requests.size() : item.requests.size() / 2;
        for (std::size_t r = keep; r < item.requests.size(); ++r) {
          SubmitRequest submit;
          submit.item_name = item.name;
          submit.request = item.requests[r];
          submit.at = SimTime::from_usec(
              rng.uniform_i64(0, std::max<std::int64_t>(0, submit.request.deadline.usec() - 1)));
          online.push_back(submit);
        }
        item.requests.resize(keep);
      }
      std::stable_sort(online.begin(), online.end(),
                       [](const SubmitRequest& a, const SubmitRequest& b) {
                         return a.at < b.at;
                       });
      SchedulerService service(batch, ServiceOptions{});
      for (const SubmitRequest& submit : online) service.submit(submit);
      EXPECT_EQ(service.snapshot().submits, online.size()) << "seed " << seed << " case " << c;
      service.finish();
    }
  }
}

}  // namespace
}  // namespace datastage
