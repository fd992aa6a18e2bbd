// Output checks of the benchmark. Every check is a computation made apart
// from the scheduler that produced the output: the independent replay
// simulator, the §5.2 upper bound, and (for the serving path) a scenario the
// benchmark assembles itself from what it submitted. Each returns the list
// of problems it found; an empty list means the output passed.
#pragma once

#include <string>
#include <vector>

#include "core/satisfaction.hpp"
#include "core/schedule.hpp"
#include "dynamic/stager.hpp"
#include "model/priority.hpp"
#include "model/scenario.hpp"

namespace perfbench {

/// Σ W[priority] over the requests `outcomes` marks satisfied, summed here
/// rather than through the library so the value check is independent.
double replay_value(const datastage::Scenario& scenario,
                    const datastage::PriorityWeighting& weighting,
                    const datastage::OutcomeMatrix& outcomes);

/// A batch plan as the scheduler reported it.
struct ClaimedPlan {
  const datastage::Schedule* schedule = nullptr;
  const datastage::OutcomeMatrix* outcomes = nullptr;
  double value = 0.0;  ///< Σ W over the requests the scheduler claims
};

/// Checks a batch plan: the simulator replays the schedule cleanly, its
/// outcomes equal the claimed ones, the claimed value equals the value
/// recomputed from the replay, and that value does not exceed `upper_bound`.
/// On success `replayed_value` (if given) receives the replay's value.
std::vector<std::string> check_batch_plan(const datastage::Scenario& scenario,
                                          const datastage::PriorityWeighting& weighting,
                                          const ClaimedPlan& plan, double upper_bound,
                                          double* replayed_value = nullptr);

/// One online submission and what the service answered.
struct SubmissionRecord {
  std::string item_name;
  datastage::Request request;
  bool admitted = false;
  /// Arrival the admitted decision promised (infinity on rejects).
  datastage::SimTime promised_arrival = datastage::SimTime::infinity();
  /// Withdrawn by the client after admission.
  bool cancelled = false;
};

/// The scenario the served requests define: `batch` plus every submission
/// that was admitted and not cancelled, appended to its item's requests in
/// submission order.
datastage::Scenario assemble_served_scenario(
    const datastage::Scenario& batch, const std::vector<SubmissionRecord>& submissions);

/// Checks one serving session: every admitted decision promised an arrival
/// by its deadline; the merged schedule replays cleanly against the
/// assembled scenario; every request the service reports satisfied is
/// satisfied in that replay. On success `replayed_value` (if given)
/// receives the replay's value.
std::vector<std::string> check_serve_session(
    const datastage::Scenario& batch, const std::vector<SubmissionRecord>& submissions,
    const datastage::DynamicResult& result, const datastage::PriorityWeighting& weighting,
    double* replayed_value = nullptr);

}  // namespace perfbench
