#include "checks.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/simulator.hpp"

namespace perfbench {

using namespace datastage;

namespace {

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void add_replay_issues(const SimReport& report, std::vector<std::string>& problems) {
  // The first few issues are enough to locate a fault; a broken schedule can
  // produce thousands.
  const std::size_t shown = std::min<std::size_t>(report.issues.size(), 3);
  for (std::size_t i = 0; i < shown; ++i) problems.push_back("replay: " + report.issues[i]);
  if (report.issues.size() > shown) {
    problems.push_back("replay: " + std::to_string(report.issues.size() - shown) +
                       " more issue(s)");
  }
}

}  // namespace

double replay_value(const Scenario& scenario, const PriorityWeighting& weighting,
                    const OutcomeMatrix& outcomes) {
  double value = 0.0;
  for (std::size_t i = 0; i < scenario.items.size() && i < outcomes.size(); ++i) {
    const std::vector<Request>& requests = scenario.items[i].requests;
    for (std::size_t k = 0; k < requests.size() && k < outcomes[i].size(); ++k) {
      if (outcomes[i][k].satisfied) value += weighting.weight(requests[k].priority);
    }
  }
  return value;
}

std::vector<std::string> check_batch_plan(const Scenario& scenario,
                                          const PriorityWeighting& weighting,
                                          const ClaimedPlan& plan, double upper_bound,
                                          double* replayed_value) {
  std::vector<std::string> problems;
  const SimReport report = simulate(scenario, *plan.schedule);
  if (!report.ok) add_replay_issues(report, problems);

  const OutcomeMatrix& claimed = *plan.outcomes;
  bool shapes_match = claimed.size() == report.outcomes.size();
  for (std::size_t i = 0; shapes_match && i < claimed.size(); ++i) {
    shapes_match = claimed[i].size() == report.outcomes[i].size();
  }
  if (!shapes_match) {
    problems.push_back("claimed outcomes do not have the scenario's shape");
  } else {
    for (std::size_t i = 0; i < claimed.size(); ++i) {
      for (std::size_t k = 0; k < claimed[i].size(); ++k) {
        if (claimed[i][k].satisfied != report.outcomes[i][k].satisfied) {
          problems.push_back("request " + std::to_string(i) + ":" + std::to_string(k) +
                             (claimed[i][k].satisfied ? " claimed satisfied, replay says not"
                                                      : " replay satisfies it, scheduler says not"));
          break;
        }
      }
    }
  }

  const double value = replay_value(scenario, weighting, report.outcomes);
  if (plan.value != value) {
    problems.push_back("claimed value " + format_value(plan.value) +
                       " differs from replayed value " + format_value(value));
  }
  if (value > upper_bound) {
    problems.push_back("replayed value " + format_value(value) + " exceeds upper bound " +
                       format_value(upper_bound));
  }
  if (replayed_value != nullptr) *replayed_value = value;
  return problems;
}

Scenario assemble_served_scenario(const Scenario& batch,
                                  const std::vector<SubmissionRecord>& submissions) {
  Scenario assembled = batch;
  for (const SubmissionRecord& s : submissions) {
    if (!s.admitted || s.cancelled) continue;
    for (DataItem& item : assembled.items) {
      if (item.name == s.item_name) {
        item.requests.push_back(s.request);
        break;
      }
    }
  }
  return assembled;
}

std::vector<std::string> check_serve_session(const Scenario& batch,
                                             const std::vector<SubmissionRecord>& submissions,
                                             const DynamicResult& result,
                                             const PriorityWeighting& weighting,
                                             double* replayed_value) {
  std::vector<std::string> problems;
  for (const SubmissionRecord& s : submissions) {
    if (s.admitted && s.promised_arrival > s.request.deadline) {
      problems.push_back("admitted " + s.item_name + " -> M" +
                         std::to_string(s.request.destination.value()) +
                         " with a promised arrival after its deadline");
    }
  }

  const Scenario assembled = assemble_served_scenario(batch, submissions);
  const SimReport report = simulate(assembled, result.schedule);
  if (!report.ok) add_replay_issues(report, problems);

  for (const DynamicRequestRecord& record : result.requests) {
    if (!record.satisfied) continue;
    bool found = false;
    for (std::size_t i = 0; i < assembled.items.size() && !found; ++i) {
      if (assembled.items[i].name != record.item_name) continue;
      const std::vector<Request>& requests = assembled.items[i].requests;
      for (std::size_t k = 0; k < requests.size(); ++k) {
        if (requests[k].destination != record.destination) continue;
        found = true;
        if (!report.outcomes[i][k].satisfied) {
          problems.push_back("service reports " + record.item_name + " -> M" +
                             std::to_string(record.destination.value()) +
                             " satisfied, replay says not");
        }
        break;
      }
    }
    if (!found) {
      problems.push_back("service reports " + record.item_name + " -> M" +
                         std::to_string(record.destination.value()) +
                         " satisfied, but it was never served");
    }
  }
  if (replayed_value != nullptr) {
    *replayed_value = replay_value(assembled, weighting, report.outcomes);
  }
  return problems;
}

}  // namespace perfbench
