// The benchmark's own test: each output check must reject a corrupted
// output, and every workload must run clean at toy size in both passes.
// Build and run with `python3 perfbench/run.py --self-test=1`; exits 0 when
// every expectation holds.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/bounds.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "serve/scheduler_service.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace {

using namespace datastage;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

EngineOptions options() {
  EngineOptions o;
  o.eu = EUWeights::from_log10_ratio(1.0);
  o.engine_jobs = 1;
  return o;
}

/// Index of a step that delivers a request the plan claims satisfied: the
/// step reaching that destination at the claimed arrival.
std::size_t satisfying_step(const Scenario& scenario, const Schedule& schedule,
                            const OutcomeMatrix& outcomes) {
  const auto steps = schedule.steps();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const std::size_t i = steps[s].item.index();
    const std::vector<Request>& requests = scenario.items[i].requests;
    for (std::size_t k = 0; k < requests.size(); ++k) {
      if (outcomes[i][k].satisfied && requests[k].destination == steps[s].to &&
          outcomes[i][k].arrival == steps[s].arrival) {
        return s;
      }
    }
  }
  return steps.size();
}

Schedule without_step(const Schedule& schedule, std::size_t drop) {
  Schedule out;
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    if (s != drop) out.add(schedule.steps()[s]);
  }
  return out;
}

void batch_checks() {
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  const Scenario scenario = generate_cases(GeneratorConfig::light(), 7, 1).front();
  const StagingResult result =
      run_spec(SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4}, scenario, options());
  const double upper = compute_bounds(scenario, weighting).upper_bound;
  const double value = weighted_value(scenario, weighting, result.outcomes);
  expect(!result.schedule.empty() && value > 0.0, "batch: the plan satisfies something");

  perfbench::ClaimedPlan plan{&result.schedule, &result.outcomes, value};
  double replayed = 0.0;
  expect(perfbench::check_batch_plan(scenario, weighting, plan, upper, &replayed).empty() &&
             replayed == value,
         "batch: the untouched plan passes and its replayed value is reported");

  // A transfer moved past the end of its link's availability window.
  Schedule moved;
  for (std::size_t s = 0; s < result.schedule.size(); ++s) {
    CommStep step = result.schedule.steps()[s];
    if (s == 0) {
      const SimDuration duration = step.arrival - step.start;
      step.start = scenario.vlink(step.link).window.end;
      step.arrival = step.start + duration;
    }
    moved.add(step);
  }
  perfbench::ClaimedPlan moved_plan{&moved, &result.outcomes, value};
  expect(!perfbench::check_batch_plan(scenario, weighting, moved_plan, upper).empty(),
         "batch: a transfer outside its link window is caught");

  // A step dropped under a request the plan still claims satisfied.
  const std::size_t drop = satisfying_step(scenario, result.schedule, result.outcomes);
  expect(drop < result.schedule.size(), "batch: found a step that satisfies a request");
  const Schedule dropped = without_step(result.schedule, drop);
  perfbench::ClaimedPlan dropped_plan{&dropped, &result.outcomes, value};
  expect(!perfbench::check_batch_plan(scenario, weighting, dropped_plan, upper).empty(),
         "batch: a dropped step under a claimed-satisfied request is caught");

  // An inflated value, and a value above the upper bound.
  perfbench::ClaimedPlan inflated{&result.schedule, &result.outcomes, value + 1.0};
  expect(!perfbench::check_batch_plan(scenario, weighting, inflated, upper).empty(),
         "batch: an inflated value is caught");
  expect(!perfbench::check_batch_plan(scenario, weighting, plan, value - 1.0).empty(),
         "batch: a value above the upper bound is caught");
}

void serve_checks() {
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  Scenario batch = generate_cases(GeneratorConfig::light(), 11, 1).front();
  std::vector<perfbench::SubmissionRecord> records;
  for (DataItem& item : batch.items) {
    const std::size_t keep = item.requests.size() <= 1 ? item.requests.size()
                                                       : item.requests.size() / 2;
    for (std::size_t r = keep; r < item.requests.size(); ++r) {
      records.push_back({item.name, item.requests[r]});
    }
    item.requests.resize(keep);
  }
  ServiceOptions service_options;
  service_options.engine = options();
  SchedulerService service(batch, service_options);
  for (perfbench::SubmissionRecord& record : records) {
    SubmitRequest submit;
    submit.item_name = record.item_name;
    submit.request = record.request;
    const AdmissionDecision decision = service.submit(submit);
    record.admitted = decision.admitted();
    record.promised_arrival = decision.planned_arrival;
  }
  const DynamicResult result = service.finish();
  expect(perfbench::check_serve_session(batch, records, result, weighting).empty(),
         "serve: the untouched session passes");

  std::size_t admitted = 0;
  for (const perfbench::SubmissionRecord& r : records) admitted += r.admitted ? 1 : 0;
  expect(admitted > 0, "serve: some submissions are admitted");

  std::vector<perfbench::SubmissionRecord> late = records;
  for (perfbench::SubmissionRecord& r : late) {
    if (r.admitted) {
      r.promised_arrival = r.request.deadline + SimDuration::seconds(1);
      break;
    }
  }
  expect(!perfbench::check_serve_session(batch, late, result, weighting).empty(),
         "serve: an admission promising a late arrival is caught");

  const Scenario assembled = perfbench::assemble_served_scenario(batch, records);
  const SimReport replay = simulate(assembled, result.schedule);
  DynamicResult dropped = result;
  dropped.schedule =
      without_step(result.schedule, satisfying_step(assembled, result.schedule, replay.outcomes));
  expect(!perfbench::check_serve_session(batch, records, dropped, weighting).empty(),
         "serve: a dropped step under a reported-satisfied request is caught");

  // A rejected submission reported satisfied: it is not in the assembled
  // scenario, so nothing the replay satisfies can back the claim.
  const perfbench::SubmissionRecord* rejected = nullptr;
  for (const perfbench::SubmissionRecord& r : records) {
    if (!r.admitted && rejected == nullptr) rejected = &r;
  }
  expect(rejected != nullptr, "serve: some submissions are rejected");
  DynamicResult phantom = result;
  if (rejected != nullptr) {
    phantom.requests.push_back({rejected->item_name, rejected->request.destination,
                                rejected->request.deadline, rejected->request.priority, true,
                                false, SimTime::zero()});
  }
  expect(!perfbench::check_serve_session(batch, records, phantom, weighting).empty(),
         "serve: a satisfied request that was never served is caught");
}

void tail_rule() {
  std::vector<double> few = {5, 1, 8, 3, 2, 7, 4, 6};
  expect(perfbench::tail_quantile(few, 0.95) == 4.5, "tail: the median below forty samples");
  std::vector<double> forty;
  for (int i = 40; i >= 1; --i) forty.push_back(static_cast<double>(i));
  expect(perfbench::tail_quantile(forty, 0.95) == 30.0,
         "tail: lowered until ten samples lie beyond it");
  std::vector<double> many;
  for (int i = 0; i < 1001; ++i) many.push_back(static_cast<double>(1000 - i));
  expect(perfbench::tail_quantile(many, 0.99) == 990.0 &&
             perfbench::tail_quantile(many, 0.95) == 950.0,
         "tail: the quantile itself when ten samples lie beyond it");
}

void toy_runs(const std::filesystem::path& dir) {
  for (const perfbench::Workload w : {perfbench::Workload::kPaperPairs,
                                      perfbench::Workload::kFattreePlan,
                                      perfbench::Workload::kServeStream}) {
    for (const bool trace : {false, true}) {
      perfbench::RunConfig config;
      config.workload = w;
      config.seed = 3;
      config.seconds = 1.0;
      config.trace = trace;
      config.toy = true;
      const std::filesystem::path spans = dir / "selftest-spans.json";
      if (trace) config.spans_out = spans.string();
      const perfbench::RunReport report = perfbench::run_workload(config);
      bool finite = true;
      for (const perfbench::Metric& m : report.metrics) finite = finite && std::isfinite(m.value);
      const std::string name = std::string(perfbench::workload_name(w)) +
                               (trace ? " (trace)" : "");
      expect(report.correct && report.failed() == 0 && report.attempted() > 0,
             name + ": runs clean at toy size");
      expect(report.metrics.size() == (trace ? 29u : 6u) && finite,
             name + ": prints every metric, all finite");
      if (trace) {
        expect(std::filesystem::file_size(spans) > 0, name + ": writes its spans");
        std::filesystem::remove(spans);
      }
    }
  }
}

}  // namespace

int main(int, char** argv) {
  batch_checks();
  serve_checks();
  tail_rule();
  toy_runs(std::filesystem::absolute(argv[0]).parent_path());
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
