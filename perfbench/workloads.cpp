#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "checks.hpp"
#include "core/bounds.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "obs/observer.hpp"
#include "routing/dijkstra.hpp"
#include "serve/scheduler_service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace perfbench {

using namespace datastage;

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kPaperPairs, Workload::kFattreePlan, Workload::kServeStream}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperPairs: return "paper-pairs";
    case Workload::kFattreePlan: return "fattree-plan";
    case Workload::kServeStream: return "serve-stream";
  }
  return "?";
}

std::uint64_t RunReport::attempted() const {
  std::uint64_t n = 0;
  for (const OpCount& op : ops) n += op.attempted;
  return n;
}

std::uint64_t RunReport::failed() const {
  std::uint64_t n = 0;
  for (const OpCount& op : ops) n += op.failed;
  return n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_quantile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n < 40) return median(std::move(values));
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks; at most rank n-11 (0-based)
  // so that ten samples lie beyond the reported value.
  const double rank = std::min(q * static_cast<double>(n - 1), static_cast<double>(n - 11));
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[std::min(lo + 1, n - 1)] - values[lo]);
}

namespace {

/// Set-up repeats until it has run this long in total, and at least
/// kMinSetups times; setup_s is the median of the repeats.
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinSetups = 5;
/// The batch workloads probe the net and routing layers on the schedules of
/// their first cases only; a probe is a per-call sample, not a timed phase.
constexpr std::size_t kProbedCases = 8;
/// Share of online submissions the client later withdraws, if still pending.
constexpr double kCancelShare = 0.08;

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(steady_clock_nanos() - start_ns) / 1e6;
}

// --- spans -------------------------------------------------------------------

/// The benchmark's own spans around each call into a layer: name, start, end
/// and the enclosing span. Kept in memory; written out when the run ends.
class Spans {
 public:
  void enable(bool on) { enabled_ = on; }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, steady_clock_nanos(), 0, parent});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = steady_clock_nanos();
    stack_.pop_back();
  }

  std::vector<double> durations_ms(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"unit\": \"ns\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start\": " << s.start_ns - origin << ", \"end\": " << s.end_ns - origin
          << ", \"parent\": " << s.parent << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  std::int32_t id_;
};

/// Runs `call` inside a span named `name`; returns its wall time in ms.
template <typename Call>
double timed_ms(Spans& spans, const char* name, Call&& call) {
  SpanScope span(spans, name);
  const std::int64_t start = steady_clock_nanos();
  call();
  return ms_since(start);
}

// --- shared plumbing ---------------------------------------------------------

const PriorityWeighting& weighting() {
  static const PriorityWeighting w = PriorityWeighting::w_1_10_100();
  return w;
}

/// The paper's experiment settings: log10(E/U) = 1, weighting 1,10,100, and
/// one engine thread (the benchmark is single-threaded by design).
EngineOptions engine_options(obs::RunObserver* observer) {
  EngineOptions options;
  options.weighting = weighting();
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.engine_jobs = 1;
  options.observer = observer;
  return options;
}

const char* plan_span_name(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kPartial: return "core.plan.partial";
    case HeuristicKind::kFullOne: return "core.plan.full_one";
    case HeuristicKind::kFullAll: return "core.plan.full_all";
  }
  return "core.plan";
}

struct PlanSample {
  double ms = 0.0;
  std::size_t requests = 0;
};

struct DecisionSample {
  double ms = 0.0;
  AdmissionOutcome outcome = AdmissionOutcome::kFullReject;
  std::size_t replans = 0;
};

/// What one phase (a sequence of whole rounds) measured.
struct PassData {
  std::vector<PlanSample> plans;
  std::vector<DecisionSample> decisions;
  std::vector<double> cancel_ms;
  std::size_t rounds = 0;
  double wall_s = 0.0;
};

/// Per-call probe timings taken on final schedules (trace pass only).
struct ProbeData {
  std::vector<double> can_apply_ns;
  std::vector<double> apply_transfer_us;
  std::vector<double> tree_us;
  std::vector<double> can_hold_ns;
};

struct Ops {
  OpCount plans{"plans"};
  OpCount decisions{"decisions"};
  OpCount cancels{"cancels"};
  OpCount finishes{"finishes"};
};

/// Replays `schedule` step by step into a fresh NetworkState (timing
/// can_apply and apply_transfer per step), then times compute_route_tree for
/// every item and can_hold for every requested (item, destination) on the
/// loaded state.
void probe_schedule(const Scenario& scenario, const Schedule& schedule, Spans& spans,
                    ProbeData& probe, std::vector<std::string>& problems) {
  std::vector<CommStep> steps(schedule.steps().begin(), schedule.steps().end());
  std::stable_sort(steps.begin(), steps.end(), [](const CommStep& a, const CommStep& b) {
    return a.start < b.start;
  });
  NetworkState state(scenario);
  {
    SpanScope span(spans, "net.replay");
    for (const CommStep& step : steps) {
      std::int64_t t = steady_clock_nanos();
      const bool ok = state.can_apply(step.item, step.link, step.start);
      probe.can_apply_ns.push_back(static_cast<double>(steady_clock_nanos() - t));
      if (!ok) {
        problems.push_back("net replay: can_apply rejects a step of item " +
                           std::to_string(step.item.value()) + " that the simulator accepted");
        return;
      }
      t = steady_clock_nanos();
      state.apply_transfer(step.item, step.link, step.start);
      probe.apply_transfer_us.push_back(static_cast<double>(steady_clock_nanos() - t) / 1e3);
    }
  }
  const Topology topology(scenario);
  {
    SpanScope span(spans, "routing.trees");
    for (std::size_t i = 0; i < scenario.items.size(); ++i) {
      const std::int64_t t = steady_clock_nanos();
      compute_route_tree(state, topology, ItemId{static_cast<std::int32_t>(i)});
      probe.tree_us.push_back(static_cast<double>(steady_clock_nanos() - t) / 1e3);
    }
  }
  {
    SpanScope span(spans, "net.can_hold");
    for (std::size_t i = 0; i < scenario.items.size(); ++i) {
      const DataItem& item = scenario.items[i];
      SimTime earliest = SimTime::infinity();
      for (const SourceLocation& src : item.sources) earliest = min(earliest, src.available_at);
      for (const Request& request : item.requests) {
        const std::int64_t t = steady_clock_nanos();
        state.can_hold(ItemId{static_cast<std::int32_t>(i)}, request.destination, earliest);
        probe.can_hold_ns.push_back(static_cast<double>(steady_clock_nanos() - t));
      }
    }
  }
}

bool same_schedule(const Schedule& a, const Schedule& b) {
  return std::equal(a.steps().begin(), a.steps().end(), b.steps().begin(), b.steps().end());
}

/// FNV-1a over every step and outcome of a plan. The reference round keeps
/// only this, so that the process's peak memory is the scheduler's, not the
/// benchmark's store of plans.
std::uint64_t fingerprint(const StagingResult& result) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const CommStep& step : result.schedule.steps()) {
    mix(step.item.value());
    mix(step.from.value());
    mix(step.to.value());
    mix(step.link.value());
    mix(step.start.usec());
    mix(step.arrival.usec());
  }
  for (const std::vector<RequestOutcome>& item : result.outcomes) {
    mix(-1);
    for (const RequestOutcome& outcome : item) {
      mix(outcome.satisfied ? 1 : 0);
      mix(outcome.arrival.usec());
    }
  }
  return h;
}

// --- workloads ---------------------------------------------------------------

/// kWarmup runs the first case of every operation, unchecked. kReference
/// checks every output and keeps its fingerprint; kRepeat must reproduce
/// the reference round exactly.
enum class RoundKind { kWarmup, kReference, kRepeat };

class Bench {
 public:
  virtual ~Bench() = default;
  /// Builds the workload's inputs from the seed (the timed set-up).
  virtual void setup() = 0;
  /// Runs one round of the workload's operations.
  virtual void round(obs::RunObserver* observer, RoundKind kind, PassData& pass) = 0;
  /// Trace pass only: plans of the heuristics the rounds do not run, and
  /// per-call probes of the net and routing layers on final schedules.
  virtual void probe(ProbeData& probe) = 0;
  /// Σ W over the requests the replays of the reference round satisfy.
  double weighted_value() const { return weighted_value_; }

  std::vector<double> gen_ms_per_scenario;  ///< one entry per set-up
  Spans spans;
  Ops ops;
  std::vector<std::string> problems;

 protected:
  void add_problems(const std::string& where, const std::vector<std::string>& found) {
    for (const std::string& p : found) problems.push_back(where + ": " + p);
  }

  double weighted_value_ = 0.0;
};

/// paper-pairs and fattree-plan: batch plans of `specs` over `cases`.
class BatchBench : public Bench {
 public:
  BatchBench(GeneratorConfig config, std::size_t case_count, std::vector<SchedulerSpec> specs,
             std::uint64_t seed)
      : config_(std::move(config)), case_count_(case_count), specs_(std::move(specs)),
        seed_(seed) {}

  void setup() override {
    SpanScope span(spans, "gen.cases");
    cases_.clear();  // a repeated set-up does not hold two copies of the inputs
    const std::int64_t t = steady_clock_nanos();
    cases_ = generate_cases(config_, seed_, case_count_);
    gen_ms_per_scenario.push_back(ms_since(t) / static_cast<double>(case_count_));
  }

  void round(obs::RunObserver* observer, RoundKind kind, PassData& pass) override {
    const EngineOptions options = engine_options(observer);
    const std::size_t cases = kind == RoundKind::kWarmup ? 1 : cases_.size();
    for (std::size_t s = 0; s < specs_.size(); ++s) {
      for (std::size_t c = 0; c < cases; ++c) {
        const Scenario& scenario = cases_[c];
        ++ops.plans.attempted;
        StagingResult result;
        const double ms = timed_ms(spans, plan_span_name(specs_[s].heuristic),
                                   [&] { result = run_spec(specs_[s], scenario, options); });
        pass.plans.push_back({ms, scenario.request_count()});
        const std::string where = specs_[s].name() + " case " + std::to_string(c);
        if (kind == RoundKind::kReference) {
          check(c, result, where);
          reference_.push_back(fingerprint(result));
        } else if (kind == RoundKind::kRepeat &&
                   fingerprint(result) != reference_[s * cases_.size() + c]) {
          problems.push_back(where + ": plan differs from the reference round's plan");
        }
      }
    }
  }

  void probe(ProbeData& probe) override {
    const EngineOptions options = engine_options(nullptr);
    for (const HeuristicKind kind :
         {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
      const bool planned = std::any_of(specs_.begin(), specs_.end(), [&](const SchedulerSpec& s) {
        return s.heuristic == kind;
      });
      if (planned) continue;
      SpanScope span(spans, plan_span_name(kind));
      run_spec(SchedulerSpec{kind, CostCriterion::kC4}, cases_.front(), options);
    }
    // The reference round kept only fingerprints: plan the probed schedules
    // again, untimed, and check that they are the reference round's plans.
    const SchedulerSpec probed{HeuristicKind::kFullOne, CostCriterion::kC4};
    for (std::size_t s = 0; s < specs_.size(); ++s) {
      if (!(specs_[s] == probed)) continue;
      for (std::size_t c = 0; c < std::min(cases_.size(), kProbedCases); ++c) {
        const std::string where = probed.name() + " case " + std::to_string(c);
        const StagingResult result = run_spec(probed, cases_[c], options);
        if (fingerprint(result) != reference_[s * cases_.size() + c]) {
          problems.push_back(where + ": plan differs from the reference round's plan");
          continue;
        }
        std::vector<std::string> found;
        probe_schedule(cases_[c], result.schedule, spans, probe, found);
        add_problems(where, found);
      }
    }
  }

 private:
  void check(std::size_t c, const StagingResult& result, const std::string& where) {
    const Scenario& scenario = cases_[c];
    if (c >= upper_bounds_.size()) {
      SpanScope span(spans, "core.bounds");
      upper_bounds_.push_back(compute_bounds(scenario, weighting()).upper_bound);
    }
    ClaimedPlan claimed;
    claimed.schedule = &result.schedule;
    claimed.outcomes = &result.outcomes;
    claimed.value = datastage::weighted_value(scenario, weighting(), result.outcomes);
    double value = 0.0;
    std::vector<std::string> found;
    {
      SpanScope span(spans, "sim.replay");
      found = check_batch_plan(scenario, weighting(), claimed, upper_bounds_[c], &value);
    }
    add_problems(where, found);
    weighted_value_ += value;
  }

  GeneratorConfig config_;
  std::size_t case_count_;
  std::vector<SchedulerSpec> specs_;
  std::uint64_t seed_;
  std::vector<Scenario> cases_;
  std::vector<std::uint64_t> reference_;  ///< fingerprints, [spec][case]
  std::vector<double> upper_bounds_;      ///< [case]
};

/// serve-stream: half of every item's requests are held back from the batch
/// scenario and submitted online by one closed-loop client.
class ServeBench : public Bench {
 public:
  ServeBench(GeneratorConfig config, std::size_t case_count, std::uint64_t seed)
      : config_(std::move(config)), case_count_(case_count), seed_(seed) {}

  void setup() override {
    cases_.clear();  // a repeated set-up does not hold two copies of the inputs
    std::vector<Scenario> generated;
    {
      SpanScope span(spans, "gen.cases");
      const std::int64_t t = steady_clock_nanos();
      generated = generate_cases(config_, seed_, case_count_);
      gen_ms_per_scenario.push_back(ms_since(t) / static_cast<double>(case_count_));
    }
    for (std::size_t c = 0; c < generated.size(); ++c) {
      cases_.push_back(make_case(std::move(generated[c]), c));
    }
    // Constructing the service makes its initial batch plan; it is part of
    // what a serving deployment pays before the first decision.
    std::vector<std::unique_ptr<SchedulerService>> services;
    for (const ServeCase& c : cases_) {
      SpanScope span(spans, "serve.construct");
      services.push_back(std::make_unique<SchedulerService>(c.batch, service_options(nullptr)));
    }
  }

  void round(obs::RunObserver* observer, RoundKind kind, PassData& pass) override {
    const std::size_t cases = kind == RoundKind::kWarmup ? 1 : cases_.size();
    for (std::size_t c = 0; c < cases; ++c) {
      const ServeCase& sc = cases_[c];
      const std::string where = "serve case " + std::to_string(c);
      ++ops.plans.attempted;
      std::unique_ptr<SchedulerService> service;
      const double ms = timed_ms(spans, "serve.construct", [&] {
        service = std::make_unique<SchedulerService>(sc.batch, service_options(observer));
      });
      pass.plans.push_back({ms, sc.batch.request_count()});

      Session session;
      session.records.resize(sc.online.size());
      for (const StreamEvent& ev : sc.events) {
        const Online& online = sc.online[ev.index];
        SubmissionRecord& record = session.records[ev.index];
        if (!ev.cancel) {
          record.item_name = online.item;
          record.request = online.request;
          SubmitRequest submit;
          submit.item_name = online.item;
          submit.request = online.request;
          ++ops.decisions.attempted;
          AdmissionDecision decision;
          const double submit_ms = timed_ms(spans, "serve.submit",
                                            [&] { decision = service->submit(submit); });
          pass.decisions.push_back({submit_ms, decision.outcome, decision.replans});
          record.admitted = decision.admitted();
          record.promised_arrival = decision.planned_arrival;
          session.outcomes.push_back(static_cast<int>(decision.outcome));
        } else if (record.admitted &&
                   service->request_status(online.item, online.request.destination) ==
                       DynamicRequestStatus::kPending) {
          ++ops.cancels.attempted;
          bool ok = false;
          pass.cancel_ms.push_back(timed_ms(spans, "serve.cancel", [&] {
            ok = service->cancel(online.item, online.request.destination, SimTime::zero());
          }));
          if (!ok) ++ops.cancels.failed;
          record.cancelled = ok;
          session.outcomes.push_back(ok ? kCancelled : kCancelRefused);
        }
      }
      ++ops.finishes.attempted;
      {
        SpanScope span(spans, "dynamic.finish");
        session.result = service->finish();
      }
      if (kind == RoundKind::kReference) {
        double value = 0.0;
        std::vector<std::string> found;
        {
          SpanScope span(spans, "sim.replay");
          found = check_serve_session(sc.batch, session.records, session.result, weighting(),
                                      &value);
        }
        add_problems(where, found);
        weighted_value_ += value;
        reference_.push_back(std::move(session));
      } else if (kind == RoundKind::kRepeat) {
        const Session& ref = reference_[c];
        if (session.outcomes != ref.outcomes ||
            !same_schedule(session.result.schedule, ref.result.schedule)) {
          problems.push_back(where + ": session differs from the reference round's session");
        }
      }
    }
  }

  void probe(ProbeData& probe) override {
    const EngineOptions options = engine_options(nullptr);
    for (const ServeCase& sc : cases_) {
      for (const HeuristicKind kind :
           {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
        SpanScope span(spans, plan_span_name(kind));
        run_spec(SchedulerSpec{kind, CostCriterion::kC4}, sc.batch, options);
      }
    }
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      const Scenario assembled =
          assemble_served_scenario(cases_[c].batch, reference_[c].records);
      std::vector<std::string> found;
      probe_schedule(assembled, reference_[c].result.schedule, spans, probe, found);
      add_problems("serve case " + std::to_string(c), found);
    }
  }

 private:
  struct Online {
    std::string item;
    Request request;
  };
  struct StreamEvent {
    bool cancel = false;
    std::size_t index = 0;  ///< into ServeCase::online
  };
  struct ServeCase {
    Scenario batch;
    std::vector<Online> online;
    std::vector<StreamEvent> events;  ///< submits and cancels, in stream order
  };
  static constexpr int kCancelled = -1;
  static constexpr int kCancelRefused = -2;
  struct Session {
    std::vector<SubmissionRecord> records;
    /// Per event: the AdmissionOutcome of a submit, or kCancelled /
    /// kCancelRefused for a cancel.
    std::vector<int> outcomes;
    DynamicResult result;
  };

  static ServiceOptions service_options(obs::RunObserver* observer) {
    ServiceOptions options;
    options.spec = SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4};
    options.engine = engine_options(observer);
    options.quick_admission = true;
    return options;
  }

  /// Holds back the second half of every item's requests (each item keeps at
  /// least one batch request) for online submission at t=0, in item order.
  /// A seeded few are withdrawn again a seeded number of events later.
  ServeCase make_case(Scenario scenario, std::size_t index) const {
    Rng rng(seed_ * 1000003ULL + index);
    ServeCase sc;
    std::vector<std::pair<std::size_t, std::size_t>> cancels;  // (after event, online)
    for (DataItem& item : scenario.items) {
      const std::size_t keep =
          item.requests.size() <= 1 ? item.requests.size() : item.requests.size() / 2;
      for (std::size_t r = keep; r < item.requests.size(); ++r) {
        sc.online.push_back({item.name, item.requests[r]});
        if (rng.bernoulli(kCancelShare)) {
          cancels.emplace_back(sc.online.size() - 1 + static_cast<std::size_t>(rng.uniform_i64(1, 20)),
                               sc.online.size() - 1);
        }
      }
      item.requests.resize(keep);
    }
    std::stable_sort(cancels.begin(), cancels.end());
    std::size_t next_cancel = 0;
    for (std::size_t i = 0; i < sc.online.size(); ++i) {
      sc.events.push_back({false, i});
      for (; next_cancel < cancels.size() && cancels[next_cancel].first <= i; ++next_cancel) {
        sc.events.push_back({true, cancels[next_cancel].second});
      }
    }
    for (; next_cancel < cancels.size(); ++next_cancel) {
      sc.events.push_back({true, cancels[next_cancel].second});
    }
    sc.batch = std::move(scenario);
    return sc;
  }

  GeneratorConfig config_;
  std::size_t case_count_;
  std::uint64_t seed_;
  std::vector<ServeCase> cases_;
  std::vector<Session> reference_;
};

std::unique_ptr<Bench> make_bench(const RunConfig& config) {
  switch (config.workload) {
    case Workload::kPaperPairs:
      return std::make_unique<BatchBench>(GeneratorConfig::paper(), config.toy ? 2 : 160,
                                          paper_pairs(), config.seed);
    case Workload::kFattreePlan: {
      // The huge preset's fat-tree shape cut down to 100 machines with a
      // fixed request count, so every case has the same size; 40 cases, so
      // that a round has a tail beyond its median.
      GeneratorConfig g = GeneratorConfig::huge();
      g.min_machines = g.max_machines = config.toy ? 30 : 100;
      g.min_requests_per_machine = g.max_requests_per_machine = config.toy ? 4 : 13;
      return std::make_unique<BatchBench>(
          g, config.toy ? 1 : 40,
          std::vector<SchedulerSpec>{{HeuristicKind::kFullOne, CostCriterion::kC4}},
          config.seed);
    }
    case Workload::kServeStream: {
      // The congested preset (2x load, short deadlines) at a fixed size, so
      // that every case costs about the same to serve.
      GeneratorConfig g = config.toy ? GeneratorConfig::light() : GeneratorConfig::congested();
      if (!config.toy) {
        g.min_machines = g.max_machines = 10;
        g.min_requests_per_machine = g.max_requests_per_machine = 10;
      }
      return std::make_unique<ServeBench>(g, config.toy ? 1 : 40, config.seed);
    }
  }
  return nullptr;
}

/// Summed time of a phase's operations per round. The reference round's
/// checks run between operations, so they stay out of it.
double op_ms_per_round(const PassData& pass) {
  double ms = 0.0;
  for (const PlanSample& p : pass.plans) ms += p.ms;
  for (const DecisionSample& d : pass.decisions) ms += d.ms;
  for (const double c : pass.cancel_ms) ms += c;
  return ms / static_cast<double>(pass.rounds);
}

/// Runs whole rounds for about `seconds`: at least one, and another only
/// while a round's operations, at their average time per round, still end
/// within `seconds`. With `reference_first` the first round is the reference
/// round; its checks run between the timed operations.
PassData timed_phase(Bench& bench, obs::RunObserver* observer, double seconds,
                     bool reference_first) {
  PassData pass;
  const std::int64_t start = steady_clock_nanos();
  do {
    SpanScope span(bench.spans, "round");
    bench.round(observer,
                reference_first && pass.rounds == 0 ? RoundKind::kReference : RoundKind::kRepeat,
                pass);
    ++pass.rounds;
    pass.wall_s = ms_since(start) / 1e3;
  } while (pass.wall_s + op_ms_per_round(pass) / 1e3 <= seconds);
  return pass;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Every round repeats the same operations in the same order, so sample i of
/// a round is the same operation as sample i of every other round. Each
/// operation's time is its median over the rounds, which keeps a stray slow
/// execution out of the percentiles.
template <typename Sample>
std::vector<double> per_op_median_ms(const std::vector<Sample>& samples, std::size_t rounds) {
  const std::size_t per_round = samples.size() / rounds;
  std::vector<double> out;
  out.reserve(per_round);
  for (std::size_t op = 0; op < per_round; ++op) {
    std::vector<double> repeats;
    for (std::size_t r = 0; r < rounds; ++r) repeats.push_back(samples[r * per_round + op].ms);
    out.push_back(median(std::move(repeats)));
  }
  return out;
}

/// The workload's operation is a plan on the batch workloads and a submit
/// decision on serve-stream; each metric below is one measurement of it.
void end_to_end_metrics(const Bench& bench, const PassData& pass, bool serving,
                        double setup_s, std::vector<Metric>& out) {
  double op_s = 0.0;
  double requests = 0.0;
  std::vector<double> op_ms;
  if (serving) {
    // One submit decides one request.
    for (const DecisionSample& d : pass.decisions) op_s += d.ms / 1e3;
    requests = static_cast<double>(pass.decisions.size());
    op_ms = per_op_median_ms(pass.decisions, pass.rounds);
  } else {
    for (const PlanSample& p : pass.plans) {
      op_s += p.ms / 1e3;
      requests += static_cast<double>(p.requests);
    }
    op_ms = per_op_median_ms(pass.plans, pass.rounds);
  }
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"requests_per_s", requests / op_s, "req/s"});
  out.push_back({"op_ms_p50", median(op_ms), "ms"});
  out.push_back({"op_ms_tail", tail_quantile(op_ms, serving ? 0.99 : 0.95), "ms"});
  out.push_back({"weighted_value", bench.weighted_value(), "weight"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

void per_layer_metrics(const Bench& bench, bool serving, const PassData& untraced,
                       const PassData& traced,
                       const obs::MetricsRegistry& registry, const ProbeData& probe,
                       std::vector<Metric>& out) {
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double runs = counter("engine.runs");

  out.push_back({"gen.scenario_ms", median(bench.gen_ms_per_scenario), "ms"});
  out.push_back({"core.plan_ms_p50.partial", median(bench.spans.durations_ms("core.plan.partial")), "ms"});
  out.push_back({"core.plan_ms_p50.full_one", median(bench.spans.durations_ms("core.plan.full_one")), "ms"});
  out.push_back({"core.plan_ms_p50.full_all", median(bench.spans.durations_ms("core.plan.full_all")), "ms"});
  for (const char* name : {"iterations", "tree_recomputes", "candidates_scored",
                           "invalidations_checked", "best_rescans"}) {
    out.push_back({std::string("core.") + name,
                   ratio(counter((std::string("engine.") + name).c_str()), runs), "count"});
  }
  out.push_back({"core.cache_hit_ratio",
                 ratio(counter("engine.cache_hits"),
                       counter("engine.cache_hits") + counter("engine.tree_recomputes")),
                 "ratio"});
  out.push_back({"routing.relaxations_per_tree",
                 ratio(counter("dijkstra.relaxations"), counter("engine.tree_recomputes")), "count"});
  out.push_back({"routing.heap_pops", ratio(counter("dijkstra.heap_pops"), runs), "count"});
  out.push_back({"routing.capacity_rejections",
                 ratio(counter("dijkstra.capacity_rejections"), runs), "count"});
  out.push_back({"routing.tree_us_p50", median(probe.tree_us), "us"});
  out.push_back({"net.can_hold_ns_p50", median(probe.can_hold_ns), "ns"});
  out.push_back({"net.can_apply_ns_p50", median(probe.can_apply_ns), "ns"});
  out.push_back({"net.apply_transfer_us_p50", median(probe.apply_transfer_us), "us"});
  out.push_back({"net.link_reservations", ratio(counter("net.link_reservations"), runs), "count"});
  out.push_back({"net.storage_allocations", ratio(counter("net.storage_allocations"), runs), "count"});

  std::vector<double> by_outcome[4];
  double replans = 0.0;
  for (const DecisionSample& d : traced.decisions) {
    by_outcome[static_cast<int>(d.outcome)].push_back(d.ms);
    replans += static_cast<double>(d.replans);
  }
  const auto decisions = static_cast<double>(traced.decisions.size());
  const double admit_ms = median(by_outcome[static_cast<int>(AdmissionOutcome::kAdmitted)]);
  const double full_reject_ms = median(by_outcome[static_cast<int>(AdmissionOutcome::kFullReject)]);
  out.push_back({"serve.quick_reject_ms_p50",
                 median(by_outcome[static_cast<int>(AdmissionOutcome::kQuickReject)]), "ms"});
  out.push_back({"serve.admit_ms_p50", admit_ms, "ms"});
  out.push_back({"serve.full_reject_ms_p50", full_reject_ms, "ms"});
  out.push_back({"serve.cancel_ms_p50", median(traced.cancel_ms), "ms"});
  out.push_back({"serve.quick_decided_ratio",
                 ratio(static_cast<double>(by_outcome[static_cast<int>(AdmissionOutcome::kQuickReject)].size()),
                       decisions),
                 "ratio"});
  out.push_back({"dynamic.replans_per_decision", ratio(replans, decisions), "ratio"});
  out.push_back({"dynamic.replan_ms", full_reject_ms - admit_ms, "ms"});
  // Batch workloads make no serving decisions and construct no service; their
  // serve.* and dynamic.* metrics read 0.
  out.push_back({"serve.initial_plan_ms",
                 serving ? median(per_op_median_ms(traced.plans, traced.rounds)) : 0.0, "ms"});
  out.push_back({"sim.replay_ms", median(bench.spans.durations_ms("sim.replay")), "ms"});
  out.push_back({"obs.traced_over_untraced", ratio(op_ms_per_round(traced), op_ms_per_round(untraced)),
                 "ratio"});
}

}  // namespace

RunReport run_workload(const RunConfig& config) {
  RunReport report;
  std::unique_ptr<Bench> bench = make_bench(config);
  const bool serving = config.workload == Workload::kServeStream;
  bench->spans.enable(config.trace);

  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  do {
    SpanScope span(bench->spans, "setup");
    const std::int64_t t = steady_clock_nanos();
    bench->setup();
    setup_s.push_back(ms_since(t) / 1e3);
    setup_total_s += setup_s.back();
  } while (!config.toy && (setup_s.size() < kMinSetups || setup_total_s < kSetupSeconds));

  {
    SpanScope span(bench->spans, "round.warmup");
    PassData warmup;
    bench->round(nullptr, RoundKind::kWarmup, warmup);
  }

  if (!config.trace) {
    const PassData timed = timed_phase(*bench, nullptr, config.seconds, true);
    end_to_end_metrics(*bench, timed, serving, median(setup_s), report.metrics);
  } else {
    // The traced phase goes first, so that the reference round's checks
    // (sim.replay) are among its spans.
    obs::MetricsRegistry registry;
    obs::RunObserver observer{&registry, nullptr, nullptr};
    const PassData traced = timed_phase(*bench, &observer, config.seconds / 2, true);
    bench->spans.enable(false);
    const PassData untraced = timed_phase(*bench, nullptr, config.seconds / 2, false);
    bench->spans.enable(true);
    ProbeData probe;
    {
      SpanScope span(bench->spans, "probes");
      bench->probe(probe);
    }
    per_layer_metrics(*bench, serving, untraced, traced, registry, probe, report.metrics);
    if (!config.spans_out.empty() && !bench->spans.write(config.spans_out)) {
      bench->problems.push_back("cannot write spans to " + config.spans_out);
    }
  }

  report.ops = {bench->ops.plans, bench->ops.decisions, bench->ops.cancels,
                bench->ops.finishes};
  report.problems = bench->problems;
  report.correct = report.problems.empty();
  return report;
}

}  // namespace perfbench
