// datastage_serve — online admission daemon over a scenario.
//
// Reads newline-delimited JSON commands (see src/serve/serve_protocol.hpp and
// docs/SERVING.md) from stdin or a script file and answers each with exactly
// one JSON response line on stdout, flushed per line so a driving process can
// speak the protocol interactively:
//
//   $ datastage_gen --seed=7 --out=case.ds
//   $ datastage_serve --scenario=case.ds <<'EOF'
//   {"v":1,"cmd":"submit","id":"r1","t_usec":0,"item":"item0","dest":"M1",
//    "deadline_usec":30000000,"priority":2}
//   {"v":1,"cmd":"shutdown"}
//   EOF
//
// Flags:
//   --scenario=F           the world the session starts from (required)
//   --faults=F             FaultSpec applied on the session timeline; at
//                          equal timestamps faults order before submits
//   --scheduler=S          heuristic spec (default full_one/C4), see
//                          datastage_run --list
//   --script=F             read commands from F instead of stdin (blank
//                          lines and '#' comments are skipped)
//   --decision-log=F       also append every response line to F (eager-open,
//                          exit 2 on a bad path). Replaying the same script
//                          yields a byte-identical log for any --jobs.
//   --latency-budget-usec=N  soft per-decision SLO; overruns are counted in
//                          admission.budget_overruns (metrics only)
//   --no-quick             disable the two-stage quick admission path
//   --engine-jobs=N        worker threads inside each replanning engine
//                          (default 1; 0 = hardware concurrency); the stager
//                          keeps one pool for the whole session. Decision
//                          logs are byte-identical for any value
// plus the common flags (--weighting, --ratio, --paranoid, --jobs,
// --metrics-out, --metrics-format, --trace-out).
//
// Exit status: 0 after shutdown (or end of input), 1 on a setup error,
// 2 on an unopenable output path. Protocol errors never exit — they are
// responses.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common_flags.hpp"
#include "dynamic/fault_events.hpp"
#include "model/fault_io.hpp"
#include "model/scenario_io.hpp"
#include "serve/serve_session.hpp"
#include "util/cli.hpp"

using namespace datastage;

int main(int argc, char** argv) {
  CliFlags flags;
  const std::vector<std::string> known = toolflags::with_common_flags(
      {"scenario", "faults", "scheduler", "script", "decision-log",
       "latency-budget-usec", "no-quick", "engine-jobs", "ratio"});
  if (!flags.parse(argc, argv, known)) return 1;

  const std::string scenario_path = flags.get_string("scenario", "");
  if (scenario_path.empty()) {
    std::fprintf(stderr, "--scenario is required\n");
    return 1;
  }
  std::string error;
  const std::optional<Scenario> scenario = load_scenario(scenario_path, &error);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "cannot load scenario: %s\n", error.c_str());
    return 1;
  }

  const std::string spec_name = flags.get_string("scheduler", "full_one/C4");
  const std::optional<SchedulerSpec> spec = parse_spec(spec_name);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown --scheduler '%s'\n", spec_name.c_str());
    return 1;
  }

  const std::optional<PriorityWeighting> weighting =
      toolflags::parse_weighting(flags);
  if (!weighting.has_value()) return 1;
  toolflags::apply_jobs_flag(flags);

  toolflags::Observability observability;
  if (!observability.open(flags)) return 2;

  std::ofstream decision_log;
  const std::string decision_log_path = flags.get_string("decision-log", "");
  if (!decision_log_path.empty() &&
      !toolflags::open_output_file(decision_log, decision_log_path,
                                   "decision log")) {
    return 2;
  }

  ServiceOptions options;
  options.spec = *spec;
  options.engine = toolflags::make_engine_options(flags, *weighting,
                                                  observability);
  options.latency_budget_usec = flags.get_int("latency-budget-usec", 0);
  options.quick_admission = !flags.get_bool("no-quick", false);

  const std::string faults_path = flags.get_string("faults", "");
  if (!faults_path.empty()) {
    const std::optional<FaultSpec> faults = load_faults(faults_path, &error);
    if (!faults.has_value()) {
      std::fprintf(stderr, "cannot load faults: %s\n", error.c_str());
      return 1;
    }
    options.fault_events = fault_events(*faults);
  }

  std::ifstream script;
  const std::string script_path = flags.get_string("script", "");
  if (!script_path.empty()) {
    script.open(script_path);
    if (!script.is_open()) {
      std::fprintf(stderr, "cannot open script %s\n", script_path.c_str());
      return 1;
    }
  }
  std::istream& in = script_path.empty() ? std::cin : script;

  ServeSession session(*scenario, options);
  std::string line;
  while (!session.shut_down() && std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string response = session.handle_line(line);
    std::fputs(response.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    if (decision_log.is_open()) decision_log << response << '\n';
  }
  if (decision_log.is_open()) decision_log.flush();
  if (!observability.write_metrics()) return 1;
  return 0;
}
