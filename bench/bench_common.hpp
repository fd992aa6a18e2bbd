// Shared plumbing for the figure/table bench binaries.
//
// Every binary regenerating a paper artifact accepts the same flags:
//   --cases=N      test cases to average (paper: 40; default lighter)
//   --seed=S       base RNG seed for case generation
//   --weighting=A  "1,10,100" (default) or "1,5,10"
//   --csv=PATH     also write the data series as CSV
//   --jobs=N       worker threads for the experiment grid (default: hardware
//                  concurrency; output is byte-identical for any value)
//   --verbose      progress logging while sweeping
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common_flags.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "obs/observer.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

// Build identity for the BENCH_*.json "env" block, stamped by
// bench/CMakeLists.txt at configure time.
#ifndef DATASTAGE_GIT_REV
#define DATASTAGE_GIT_REV "unknown"
#endif
#ifndef DATASTAGE_COMPILER
#define DATASTAGE_COMPILER "unknown"
#endif
#ifndef DATASTAGE_BUILD_TYPE
#define DATASTAGE_BUILD_TYPE "unknown"
#endif

namespace datastage::benchtool {

/// Engine cost counters of one scheduler run (observability snapshot); lets
/// the result tables explain *why* heuristics differ in cost, not just by
/// how much. Doubles because google-benchmark counters are doubles.
struct EngineCostSnapshot {
  double iterations = 0.0;
  double recomputes = 0.0;   ///< Dijkstra tree recomputes (cache misses)
  double cache_hits = 0.0;   ///< cached route trees reused
  double candidates = 0.0;   ///< candidates generated and scored
  double steps = 0.0;        ///< communication steps committed
};

/// Runs `spec` once on `scenario` with a metrics observer attached and
/// returns the engine's cost counters. Observation does not change the
/// schedule, so the snapshot describes the same run the timings measure.
inline EngineCostSnapshot snapshot_engine_cost(const SchedulerSpec& spec,
                                               const Scenario& scenario,
                                               EngineOptions options) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  options.observer = &observer;
  run_case(spec, scenario, options);
  const auto value = [&registry](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  EngineCostSnapshot snapshot;
  snapshot.iterations = value("engine.iterations");
  snapshot.recomputes = value("engine.tree_recomputes");
  snapshot.cache_hits = value("engine.cache_hits");
  snapshot.candidates = value("engine.candidates_scored");
  snapshot.steps = value("engine.steps_committed");
  return snapshot;
}

struct BenchSetup {
  ExperimentConfig config;
  PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  std::string csv_path;
  std::size_t jobs = 0;  ///< resolved worker count (after parse)
  bool verbose = false;
};

inline bool parse_bench_flags(int argc, const char* const* argv, BenchSetup& setup,
                              std::vector<std::string> extra_flags = {}) {
  std::vector<std::string> known{"cases", "seed", "weighting", "csv", "jobs",
                                 "verbose"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  CliFlags flags;
  if (!flags.parse(argc, argv, known)) return false;

  setup.config.cases = static_cast<std::size_t>(flags.get_int("cases", 40));
  setup.config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2000));
  setup.csv_path = flags.get_string("csv", "");
  setup.verbose = flags.get_bool("verbose", false);
  if (setup.verbose) set_log_level(LogLevel::kInfo);

  // 0 = hardware concurrency; the harness entry points all fan out through
  // the process-wide executor configured here.
  setup.jobs = toolflags::apply_jobs_flag(flags);

  const std::optional<PriorityWeighting> weighting = toolflags::parse_weighting(flags);
  if (!weighting.has_value()) return false;
  setup.weighting = *weighting;
  return true;
}

/// Writes the `"env"` member every BENCH_*.json record carries right after
/// its `"bench"` key (two-space indent, trailing comma), so trajectories can
/// be compared across machines and builds. Every value is a string:
/// datastage_benchdiff compares numbers only, so a different host or
/// compiler never reads as a regression.
inline void write_env_json(std::FILE* f) {
  std::fprintf(f,
               "  \"env\": {\n    \"hardware_threads\": \"%zu\",\n"
               "    \"compiler\": \"%s\",\n    \"build_type\": \"%s\",\n"
               "    \"git_rev\": \"%s\"\n  },\n",
               ThreadPool::hardware_jobs(), DATASTAGE_COMPILER,
               DATASTAGE_BUILD_TYPE, DATASTAGE_GIT_REV);
}

inline void print_header(const std::string& title, const BenchSetup& setup) {
  std::printf("%s\n", title.c_str());
  // --jobs intentionally absent: headers must be byte-identical across jobs
  // values (the determinism suite diffs whole stdout captures).
  std::printf("cases=%zu seed=%llu weighting=%s\n\n", setup.config.cases,
              static_cast<unsigned long long>(setup.config.seed),
              setup.weighting.to_string().c_str());
}

}  // namespace datastage::benchtool
