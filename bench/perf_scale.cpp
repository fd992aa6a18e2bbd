// Scale-tier benchmark: wall time and peak memory of generation + scheduling
// as scenario size grows from the paper's grids to the `huge` preset
// (5000 machines, 500k requests). Produces BENCH_scale.json — the committed
// curve CI's perf-smoke job benchdiffs against (warn-only) — and a human
// table on stdout.
//
// Tiers run in ascending size order, each on one generated case with the
// serial engine (engine_jobs=1) so wall times are comparable run to run.
// Peak RSS is read from /proc/self/status VmHWM, which is monotone over the
// process lifetime; with ascending tiers the recorded value is the running
// peak, dominated by the tier itself once sizes grow past the predecessors
// (the huge tier's number is the real footprint).
//
// By default it runs the tiers that finish: small, medium and large. xlarge
// (1000 machines) and huge (5000 machines) run only when named; xlarge does
// not finish within 400 s (EXPERIMENTS.md E18).
//
// Extra flags on top of the shared bench set:
//   --out=PATH   JSON output path (default BENCH_scale.json)
//   --tier=T     run one tier: "small", "medium", "large", "xlarge" or "huge"
//                (CI's perf-smoke runs --tier=small)
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "common_flags.hpp"
#include "core/registry.hpp"
#include "core/satisfaction.hpp"
#include "gen/generator.hpp"
#include "util/time.hpp"

namespace {

using namespace datastage;

/// Reads a kB-valued field (VmHWM, VmRSS) from /proc/self/status; 0 when the
/// field or the file is unavailable (non-Linux builds still run the bench,
/// they just report no memory numbers).
std::int64_t read_status_kb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen(  // ds-lint: allow(DS013 reads /proc, no output)
      "/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::int64_t value = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      std::sscanf(line + field_len + 1, "%" SCNd64, &value);
      break;
    }
  }
  std::fclose(f);
  return value;
#else
  (void)field;
  return 0;
#endif
}

struct Tier {
  const char* name;
  GeneratorConfig config;
};

std::vector<Tier> build_tiers(const std::string& which) {
  // large: the paper's topology shape pushed to 64 machines (legacy sampling,
  // like every pre-scale grid). xlarge: first scalable-sampling tier — the
  // huge preset's shape at 1/5 the machine count.
  GeneratorConfig large = GeneratorConfig::paper();
  large.min_machines = 64;
  large.max_machines = 64;
  large.min_requests_per_machine = 40;
  large.max_requests_per_machine = 40;

  GeneratorConfig xlarge = GeneratorConfig::huge();
  xlarge.min_machines = 1000;
  xlarge.max_machines = 1000;
  xlarge.min_requests_per_machine = 50;
  xlarge.max_requests_per_machine = 50;

  std::vector<Tier> tiers;
  // No name: the finishing tiers. A name: that tier alone.
  const auto want = [&which](const char* name, bool finishes) {
    return which == name || (which.empty() && finishes);
  };
  if (want("small", true)) tiers.push_back({"small", GeneratorConfig::light()});
  if (want("medium", true)) tiers.push_back({"medium", GeneratorConfig::paper()});
  if (want("large", true)) tiers.push_back({"large", large});
  if (want("xlarge", false)) tiers.push_back({"xlarge", xlarge});
  if (want("huge", false)) tiers.push_back({"huge", GeneratorConfig::huge()});
  return tiers;
}

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchSetup setup;
  if (!benchtool::parse_bench_flags(argc, argv, setup, {"out", "tier"})) return 1;
  CliFlags flags;
  if (!flags.parse(argc, argv, {"cases", "seed", "weighting", "csv", "jobs",
                                "verbose", "out", "tier"})) {
    return 1;
  }
  const std::string out_path = flags.get_string("out", "BENCH_scale.json");
  const std::string tier_name = flags.get_string("tier", "");
  const std::vector<Tier> tiers = build_tiers(tier_name);
  if (tiers.empty()) {
    std::fprintf(stderr,
                 "unknown --tier '%s' (use small, medium, large, xlarge or huge; "
                 "without --tier the finishing tiers small, medium and large run)\n",
                 tier_name.c_str());
    return 1;
  }

  setup.config.cases = 1;  // one case per tier; size, not repetition, varies
  benchtool::print_header("Scale curve: generation + scheduling (full_one/C4)",
                          setup);
  const SchedulerSpec spec{HeuristicKind::kFullOne, CostCriterion::kC4};

  EngineOptions options;
  options.weighting = setup.weighting;
  options.criterion = spec.criterion;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.engine_jobs = 1;

  Table table({"tier", "machines", "requests", "gen ms", "sched ms", "steps",
               "satisfied", "peak rss MB"});

  std::FILE* f = toolflags::open_output_cfile(out_path, "bench output");
  if (f == nullptr) return 2;
  std::fprintf(f, "{\n  \"bench\": \"perf_scale\",\n");
  benchtool::write_env_json(f);
  std::fprintf(f,
               "  \"scheduler\": \"%s\",\n"
               "  \"seed\": %llu,\n  \"tiers\": [\n",
               spec.name().c_str(),
               static_cast<unsigned long long>(setup.config.seed));

  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const Tier& tier = tiers[t];

    const std::int64_t gen_t0 = steady_clock_nanos();
    std::vector<Scenario> cases = generate_cases(tier.config, setup.config.seed, 1);
    const std::int64_t gen_ns = steady_clock_nanos() - gen_t0;
    const Scenario& scenario = cases.front();

    const std::int64_t run_t0 = steady_clock_nanos();
    const StagingResult staged = run_spec(spec, scenario, options);
    const std::int64_t run_ns = steady_clock_nanos() - run_t0;

    const std::size_t satisfied = satisfied_count(staged.outcomes);
    const std::int64_t vm_hwm_kb = read_status_kb("VmHWM");
    const std::int64_t vm_rss_kb = read_status_kb("VmRSS");

    table.add_row({tier.name, std::to_string(scenario.machine_count()),
                   std::to_string(scenario.request_count()),
                   format_double(static_cast<double>(gen_ns) / 1e6, 1),
                   format_double(static_cast<double>(run_ns) / 1e6, 1),
                   std::to_string(staged.schedule.size()),
                   std::to_string(satisfied),
                   format_double(static_cast<double>(vm_hwm_kb) / 1024.0, 0)});

    std::fprintf(
        f,
        "    {\n"
        "      \"tier\": \"%s\",\n"
        "      \"machines\": %zu,\n"
        "      \"phys_links\": %zu,\n"
        "      \"virt_links\": %zu,\n"
        "      \"items\": %zu,\n"
        "      \"requests\": %zu,\n"
        "      \"gen_wall_ns\": %" PRId64 ",\n"
        "      \"schedule_wall_ns\": %" PRId64 ",\n"
        "      \"steps\": %zu,\n"
        "      \"iterations\": %zu,\n"
        "      \"dijkstra_runs\": %zu,\n"
        "      \"satisfied\": %zu,\n"
        "      \"peak_rss_kb\": %" PRId64 ",\n"
        "      \"rss_kb\": %" PRId64 "\n"
        "    }%s\n",
        tier.name, scenario.machine_count(), scenario.phys_links.size(),
        scenario.virt_links.size(), scenario.item_count(),
        scenario.request_count(), gen_ns, run_ns, staged.schedule.size(),
        staged.iterations, staged.dijkstra_runs, satisfied, vm_hwm_kb, vm_rss_kb,
        t + 1 < tiers.size() ? "," : "");
  }

  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("%s\nwrote %s\n", table.to_text().c_str(), out_path.c_str());
  return 0;
}
