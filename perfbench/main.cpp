// The benchmark program. Usage (only the --name=value form is accepted):
//
//   perfbench --workload=paper-pairs|fattree-plan|serve-stream --seed=N
//             --seconds=S --trace=0|1 [--spans-out=PATH]
//             [--git-rev=REV] [--git-dirty=0|1]
//
// Prints an environment line, one line per operation kind, and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace=0 the metrics are the end-to-end ones (untraced); with --trace=1
// the per-layer ones. Exits 1 when an output check fails, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=paper-pairs|fattree-plan|"
               "serve-stream --seed=N --seconds=S --trace=0|1 [--spans-out=PATH] "
               "[--git-rev=REV] [--git-dirty=0|1]\n",
               message);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return usage(("expected --name=value, got '" + arg + "'").c_str());
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  for (const auto& [name, value] : flags) {
    if (name != "workload" && name != "seed" && name != "seconds" && name != "trace" &&
        name != "spans-out" && name != "git-rev" && name != "git-dirty") {
      return usage(("unknown flag --" + name).c_str());
    }
  }

  perfbench::RunConfig config;
  const std::optional<perfbench::Workload> workload = perfbench::parse_workload(flags["workload"]);
  if (!workload) return usage("unknown or missing --workload");
  config.workload = *workload;
  if (!parse_u64(flags["seed"], config.seed)) return usage("--seed must be a whole number");
  std::uint64_t seconds = 0;
  if (!parse_u64(flags["seconds"], seconds) || seconds == 0 || seconds > 3600) {
    return usage("--seconds must be a whole number from 1 to 3600");
  }
  config.seconds = static_cast<double>(seconds);
  if (flags["trace"] != "0" && flags["trace"] != "1") return usage("--trace must be 0 or 1");
  config.trace = flags["trace"] == "1";
  config.spans_out = flags["spans-out"];

  const std::string git_rev = flags.count("git-rev") ? flags["git-rev"] : "unknown";
  const std::string git_dirty = flags.count("git-dirty") ? flags["git-dirty"] : "unknown";
  std::printf(
      "{\"environment\": {\"hardware_threads\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"git_revision\": %s, \"git_dirty\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %llu, \"trace\": %s}}\n",
      std::thread::hardware_concurrency(), json_string(compiler()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(git_rev).c_str(),
      git_dirty == "1" ? "true" : git_dirty == "0" ? "false" : "\"unknown\"",
      json_string(perfbench::workload_name(config.workload)).c_str(),
      static_cast<unsigned long long>(config.seed), static_cast<unsigned long long>(seconds),
      config.trace ? "true" : "false");
  std::fflush(stdout);

  const perfbench::RunReport report = perfbench::run_workload(config);

  std::string ops = "{\"operations\": {";
  for (std::size_t i = 0; i < report.ops.size(); ++i) {
    const perfbench::OpCount& op = report.ops[i];
    ops += (i > 0 ? ", " : "") + json_string(op.kind) +
           ": {\"attempted\": " + std::to_string(op.attempted) +
           ", \"failed\": " + std::to_string(op.failed) + "}";
  }
  std::printf("%s}}\n", ops.c_str());
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }

  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
               json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  return report.correct ? 0 : 1;
}
