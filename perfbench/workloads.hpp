// The benchmark's workloads, measured end to end (untraced) and per layer
// (traced). See README.md for what each workload exercises and why.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kPaperPairs, kFattreePlan, kServeStream };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

struct RunConfig {
  Workload workload = Workload::kPaperPairs;
  std::uint64_t seed = 1;
  /// Length of the timed phase. The trace pass splits it evenly between an
  /// untraced and a traced phase.
  double seconds = 10.0;
  bool trace = false;
  /// Toy-size inputs (the self-test): a couple of small cases per workload.
  bool toy = false;
  /// Where the trace pass writes its spans; empty writes none.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations of one kind: every attempt, and those that returned an error.
struct OpCount {
  std::string kind;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct RunReport {
  /// Every output of an operation that did not fail passed its checks.
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<OpCount> ops;  ///< plans, decisions, cancels, finishes
  /// End-to-end metrics (untraced run) or per-layer metrics (trace run).
  std::vector<Metric> metrics;

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
};

RunReport run_workload(const RunConfig& config);

/// The highest quantile up to `q` that keeps at least ten samples beyond it;
/// the median when there are fewer than forty samples (a tail of fewer
/// would be noise). `values` need not be sorted.
double tail_quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

}  // namespace perfbench
