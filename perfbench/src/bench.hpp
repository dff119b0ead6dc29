// The DeepCAM benchmark: workloads, phases, metrics and output checks.
//
// One run executes one workload from a seed. An untraced run (trace =
// false) measures the end-to-end metrics: set-up time, host throughput and
// latency on the wall clock, peak memory, the simulated 300 MHz DeepCAM's
// cycles and energy per sample, and fidelity against FP32. A traced run
// measures the per-layer metrics from outside the library, by timing calls
// into each layer's public functions (see replay.hpp and load.hpp).
// Every run also evaluates the output checks; a failed check makes the run
// incorrect and the command exit nonzero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One reported value. `repeats` is how many measurements the value
/// summarizes (its median, for host timings); `spread` is their
/// interquartile range divided by the median (0 for exact values).
struct Metric {
  std::string name;
  std::string layer;  // "end_to_end" or the layer the metric belongs to
  double value = 0.0;
  std::string unit;
  std::size_t repeats = 1;
  double spread = 0.0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Name and unit of every metric the benchmark prints, per mode.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> workload_names();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run record and trace artifacts; empty = none.
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  /// Engine threads per engine; 0 = the workload's own setting. Results
  /// other than host timings must not depend on it.
  std::size_t engine_threads = 0;
};

struct RunResult {
  std::vector<Metric> metrics;        // the mode's metrics, in def order
  std::vector<Metric> extra;          // recorded, not in BENCHMARK.json
  std::vector<Check> checks;
  std::uint64_t attempted = 0;        // samples or requests attempted
  std::uint64_t failed = 0;

  bool correct() const;
  const Metric* find(const std::string& name) const;
};

/// Runs one workload. Throws deepcam::Error on unknown workload names.
RunResult run_workload(const RunConfig& cfg);

/// Path prefix of the run's artifacts in cfg.out_dir (empty when unset):
/// <out_dir>/<workload>-seed<n>-trace<0|1>, plus .json / .spans.csv /
/// .layers.csv.
std::string artifact_base(const RunConfig& cfg);

/// The self-describing record of one run: host, nproc, build type, codelet
/// ISA, commit, and every metric with its layer, unit, repeats and spread.
std::string record_json(const RunConfig& cfg, const RunResult& res);

/// The single-line result object: correct, attempted, failed, metrics.
std::string result_line(const RunResult& res);

}  // namespace perfbench
