// One benchmark run: set-up, the timed closed-loop phase(s), the
// correctness gate, the replay and the metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run) and per-layer metrics (traced run),
/// in the order they are printed. BENCHMARK.json lists the same names.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string scratch_dir;  // journals, replay files and the trace output
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Metric> exact;    // exact-count rows (both modes)
  std::vector<std::string> failures;
};

/// Runs `w` once, printing a human-readable report to stdout as it goes.
[[nodiscard]] Result run_benchmark(const Workload& w, const Options& options);

/// The result as the one-line JSON object the benchmark prints last.
[[nodiscard]] std::string result_json(const Result& result);
/// The exact-count rows as one JSON object (name -> value).
[[nodiscard]] std::string exact_json(const Result& result);

}  // namespace perfbench
