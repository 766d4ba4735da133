// In-memory span log of the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer; nothing inside the
// library is instrumented. The log is written out when the benchmark ends.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t trace_id = 0;  // the request's run_id
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: root
  double start_us = 0.0;
  double end_us = 0.0;
  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Not thread-safe: each client thread keeps its own log and the logs are
/// merged after the threads join.
class SpanLog {
 public:
  std::int64_t add(std::string name, std::uint64_t trace_id,
                   std::int64_t parent, double start_us, double end_us);
  void set_end(std::int64_t id, double end_us) {
    spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }
  /// Moves `other`'s spans in, renumbering their ids and parents.
  void merge(SpanLog&& other);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Root span of the request with this trace id, or -1.
  [[nodiscard]] std::int64_t root_of(std::uint64_t trace_id) const;

  /// Duration minus the part of its interval that child spans cover.
  [[nodiscard]] std::vector<double> self_times_us() const;

  /// One JSON object per line: name, trace_id, id, parent, start_us,
  /// end_us, self_us. Writes the spans of the requests in `traces` and the
  /// probes (trace id 0); the rest only enter print_summary().
  void write_jsonl(const std::string& path,
                   const std::set<std::uint64_t>& traces) const;
  /// Per span name: count, total and self time.
  void print_summary() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
