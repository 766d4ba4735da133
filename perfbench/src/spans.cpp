#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::add(std::string name, std::uint64_t trace_id,
                          std::int64_t parent, double start_us,
                          double end_us) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(
      Span{std::move(name), trace_id, id, parent, start_us, end_us});
  return id;
}

void SpanLog::merge(SpanLog&& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span& span : other.spans_) {
    span.id += offset;
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
  other.spans_.clear();
}

std::int64_t SpanLog::root_of(std::uint64_t trace_id) const {
  for (const Span& span : spans_) {
    if (span.trace_id == trace_id && span.parent < 0) return span.id;
  }
  return -1;
}

std::vector<double> SpanLog::self_times_us() const {
  std::vector<std::vector<std::pair<double, double>>> covered(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    const double lo = std::max(span.start_us, parent.start_us);
    const double hi = std::min(span.end_us, parent.end_us);
    if (hi > lo) covered[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    double union_us = 0.0;
    double end = -1e300;
    for (const auto& [lo, hi] : parts) {
      const double from = std::max(lo, end);
      if (hi > from) union_us += hi - from;
      end = std::max(end, hi);
    }
    self[i] = spans_[i].duration_us() - union_us;
  }
  return self;
}

void SpanLog::write_jsonl(const std::string& path,
                          const std::set<std::uint64_t>& traces) const {
  std::ofstream out(path);
  const std::vector<double> self = self_times_us();
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.trace_id != 0 && traces.count(s.trace_id) == 0) continue;
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"trace_id\":%llu,\"id\":%lld,"
                  "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"self_us\":%.3f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.trace_id),
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.start_us, s.end_us,
                  self[i]);
    out << line;
  }
}

void SpanLog::print_summary() const {
  struct Row {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = self_times_us();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_us += spans_[i].duration_us();
    row.self_us += self[i];
  }
  std::printf("  %-26s %8s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("  %-26s %8llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(row.count),
                row.total_us / 1000.0, row.self_us / 1000.0);
  }
}

}  // namespace perfbench
