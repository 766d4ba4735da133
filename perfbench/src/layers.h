// Per-layer measurement: after the timed phase, a fixed sample of the same
// requests is replayed directly through each layer's public functions —
// fleet, wire, tag, protocol, math, server, daemon, storage — with the same
// seeds, so the fleet determinism contract makes the replay reproduce what
// the service computed. The replay feeds the correctness gate (it must
// equal what the service streamed), the exact-count rows, and, in the
// traced run, spans that are children of each request's service span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load.h"
#include "spans.h"
#include "storage/backend.h"
#include "workloads.h"

namespace perfbench {

/// Samples per per-layer metric name.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& name, double v) { values[name].push_back(v); }
  [[nodiscard]] double median_of(const std::string& name) const;
};

/// Totals that repeat exactly for a fixed seed and request list.
struct ExactCounts {
  std::uint64_t fleet_runs = 0;
  std::uint64_t zones = 0;
  std::uint64_t zone_attempts = 0;
  std::uint64_t zone_frames = 0;
  double air_us = 0.0;               // Σ ZoneReport.duration_us
  std::uint64_t campaigns = 0;
  std::uint64_t identify_slots = 0;
  std::uint64_t journal_epochs = 0;
  std::uint64_t journal_bytes = 0;
};

class Replayer {
 public:
  /// `scratch_dir` receives the replayed watch journals; `spans` is null in
  /// the untraced run.
  Replayer(const Workload& w, const std::vector<Tenant>& tenants,
           std::uint64_t seed, std::string scratch_dir, SpanLog* spans);

  /// Replays one completed request and checks it against what the
  /// service returned; mismatches land in failures().
  void replay(const Completed& c);
  /// Layers no single request isolates: Eq. 2 and Eq. 3 sizing, group
  /// planning, a daemon watch (run workloads), intact fleet runs (watch
  /// workload) and journal appends.
  void probe_shared_layers();

  [[nodiscard]] const LayerSamples& samples() const noexcept { return samples_; }
  [[nodiscard]] const ExactCounts& exact() const noexcept { return exact_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  struct FleetTiming;
  FleetTiming run_fleet(const Inventory& inv,
                        const std::vector<std::uint64_t>& stolen, bool identify,
                        std::uint64_t seed, const std::string& fleet_name,
                        std::uint64_t trace_id, std::int64_t parent);
  void probe_zone(const Completed& c, const Inventory& inv,
                  std::int64_t parent);
  struct WatchTiming {
    double us = 0.0;  // daemon construction + run()
    std::uint64_t epochs = 0;
  };
  /// Replays a watch on `backend` and checks it against the service's
  /// WatchDone.
  WatchTiming run_watch(const Completed& c, const Inventory& inv,
                   std::int64_t parent, rfid::storage::StorageBackend& backend,
                   const char* span_name);
  std::int64_t span(const std::string& name, std::uint64_t trace_id,
                    std::int64_t parent, double start, double end);

  const Workload& w_;
  const std::vector<Tenant>& tenants_;
  std::uint64_t seed_;
  std::string scratch_;
  SpanLog* spans_;
  LayerSamples samples_;
  ExactCounts exact_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
