// The service under load: an in-process MonitorService with a metrics
// registry attached, four tenant connections, and the closed-loop client
// that keeps kOutstanding requests in flight on each connection.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/client.h"
#include "service/service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// The timed phase is measured in windows of this length; per-window
/// figures are reduced by their median, so a burst of interference from
/// outside the process moves a metric only if it covers half the phase.
inline constexpr double kWindowS = 1.0;

struct Deployment {
  rfid::obs::MetricsRegistry registry;
  std::unique_ptr<rfid::service::MonitorService> service;
  std::vector<std::unique_ptr<rfid::service::ServiceClient>> clients;
  std::vector<std::vector<rfid::service::EnrollOk>> enrolled;  // per tenant

  [[nodiscard]] std::uint64_t frames();
  /// Closes the connections and stops the service.
  rfid::service::ServiceStats stop();
};

/// Service start, connect, hello and every enroll (the setup_s interval).
/// Watches keep their journals in the service's in-memory backend: on a
/// virtual disk, file-system time swamps the program's own (see README).
[[nodiscard]] std::unique_ptr<Deployment> deploy(
    const Workload& w, const std::vector<Tenant>& tenants);

/// One request as the client saw it complete.
struct Completed {
  Request request;
  std::uint64_t run_id = 0;
  bool deferred = false;
  double sent_us = 0.0;  // on the now_us() clock
  double admitted_us = 0.0;
  double done_us = 0.0;
  rfid::service::RunVerdictMsg verdict;  // runs
  rfid::service::WatchDone watch;        // watches
  [[nodiscard]] double latency_ms() const {
    return (done_us - sent_us) / 1000.0;
  }
};

/// What one timed phase produced. Every verdict is checked as it arrives;
/// only the replay sample is kept whole, so the benchmark's own memory
/// does not grow with the number of requests.
struct Phase {
  std::vector<Completed> sample;  // requests with index < replay_per_conn
  /// Latencies (send -> verdict, ms) of the requests that completed in each
  /// full window of kWindowS seconds before the deadline.
  std::vector<std::vector<double>> window_ms;
  std::vector<double> window_cpu_s;  // process CPU in each full window
  std::vector<double> drain_ms;      // latencies completed after the deadline
  std::vector<double> admit_ms;      // send -> RunAdmitted
  std::uint64_t completed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t thefts = 0;
  std::uint64_t detected = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused, errored, aborted or timed out
  std::vector<std::string> errors;      // why requests failed (first few)
  std::vector<std::string> violations;  // gate violations (first few)
  std::uint64_t violation_count = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;        // process user + sys over the phase
  std::uint64_t frames = 0;  // service frames in + out over the phase

  [[nodiscard]] std::vector<double> all_latencies_ms() const;
  /// Adds a phase that ran after this one; its windows follow these.
  void append(Phase&& later);
  /// Adds everything but the windows.
  void add_counts(Phase&& other);
};

/// Drives every connection for `seconds`, then drains what is in flight.
/// Each connection sends at least `min_per_conn` requests. `next_index`
/// carries each connection's position in its request list across phases.
/// With `spans` set, each thread records request spans.
[[nodiscard]] Phase drive(Deployment& d, const Workload& w,
                          const std::vector<Tenant>& tenants,
                          std::uint64_t seed, double seconds,
                          std::uint64_t min_per_conn,
                          std::array<std::uint64_t, kTenants>& next_index,
                          SpanLog* spans);

/// Process user + sys CPU seconds so far.
[[nodiscard]] double process_cpu_s();
/// Process peak resident set size (ru_maxrss) in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
