// The four named workloads of the service benchmark and the inputs they are
// generated from. Everything the service sees — tag IDs, theft indices,
// per-run seeds — is a pure function of (workload, seed, tenant, request
// index), so two processes with the same seed send the same request list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "server/group_planner.h"
#include "service/messages.h"
#include "tag/tag_id.h"
#include "tag/tag_set.h"

namespace perfbench {

/// Closed-loop load shape shared by every workload.
inline constexpr int kTenants = 4;          // one connection and thread each
inline constexpr int kOutstanding = 3;      // requests kept in flight
inline constexpr double kAlpha = 0.95;

struct Workload {
  std::string name;
  rfid::fleet::Protocol protocol = rfid::fleet::Protocol::kTrp;
  bool watch = false;  // StartWatch instead of StartRun
  std::uint64_t inventories = 1;  // per tenant
  std::uint64_t tags = 64;        // per inventory
  std::uint64_t tolerance = 2;    // M
  std::uint64_t zone_capacity = 0;
  /// Request k of connection c is a theft iff (k + c) % theft_period is
  /// theft_period - 1: a fixed share, and every connection's first theft
  /// falls inside its first theft_period requests.
  std::uint64_t theft_period = 8;
  std::uint64_t watch_epochs = 8;
  std::uint64_t steal_epoch = 4;
  std::uint32_t max_frame_bytes = 1u << 20;
  /// Requests per connection replayed through the layers after the timed
  /// phase (the gate's replay and the exact-count rows).
  std::uint64_t replay_per_conn = 8;
};

[[nodiscard]] std::vector<Workload> all_workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload find_workload(const std::string& name);
/// The same workload at a size the self-test runs in about a second.
[[nodiscard]] Workload reduced(Workload w);

/// One enrolled inventory, as the benchmark keeps it to check verdicts and
/// to replay runs: the enroll request plus the population and plan the
/// service derives from it.
struct Inventory {
  rfid::service::EnrollRequest enroll;
  rfid::tag::TagSet population;       // Tag(id) per enrolled id, as the service
  rfid::server::GroupPlan plan;       // plan_groups() on the enroll inputs
  std::vector<std::uint64_t> zone_first;  // first enrolled index of each zone
};

struct Tenant {
  std::string name;
  std::vector<Inventory> inventories;
};

[[nodiscard]] std::vector<Tenant> make_tenants(const Workload& w,
                                               std::uint64_t seed);

/// The planner input the service uses for an enroll request.
[[nodiscard]] rfid::server::PlannerInput planner_input(
    const rfid::service::EnrollRequest& enroll);

struct Request {
  int tenant = 0;
  std::uint64_t index = 0;  // position in the connection's request list
  std::size_t inventory = 0;
  bool theft = false;
  std::uint64_t zone = 0;  // the zone the theft hits
  rfid::service::StartRunRequest run;      // runs
  rfid::service::StartWatchRequest watch;  // watches
  /// Enrolled indices absent for this request (runs: sent to the service;
  /// watches: the scripted steal range, for checking named tags).
  std::vector<std::uint64_t> stolen;
};

[[nodiscard]] Request make_request(const Workload& w,
                                   const std::vector<Tenant>& tenants,
                                   std::uint64_t seed, int tenant,
                                   std::uint64_t index);

}  // namespace perfbench
