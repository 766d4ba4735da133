// The correctness gate: every check the benchmark makes on what the
// service returned. A run with any failure exits non-zero.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "fleet/fleet.h"
#include "workloads.h"

namespace perfbench {

/// Checks one streamed run verdict against the request that produced it:
/// intact requests must come back intact; a theft verdict may flag one
/// zone only and may name only tags the request stole from the zone it hit.
/// Returns the violation, or nothing when the verdict is acceptable.
[[nodiscard]] std::optional<std::string> check_run_verdict(
    const Inventory& inv, const Request& req,
    const rfid::service::RunVerdictMsg& verdict);

/// A watch must complete every epoch without giving up; an intact watch
/// raises no alert.
[[nodiscard]] std::optional<std::string> check_watch_done(
    const Workload& w, const Request& req, const rfid::service::WatchDone& done);

/// The replayed FleetOrchestrator result must equal what the service
/// streamed, and may flag only the zone the theft hit. Where the drill-down
/// left nothing unresolved, the named tags of a zone must be exactly that
/// zone's stolen tags.
[[nodiscard]] std::optional<std::string> check_run_replay(
    const Inventory& inv, const Request& req,
    const rfid::service::RunVerdictMsg& streamed,
    const rfid::fleet::FleetResult& replayed);

/// The replayed daemon must agree with the service's WatchDone; a
/// violation must flag the zone the script stole from, and every named tag
/// must be one the script stole (`stolen_ids`).
[[nodiscard]] std::optional<std::string> check_watch_replay(
    const Request& req, const rfid::service::WatchDone& streamed,
    const rfid::daemon::DaemonResult& replayed,
    const std::vector<rfid::tag::TagId>& stolen_ids);

/// Whether a completed theft request was caught: a violated run verdict,
/// or a watch that raised an alert.
[[nodiscard]] bool theft_detected(const Request& req,
                                  const rfid::service::RunVerdictMsg& verdict,
                                  const rfid::service::WatchDone& done);

/// Lowest acceptable detected share over `thefts` theft requests: alpha
/// minus four binomial standard deviations.
[[nodiscard]] double detection_floor(double alpha, std::uint64_t thefts);

}  // namespace perfbench
