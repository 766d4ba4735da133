#include "gate.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace rfid;

namespace {

constexpr auto kIntact = static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact);
constexpr auto kViolated =
    static_cast<std::uint8_t>(fleet::GlobalVerdict::kViolated);

std::string where(const Request& req) {
  return "tenant-" + std::to_string(req.tenant) + " request " +
         std::to_string(req.index);
}

std::vector<tag::TagId> stolen_ids(const Inventory& inv,
                                   const std::vector<std::uint64_t>& indices) {
  std::vector<tag::TagId> ids;
  for (const std::uint64_t idx : indices) ids.push_back(inv.enroll.tags[idx]);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The request's stolen indices that lie in `zone`.
std::vector<std::uint64_t> stolen_in_zone(const Inventory& inv,
                                          const Request& req,
                                          std::uint64_t zone) {
  std::vector<std::uint64_t> in_zone;
  const std::uint64_t first = inv.zone_first[zone];
  for (const std::uint64_t idx : req.stolen) {
    if (idx >= first && idx < first + inv.plan.zones[zone].tags) {
      in_zone.push_back(idx);
    }
  }
  return in_zone;
}

bool subset_of(std::vector<tag::TagId> named,
               const std::vector<tag::TagId>& sorted_stolen) {
  std::sort(named.begin(), named.end());
  if (std::adjacent_find(named.begin(), named.end()) != named.end()) {
    return false;  // a tag named twice
  }
  return std::includes(sorted_stolen.begin(), sorted_stolen.end(),
                       named.begin(), named.end());
}

}  // namespace

std::optional<std::string> check_run_verdict(
    const Inventory& inv, const Request& req,
    const service::RunVerdictMsg& verdict) {
  if (verdict.aborted) return where(req) + ": aborted";
  if (verdict.zones != inv.plan.zones.size()) {
    return where(req) + ": zone count " + std::to_string(verdict.zones);
  }
  if (verdict.tags_named != verdict.missing.size()) {
    return where(req) + ": tags_named disagrees with the named list";
  }
  if (!req.theft) {
    if (verdict.verdict != kIntact || verdict.zones_violated != 0 ||
        !verdict.missing.empty()) {
      return where(req) + ": intact request not reported intact";
    }
    return std::nullopt;
  }
  if (verdict.verdict == kIntact) {
    if (verdict.zones_violated != 0 || !verdict.missing.empty()) {
      return where(req) + ": intact verdict with violation evidence";
    }
    return std::nullopt;  // a miss, counted against the detection rate
  }
  if (verdict.verdict != kViolated) {
    return where(req) + ": inconclusive verdict on a lossless link";
  }
  if (verdict.zones_violated != 1) {
    return where(req) + ": " + std::to_string(verdict.zones_violated) +
           " zones flagged, theft hit one";
  }
  if (!subset_of(verdict.missing,
                 stolen_ids(inv, stolen_in_zone(inv, req, req.zone)))) {
    return where(req) + ": named a tag outside the stolen set of zone " +
           std::to_string(req.zone);
  }
  return std::nullopt;
}

std::optional<std::string> check_watch_done(const Workload& w,
                                            const Request& req,
                                            const service::WatchDone& done) {
  if (done.gave_up) return where(req) + ": watch gave up";
  if (done.epochs_completed != w.watch_epochs) {
    return where(req) + ": watch completed " +
           std::to_string(done.epochs_completed) + " epochs";
  }
  if (!req.theft && done.alerts != 0) {
    return where(req) + ": intact watch raised alerts";
  }
  return std::nullopt;
}

std::optional<std::string> check_run_replay(
    const Inventory& inv, const Request& req,
    const service::RunVerdictMsg& streamed,
    const fleet::FleetResult& replayed) {
  std::vector<std::uint64_t> violated;
  std::vector<tag::TagId> named;
  for (const fleet::InventoryReport& report : replayed.inventories) {
    for (const fleet::ZoneReport& zone : report.zones) {
      if (zone.status == fleet::ZoneStatus::kViolated) {
        violated.push_back(zone.zone);
      }
      if (!zone.identification.ran) continue;
      named.insert(named.end(), zone.identification.missing.begin(),
                   zone.identification.missing.end());
      if (zone.identification.unresolved != 0) continue;
      // Nothing unresolved: the named set is exactly the zone's stolen set.
      std::vector<tag::TagId> got = zone.identification.missing;
      std::sort(got.begin(), got.end());
      if (got != stolen_ids(inv, stolen_in_zone(inv, req, zone.zone))) {
        return where(req) + ": replayed drill-down named set is not the "
                            "zone's stolen set";
      }
    }
  }
  // A violation may flag only the zone the theft hit.
  const bool flagged = replayed.verdict == fleet::GlobalVerdict::kViolated;
  if (violated != (req.theft && flagged ? std::vector<std::uint64_t>{req.zone}
                                        : std::vector<std::uint64_t>{})) {
    return where(req) + ": replay flagged a zone the theft did not hit";
  }
  if (static_cast<std::uint8_t>(replayed.verdict) != streamed.verdict ||
      violated.size() != streamed.zones_violated ||
      replayed.zones != streamed.zones ||
      replayed.attempts != streamed.attempts || named != streamed.missing) {
    return where(req) + ": replayed fleet result differs from the service's";
  }
  return std::nullopt;
}

std::optional<std::string> check_watch_replay(
    const Request& req, const service::WatchDone& streamed,
    const daemon::DaemonResult& replayed,
    const std::vector<tag::TagId>& stolen_sorted) {
  if (replayed.epochs_completed != streamed.epochs_completed ||
      replayed.gave_up != streamed.gave_up ||
      replayed.alerts.size() != streamed.alerts) {
    return where(req) + ": replayed watch differs from the service's";
  }
  bool violated = false;
  for (const daemon::DaemonAlert& alert : replayed.alerts) {
    if (alert.kind == daemon::DaemonAlertKind::kZoneViolated) {
      if (alert.zone != req.zone) {
        return where(req) + ": watch flagged a zone the theft did not hit";
      }
      violated = true;
    }
    if (!subset_of(alert.missing_tags, stolen_sorted)) {
      return where(req) + ": watch named a tag outside the stolen set";
    }
  }
  if (violated && !req.theft) {
    return where(req) + ": intact watch raised a violation";
  }
  if (req.theft && violated != (streamed.alerts > 0)) {
    return where(req) + ": watch alerts are not the violation";
  }
  return std::nullopt;
}

bool theft_detected(const Request& req, const service::RunVerdictMsg& verdict,
                    const service::WatchDone& done) {
  if (req.watch.steal > 0) return done.alerts > 0;
  return verdict.verdict == kViolated;
}

double detection_floor(double alpha, std::uint64_t thefts) {
  if (thefts == 0) return 0.0;
  return alpha - 4.0 * std::sqrt(alpha * (1.0 - alpha) /
                                 static_cast<double>(thefts));
}

}  // namespace perfbench
