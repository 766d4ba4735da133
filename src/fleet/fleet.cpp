#include "fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "fleet/scheduler.h"
#include "hash/fnv.h"
#include "hash/slot_hash.h"
#include "math/frame_optimizer.h"
#include "math/fused_detection.h"
#include "obs/catalog.h"
#include "obs/expose.h"
#include "protocol/identification.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "radio/timing.h"
#include "sim/event_queue.h"
#include "util/expect.h"
#include "util/random.h"

namespace rfid::fleet {

namespace {

[[nodiscard]] std::uint64_t name_hash_of(std::string_view name) noexcept {
  return hash::fnv1a64(std::as_bytes(std::span(name.data(), name.size())));
}

/// Salt for a fused zone's challenge stream: derived from (seed, inventory,
/// zone) but NOT the attempt, so a reader retrying answers the same
/// challenges its peers saw (a TRP re-scan of one (f, r) is idempotent).
inline constexpr std::uint64_t kChallengeSalt = 0x6368616cULL;  // "chal"
/// Salt separating a fused reader's RNG stream from the legacy zone stream
/// (reader 0 of a k = 1 zone keeps the legacy derivation bit for bit).
inline constexpr std::uint64_t kReaderSalt = 0x72647273ULL;  // "rdrs"
/// Salt for a violated zone's identification drill-down: derived from
/// (seed, inventory, zone) only, so the campaign replays identically on a
/// journal-recovered zone and regardless of worker-thread count.
inline constexpr std::uint64_t kIdentifySalt = 0x69646e74ULL;  // "idnt"

[[nodiscard]] bool is_retryable(wire::FailureReason reason) noexcept {
  // Deadline misses are a verification outcome (Alg. 5's timer), not an
  // infrastructure hiccup — retrying cannot un-fail the round.
  switch (reason) {
    case wire::FailureReason::kTimeoutExhausted:
    case wire::FailureReason::kCrashed:
    case wire::FailureReason::kCorruptGiveup:
      return true;
    case wire::FailureReason::kNone:
    case wire::FailureReason::kDeadlineMissed:
      return false;
  }
  return false;
}

[[nodiscard]] GlobalVerdict worse(GlobalVerdict a, GlobalVerdict b) noexcept {
  // Severity order: violated > inconclusive > intact.
  const auto rank = [](GlobalVerdict v) {
    switch (v) {
      case GlobalVerdict::kViolated: return 2;
      case GlobalVerdict::kInconclusive: return 1;
      case GlobalVerdict::kIntact: return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

}  // namespace

std::string_view to_string(Protocol protocol) noexcept {
  return protocol == Protocol::kTrp ? "trp" : "utrp";
}

std::string_view to_string(ZoneStatus status) noexcept {
  switch (status) {
    case ZoneStatus::kIntact: return "intact";
    case ZoneStatus::kViolated: return "violated";
    case ZoneStatus::kFailed: return "failed";
    case ZoneStatus::kDegraded: return "degraded";
  }
  return "unknown";
}

std::string_view to_string(GlobalVerdict verdict) noexcept {
  switch (verdict) {
    case GlobalVerdict::kIntact: return "intact";
    case GlobalVerdict::kViolated: return "violated";
    case GlobalVerdict::kInconclusive: return "inconclusive";
  }
  return "unknown";
}

std::string_view to_string(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kDeferred: return "deferred";
    case Admission::kRejected: return "rejected";
  }
  return "unknown";
}

std::string_view to_string(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::kZoneEscalated: return "zone_escalated";
    case AlertKind::kInventoryRejected: return "inventory_rejected";
    case AlertKind::kRecoveredRunQuarantined: return "recovered_run_quarantined";
    case AlertKind::kZoneDegraded: return "zone_degraded";
  }
  return "unknown";
}

struct FleetOrchestrator::ZoneState {
  tag::TagSet enrolled;            // zone slice, counters as enrolled
  tag::ColumnarTagSet columnar;    // same slice, slot words precomputed once
  std::vector<bool> absent;        // zone-local: true = stolen
  std::vector<tag::Tag> present;   // live tag state across attempts
  math::UtrpPlan utrp_plan;        // sized at submit (UTRP only)
  double deadline_us = std::numeric_limits<double>::infinity();
  std::vector<wire::SessionOutcome> attempts_log;
  ZoneReport report;
  bool finalized = false;  // report filled (terminal or abort-synthesized)

  // Per-reader fault plans, materialized from the zone's (possibly
  // multi-reader) script at submit; empty when the zone has no faults.
  std::vector<fault::FaultPlan> reader_fault_plans;
  // Per-reader behavior flags, always sized to the zone's k (k = 1 zones
  // consult reader 0 for the forge hook).
  std::vector<bool> reader_dishonest;
  std::vector<bool> reader_excluded;

  // Fusion (k > 1) only: the fixed challenge schedule every reader answers,
  // the generalized-Theorem-1 alarm threshold, per-reader attempt logs, and
  // the completion fan-in counter. The LAST reader task to reach a terminal
  // state runs the fused finalize — deterministic because the fused verdict
  // depends only on terminal per-reader state, never on finishing order.
  std::vector<protocol::TrpChallenge> challenges;
  std::uint64_t fused_threshold = 1;
  std::vector<std::vector<wire::SessionOutcome>> reader_attempts;
  std::unique_ptr<std::atomic<std::uint32_t>> readers_pending;
};

struct FleetOrchestrator::Inventory {
  InventorySpec spec;
  std::uint64_t wave = 0;
  std::uint64_t name_hash = 0;
  std::vector<ZoneState> zones;
};

FleetOrchestrator::FleetOrchestrator(FleetConfig config)
    : config_(std::move(config)) {
  RFID_EXPECT(config_.max_zone_attempts >= 1,
              "max_zone_attempts must be at least 1");
  RFID_EXPECT(!config_.fleet_name.empty(), "fleet needs a name");
}

FleetOrchestrator::~FleetOrchestrator() = default;

Admission FleetOrchestrator::submit(InventorySpec spec) {
  RFID_EXPECT(!ran_, "submit() after run()");
  RFID_EXPECT(!spec.name.empty(), "inventory needs a name");
  RFID_EXPECT(!spec.plan.zones.empty(), "inventory plan has no zones");
  RFID_EXPECT(spec.rounds >= 1, "inventory needs at least one round");
  for (const auto& existing : inventories_) {
    RFID_EXPECT(existing->spec.name != spec.name,
                "inventory names must be unique (they key the journal)");
  }
  for (const std::uint64_t idx : spec.stolen) {
    RFID_EXPECT(idx < spec.tags.size(), "stolen index out of range");
  }
  spec.fusion.validate();
  if (spec.fusion.readers > 1) {
    // A UTRP scan advances tag counters, so k simultaneous scans of one
    // zone are physically inconsistent: fusion is TRP-only.
    RFID_EXPECT(spec.protocol == Protocol::kTrp,
                "fused (k > 1) zones require the TRP protocol");
  }

  // Admission: bin zones into waves of at most admission_capacity each.
  // An inventory is never split — one too large for the capacity gets an
  // (oversized) wave of its own rather than being refused outright.
  const std::uint64_t zone_count = spec.plan.zones.size();
  Admission admission = Admission::kAccepted;
  std::uint64_t wave = 0;
  if (config_.admission_capacity == 0) {
    if (wave_zones_.empty()) wave_zones_.push_back(0);
    wave_zones_[0] += zone_count;
  } else {
    if (wave_zones_.empty()) wave_zones_.push_back(0);
    const std::size_t last = wave_zones_.size() - 1;
    if (wave_zones_[last] == 0 ||
        wave_zones_[last] + zone_count <= config_.admission_capacity) {
      wave = last;
    } else if (config_.defer_when_saturated) {
      wave_zones_.push_back(0);
      wave = last + 1;
      admission = Admission::kDeferred;
      ++deferred_count_;
    } else {
      rejected_.push_back(std::move(spec.name));
      return Admission::kRejected;
    }
    wave_zones_[wave] += zone_count;
  }

  auto inventory = std::make_unique<Inventory>();
  inventory->spec = std::move(spec);
  inventory->wave = wave;
  const InventorySpec& s = inventory->spec;
  inventory->name_hash = name_hash_of(s.name);

  // Zone slices (validates that the population matches the plan). The
  // columnar twin carries the slot words: every zone server (and every
  // retry) reuses them instead of re-hashing the population per attempt.
  std::vector<tag::TagSet> slices = server::split_by_plan(s.tags, s.plan);
  std::vector<tag::ColumnarTagSet> columnar_slices =
      server::split_columnar_by_plan(tag::ColumnarTagSet::from_tag_set(s.tags),
                                     s.plan);

  std::vector<bool> absent(s.tags.size(), false);
  for (const std::uint64_t idx : s.stolen) {
    absent[static_cast<std::size_t>(idx)] = true;
  }

  // Fused sizing (generalized Theorem 1) is solved once per distinct
  // (n, m) shape the near-equal split produces.
  std::map<std::pair<std::uint64_t, std::uint64_t>, math::TrpPlan>
      fused_solved;

  const std::uint32_t k = s.fusion.readers;
  inventory->zones.resize(slices.size());
  std::size_t offset = 0;
  for (std::size_t z = 0; z < slices.size(); ++z) {
    ZoneState& state = inventory->zones[z];
    state.enrolled = std::move(slices[z]);
    state.columnar = std::move(columnar_slices[z]);
    const std::size_t n = state.enrolled.size();
    state.absent.assign(n, false);
    state.present.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (absent[offset + j]) {
        state.absent[j] = true;
      } else {
        state.present.push_back(state.enrolled.at(j));
      }
    }
    offset += n;

    if (s.protocol == Protocol::kUtrp) {
      state.utrp_plan = math::optimize_utrp_frame(
          n, s.plan.zones[z].tolerance, s.alpha, s.comm_budget,
          s.slack_slots, s.model);
    }

    if (k > 1) {
      // Generalized Eq. (2) frame plus the fixed challenge stream every
      // reader answers. The stream derives from (seed, inventory, zone) but
      // NOT the attempt: a retrying reader re-scans the same (f, r) pairs
      // its peers saw, which TRP makes idempotent.
      const std::pair<std::uint64_t, std::uint64_t> key{
          n, s.plan.zones[z].tolerance};
      auto it = fused_solved.find(key);
      if (it == fused_solved.end()) {
        it = fused_solved
                 .emplace(key, math::optimize_fused_trp_frame(
                                   key.first, key.second, s.alpha,
                                   s.fusion.sizing(), s.model))
                 .first;
      }
      state.fused_threshold = math::fused_mismatch_threshold(
          n, it->second.frame_size, s.fusion.sizing());
      util::Rng crng(util::derive_seed(
          util::derive_seed(config_.seed, inventory->name_hash, z),
          kChallengeSalt));
      state.challenges.reserve(s.rounds);
      for (std::uint64_t round = 0; round < s.rounds; ++round) {
        state.challenges.push_back(
            protocol::TrpChallenge{it->second.frame_size, crng()});
      }
      state.reader_attempts.resize(k);
    }
    state.reader_dishonest.assign(k, false);
    state.reader_excluded.assign(k, false);

    if (s.deadline_us > 0.0) {
      state.deadline_us = s.deadline_us;
    } else if (s.protocol == Protocol::kUtrp &&
               s.session.utrp_deadline_us > 0.0) {
      // EDF key: the Alg. 5 budget — zones closest to expiry run first.
      state.deadline_us = s.session.utrp_deadline_us;
    }
  }
  for (const auto& [zone, plan] : s.zone_faults) {
    RFID_EXPECT(zone < inventory->zones.size(), "fault zone out of range");
    ZoneState& state = inventory->zones[static_cast<std::size_t>(zone)];
    state.reader_fault_plans.clear();
    state.reader_fault_plans.reserve(k);
    for (std::uint32_t r = 0; r < k; ++r) {
      state.reader_fault_plans.push_back(plan.for_reader(r));
    }
  }
  for (const auto& [zone, reader] : s.dishonest_readers) {
    RFID_EXPECT(zone < inventory->zones.size(),
                "dishonest reader zone out of range");
    RFID_EXPECT(reader < k, "dishonest reader index out of range");
    inventory->zones[static_cast<std::size_t>(zone)]
        .reader_dishonest[reader] = true;
  }
  for (const auto& [zone, reader] : s.excluded_readers) {
    RFID_EXPECT(k > 1, "excluded readers require a fused (k > 1) zone");
    RFID_EXPECT(zone < inventory->zones.size(),
                "excluded reader zone out of range");
    RFID_EXPECT(reader < k, "excluded reader index out of range");
    inventory->zones[static_cast<std::size_t>(zone)]
        .reader_excluded[reader] = true;
  }
  if (k > 1) {
    for (ZoneState& state : inventory->zones) {
      std::uint32_t active = 0;
      for (std::uint32_t r = 0; r < k; ++r) {
        if (!state.reader_excluded[r]) ++active;
      }
      RFID_EXPECT(active >= 1,
                  "every reader of a zone is excluded; nothing can scan it");
      state.readers_pending =
          std::make_unique<std::atomic<std::uint32_t>>(active);
    }
  }

  inventories_.push_back(std::move(inventory));
  return admission;
}

bool FleetOrchestrator::should_abort() const noexcept {
  return task_failed_.load(std::memory_order_acquire) ||
         (config_.abort != nullptr &&
          config_.abort->load(std::memory_order_acquire));
}

std::uint64_t FleetOrchestrator::config_fingerprint() const {
  // Everything zone-record reuse depends on: which inventories exist, how
  // many zones each has, and each zone's (size, tolerance). Mixed through
  // the same splitmix chain the seed derivation uses; |1 keeps the result
  // distinguishable from the "unknown" sentinel 0.
  std::uint64_t h = 0x666c656574636667ULL;  // "fleetcfg"
  for (const auto& inventory : inventories_) {
    h = util::derive_seed(h, inventory->name_hash,
                          inventory->spec.plan.zones.size());
    for (const server::ZonePlan& zone : inventory->spec.plan.zones) {
      h = util::derive_seed(h, zone.tags, zone.tolerance);
    }
  }
  return h | 1;
}

tag::TagSet FleetOrchestrator::audit_set(const ZoneState& state) const {
  // The zone as a physical audit would re-enroll it: present tags at their
  // current counters, stolen tags frozen at the last value the server saw
  // (they are out of range and never hear a broadcast).
  std::vector<tag::Tag> tags;
  tags.reserve(state.enrolled.size());
  std::size_t cursor = 0;
  for (std::size_t j = 0; j < state.enrolled.size(); ++j) {
    if (state.absent[j]) {
      tags.push_back(state.enrolled.at(j));
    } else {
      tags.push_back(state.present[cursor++]);
    }
  }
  return tag::TagSet(std::move(tags));
}

void FleetOrchestrator::run_zone_attempt(std::size_t inv, std::size_t zone,
                                         std::uint32_t attempt) {
  ZoneState& state = inventories_[inv]->zones[zone];

  if (should_abort()) {
    // Killed before this attempt started: report the zone as crashed but
    // journal nothing — a journaled "failed" would be reused on resume as
    // if the zone had genuinely exhausted its attempts.
    state.report.zone = zone;
    state.report.status = ZoneStatus::kFailed;
    state.report.last_failure = wire::FailureReason::kCrashed;
    state.report.attempts = static_cast<std::uint32_t>(
        state.attempts_log.size());
    state.finalized = true;
    return;
  }

  try {
    run_zone_attempt_body(inv, zone, attempt);
  } catch (...) {
    // A throwing zone (sick journal disk delivering a scripted crash, a
    // bug in a protocol engine) must not terminate the worker thread: park
    // the exception, flip the kill switch so the rest of the run drains
    // fast, and let run() rethrow on the caller's thread.
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    task_failed_.store(true, std::memory_order_release);
  }
}

void FleetOrchestrator::run_zone_attempt_body(std::size_t inv,
                                              std::size_t zone,
                                              std::uint32_t attempt) {
  Inventory& inventory = *inventories_[inv];
  ZoneState& state = inventory.zones[zone];
  const InventorySpec& s = inventory.spec;

  // The determinism contract: everything random about this attempt flows
  // from (fleet seed, inventory name, zone, attempt). Thread identity and
  // execution order never enter.
  util::Rng rng(util::derive_seed(
      util::derive_seed(config_.seed, inventory.name_hash, zone), attempt));
  sim::EventQueue queue;

  wire::SessionConfig session = s.session;
  session.metrics = nullptr;  // recorded post-run, in deterministic order
  session.tracer = nullptr;
  session.session_log = nullptr;
  session.group_name = s.name + "/zone" + std::to_string(zone);
  session.faults = (attempt == 0 || config_.faults_on_retries) &&
                           !state.reader_fault_plans.empty()
                       ? &state.reader_fault_plans[0]
                       : nullptr;

  const protocol::MonitoringPolicy policy{s.plan.zones[zone].tolerance,
                                          s.alpha, s.model};
  wire::SessionOutcome outcome;
  if (s.protocol == Protocol::kTrp) {
    protocol::TrpServer server(state.columnar, policy);
    server.set_bulk_mode(s.bulk_mode);
    if (state.reader_dishonest[0]) {
      // The split-attack reader: forge the expected bitstring of the FULL
      // enrolled set — "nothing missing" — instead of scanning.
      session.trp_forge = [&server](const protocol::TrpChallenge& c) {
        return server.expected_bitstring(c);
      };
    }
    outcome = wire::run_trp_session(
        queue, server, std::span<const tag::Tag>(state.present), s.rounds,
        session, rng);
  } else {
    // Every attempt re-enrolls the mirror from a fresh audit; on a retry
    // this is exactly the divergence healing resync() performs after a
    // crashed session left mirror and reality out of step.
    const tag::TagSet audited = audit_set(state);
    protocol::UtrpServer server(audited, policy, s.comm_budget,
                                state.utrp_plan);
    server.set_bulk_mode(s.bulk_mode);
    outcome = wire::run_utrp_session(queue, server,
                                     std::span<tag::Tag>(state.present),
                                     s.rounds, session, rng);
  }
  state.attempts_log.push_back(std::move(outcome));

  const wire::SessionOutcome& last = state.attempts_log.back();
  if (!last.completed && is_retryable(last.failure) &&
      attempt + 1 < config_.max_zone_attempts) {
    // Requeue onto healthy capacity: the submitting worker keeps it local,
    // an idle worker may steal it — either way the result is the same.
    scheduler_->submit(state.deadline_us,
                       [this, inv, zone, next = attempt + 1] {
                         run_zone_attempt(inv, zone, next);
                       });
    return;
  }
  finalize_zone(inv, zone, /*aborted=*/false);
}

void FleetOrchestrator::finalize_zone(std::size_t inv, std::size_t zone,
                                      bool aborted) {
  Inventory& inventory = *inventories_[inv];
  ZoneState& state = inventory.zones[zone];
  const wire::SessionOutcome& last = state.attempts_log.back();
  state.finalized = true;

  ZoneReport& report = state.report;
  report.zone = zone;
  report.attempts = static_cast<std::uint32_t>(state.attempts_log.size());
  report.last_failure = last.failure;
  report.resynced = inventory.spec.protocol == Protocol::kUtrp &&
                    state.attempts_log.size() > 1;
  report.rounds_completed = last.rounds_completed;
  for (const protocol::Verdict& verdict : last.verdicts) {
    if (!verdict.deadline_met) {
      ++report.deadline_missed_rounds;
    } else if (verdict.intact) {
      ++report.intact_rounds;
    } else {
      ++report.mismatched_rounds;
    }
  }
  for (const wire::SessionOutcome& a : state.attempts_log) {
    report.frames_sent += a.frames_sent;
    report.retransmissions += a.retransmissions;
  }
  report.duration_us = last.finished_at_us;

  // Theft evidence outranks infrastructure failure: a non-intact verdict in
  // ANY attempt marks the zone violated even if a later (or the same)
  // session died mid-way.
  bool violated = false;
  for (const wire::SessionOutcome& a : state.attempts_log) {
    for (const protocol::Verdict& verdict : a.verdicts) {
      if (!verdict.intact) violated = true;
    }
  }
  report.status = violated           ? ZoneStatus::kViolated
                  : last.completed   ? ZoneStatus::kIntact
                                     : ZoneStatus::kFailed;

  if (!aborted) journal_zone(inv, zone);
}

void FleetOrchestrator::journal_zone(std::size_t inv, std::size_t zone) {
  if (journal_ == nullptr) return;
  const Inventory& inventory = *inventories_[inv];
  const ZoneReport& report = inventory.zones[zone].report;
  storage::FleetZoneRecord record;
  record.inventory = inventory.spec.name;
  record.zone = zone;
  record.status = static_cast<std::uint8_t>(report.status);
  record.attempts = report.attempts;
  record.last_failure = static_cast<std::uint8_t>(report.last_failure);
  record.resynced = report.resynced;
  record.rounds_completed = report.rounds_completed;
  record.intact_rounds = report.intact_rounds;
  record.mismatched_rounds = report.mismatched_rounds;
  record.deadline_missed_rounds = report.deadline_missed_rounds;
  record.frames_sent = report.frames_sent;
  record.retransmissions = report.retransmissions;
  record.duration_us = report.duration_us;
  record.readers = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(report.readers.size()));
  record.degraded_rounds = report.degraded_rounds;
  for (const ReaderReport& reader : report.readers) {
    if (reader.suspect) ++record.suspected_readers;
  }
  journal_->append(record);
}

void FleetOrchestrator::run_reader_attempt(std::size_t inv, std::size_t zone,
                                           std::uint32_t reader,
                                           std::uint32_t attempt) {
  // Killed before this attempt started: return WITHOUT decrementing the
  // zone's fan-in counter, so the fused finalize never runs on partial
  // evidence — run() synthesizes a crashed report for unfinalized zones.
  if (should_abort()) return;
  try {
    run_reader_attempt_body(inv, zone, reader, attempt);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    task_failed_.store(true, std::memory_order_release);
  }
}

void FleetOrchestrator::run_reader_attempt_body(std::size_t inv,
                                                std::size_t zone,
                                                std::uint32_t reader,
                                                std::uint32_t attempt) {
  Inventory& inventory = *inventories_[inv];
  ZoneState& state = inventory.zones[zone];
  const InventorySpec& s = inventory.spec;

  // The fused determinism contract extends the zone derivation with the
  // reader index: (fleet seed, inventory, zone, attempt, reader). The +1
  // and salt keep every reader stream disjoint from the k = 1 legacy
  // stream, which reader 0 would otherwise collide with.
  util::Rng rng(util::derive_seed(
      util::derive_seed(
          util::derive_seed(config_.seed, inventory.name_hash, zone),
          attempt),
      reader + 1, kReaderSalt));
  sim::EventQueue queue;

  wire::SessionConfig session = s.session;
  session.metrics = nullptr;  // recorded post-run, in deterministic order
  session.tracer = nullptr;
  session.session_log = nullptr;
  session.group_name = s.name + "/zone" + std::to_string(zone);
  session.trp_challenges = &state.challenges;
  session.faults = (attempt == 0 || config_.faults_on_retries) &&
                           !state.reader_fault_plans.empty()
                       ? &state.reader_fault_plans[reader]
                       : nullptr;

  const protocol::MonitoringPolicy policy{s.plan.zones[zone].tolerance,
                                          s.alpha, s.model};
  protocol::TrpServer server(state.columnar, policy);
  server.set_bulk_mode(s.bulk_mode);
  if (state.reader_dishonest[reader]) {
    session.trp_forge = [&server](const protocol::TrpChallenge& c) {
      return server.expected_bitstring(c);
    };
  }
  wire::SessionOutcome outcome = wire::run_trp_session(
      queue, server, std::span<const tag::Tag>(state.present), s.rounds,
      session, rng);
  std::vector<wire::SessionOutcome>& log = state.reader_attempts[reader];
  log.push_back(std::move(outcome));

  const wire::SessionOutcome& last = log.back();
  if (!last.completed && is_retryable(last.failure) &&
      attempt + 1 < config_.max_zone_attempts) {
    scheduler_->submit(state.deadline_us,
                       [this, inv, zone, reader, next = attempt + 1] {
                         run_reader_attempt(inv, zone, reader, next);
                       });
    return;
  }
  // This reader is terminal. The LAST reader to arrive owns the fused
  // finalize; fusion consumes only terminal per-reader state, so the
  // verdict is independent of which reader that happens to be.
  if (state.readers_pending->fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finalize_fused_zone(inv, zone);
  }
}

void FleetOrchestrator::finalize_fused_zone(std::size_t inv,
                                            std::size_t zone) {
  Inventory& inventory = *inventories_[inv];
  ZoneState& state = inventory.zones[zone];
  const InventorySpec& s = inventory.spec;
  const std::uint32_t k = s.fusion.readers;
  const std::uint32_t quorum = s.fusion.effective_quorum();
  state.finalized = true;

  const protocol::MonitoringPolicy policy{s.plan.zones[zone].tolerance,
                                          s.alpha, s.model};
  protocol::TrpServer server(state.columnar, policy);
  server.set_bulk_mode(s.bulk_mode);
  fusion::TrustTracker tracker(s.fusion);

  ZoneReport& report = state.report;
  report.zone = zone;

  // Per-session verdicts are NOT authoritative here: an honest reader's
  // reply loss produces false per-session mismatches by design. Only the
  // fused evidence, judged against the generalized-Theorem-1 threshold,
  // decides the zone.
  bool violated = false;
  std::uint64_t committed = 0;
  for (std::uint64_t round = 0; round < s.rounds; ++round) {
    // Each reader's freshest scan of this round: retries answer the same
    // challenge stream, so the last attempt supersedes earlier ones.
    std::vector<const bits::Bitstring*> observed(k, nullptr);
    for (std::uint32_t r = 0; r < k; ++r) {
      if (state.reader_excluded[r]) continue;
      const auto& log = state.reader_attempts[r];
      if (log.empty()) continue;
      const wire::SessionOutcome& last = log.back();
      if (last.reported.size() <= round) continue;
      observed[r] = &last.reported[round];
    }
    std::uint32_t valid = 0;
    for (const bits::Bitstring* b : observed) {
      if (b != nullptr) ++valid;
    }
    if (valid == 0) continue;  // no reader reached this round
    const fusion::FusedRound fused = fusion::fuse_round(
        std::span<const bits::Bitstring* const>(observed.data(),
                                                observed.size()),
        tracker.trust());
    report.fused_slots += fused.slots_fused;
    for (std::uint32_t r = 0; r < k; ++r) {
      report.phantom_votes += fused.phantom_busy[r];
      report.missed_votes += fused.missed_busy[r];
    }
    tracker.observe_round(fused);
    if (valid < quorum) {
      // Below quorum the majority-masking guarantee is void (a lone
      // adversary could frame or whitewash the zone): no verdict, the
      // round is surfaced as degraded instead.
      ++report.degraded_rounds;
      continue;
    }
    ++committed;
    const bits::Bitstring expected =
        server.expected_bitstring(state.challenges[round]);
    std::uint64_t mismatches = 0;
    for (std::uint64_t slot = 0; slot < state.challenges[round].frame_size;
         ++slot) {
      if (expected.test(slot) && !fused.fused.test(slot)) ++mismatches;
    }
    if (mismatches >= state.fused_threshold) {
      violated = true;
      ++report.mismatched_rounds;
    } else {
      ++report.intact_rounds;
    }
  }
  report.rounds_completed = committed;

  report.readers.resize(k);
  bool failure_set = false;
  for (std::uint32_t r = 0; r < k; ++r) {
    ReaderReport& rr = report.readers[r];
    rr.reader = r;
    rr.excluded = state.reader_excluded[r];
    rr.suspect = tracker.suspect(r);
    rr.trust = tracker.trust()[r];
    rr.votes_overruled = tracker.overruled_votes(r);
    const auto& log = state.reader_attempts[r];
    rr.attempts = static_cast<std::uint32_t>(log.size());
    report.attempts += rr.attempts;
    if (!log.empty()) {
      const wire::SessionOutcome& last = log.back();
      rr.completed = last.completed;
      rr.last_failure = last.failure;
      report.duration_us = std::max(report.duration_us, last.finished_at_us);
      for (const wire::SessionOutcome& a : log) {
        report.frames_sent += a.frames_sent;
        report.retransmissions += a.retransmissions;
      }
    } else if (!rr.excluded) {
      rr.last_failure = wire::FailureReason::kCrashed;
    }
    if (!rr.excluded && !failure_set) {
      report.last_failure = rr.last_failure;
      failure_set = true;
    }
  }

  report.status = violated                ? ZoneStatus::kViolated
                  : committed == s.rounds ? ZoneStatus::kIntact
                  : committed > 0         ? ZoneStatus::kDegraded
                                          : ZoneStatus::kFailed;
  journal_zone(inv, zone);
}

FleetResult FleetOrchestrator::run() {
  RFID_EXPECT(!ran_, "run() may only be called once");
  ran_ = true;

  FleetResult result;

  // Harvest an interrupted run before overwriting the journal: matching
  // zone records are folded in as-is (determinism makes them exactly what
  // re-execution would produce) and carried into the fresh journal so a
  // second crash still sees them. A recorded run whose config fingerprint
  // conflicts with the current plan is quarantined instead — stale zone
  // records must never leak into a re-planned fleet.
  std::map<std::pair<std::string, std::uint64_t>, storage::FleetZoneRecord>
      recovered;
  const std::uint64_t fingerprint = config_fingerprint();
  if (config_.journal_backend != nullptr) {
    journal_ = std::make_unique<storage::FleetJournal>(
        *config_.journal_backend, config_.journal_name);
    storage::FleetRecovery recovery = storage::recover_interrupted_run_checked(
        journal_->load(), config_.seed, config_.fleet_name, fingerprint);
    if (recovery.stale) {
      result.alerts.push_back(FleetAlert{
          AlertKind::kRecoveredRunQuarantined, config_.fleet_name, 0,
          std::to_string(recovery.stale_records) +
              " journaled zone record(s) from a run with a different plan "
              "were quarantined; every zone re-executes"});
    }
    recovered = std::move(recovery.zones);
    std::vector<storage::FleetZoneRecord> carried;
    for (const auto& inventory : inventories_) {
      for (std::size_t z = 0; z < inventory->zones.size(); ++z) {
        const auto it = recovered.find({inventory->spec.name, z});
        if (it != recovered.end()) carried.push_back(it->second);
      }
    }
    journal_->begin({config_.seed, config_.fleet_name, fingerprint}, carried);
  }

  scheduler_ = std::make_unique<FleetScheduler>(config_.threads);
  result.threads = scheduler_->threads();

  const std::size_t wave_count = std::max<std::size_t>(wave_zones_.size(), 1);
  for (std::size_t w = 0; w < wave_count; ++w) {
    for (std::size_t i = 0; i < inventories_.size(); ++i) {
      Inventory& inventory = *inventories_[i];
      if (inventory.wave != w) continue;
      for (std::size_t z = 0; z < inventory.zones.size(); ++z) {
        const auto it = recovered.find({inventory.spec.name, z});
        if (it != recovered.end()) {
          const storage::FleetZoneRecord& rec = it->second;
          ZoneReport& report = inventory.zones[z].report;
          report.zone = z;
          report.status = static_cast<ZoneStatus>(rec.status);
          report.last_failure =
              static_cast<wire::FailureReason>(rec.last_failure);
          report.attempts = rec.attempts;
          report.resynced = rec.resynced;
          report.recovered = true;
          report.rounds_completed = rec.rounds_completed;
          report.intact_rounds = rec.intact_rounds;
          report.mismatched_rounds = rec.mismatched_rounds;
          report.deadline_missed_rounds = rec.deadline_missed_rounds;
          report.frames_sent = rec.frames_sent;
          report.retransmissions = rec.retransmissions;
          report.duration_us = rec.duration_us;
          if (rec.readers > 1) {
            // The journal keeps per-reader detail only in aggregate; the
            // synthesized reports preserve the counts (indices are lost).
            report.degraded_rounds = rec.degraded_rounds;
            report.readers.resize(rec.readers);
            for (std::uint32_t r = 0; r < rec.readers; ++r) {
              report.readers[r].reader = r;
              report.readers[r].suspect = r < rec.suspected_readers;
            }
          }
          continue;
        }
        ZoneState& state = inventory.zones[z];
        const std::uint32_t k = inventory.spec.fusion.readers;
        if (k > 1) {
          for (std::uint32_t r = 0; r < k; ++r) {
            if (state.reader_excluded[r]) continue;
            scheduler_->submit(state.deadline_us, [this, i, z, r] {
              run_reader_attempt(i, z, r, 0);
            });
          }
        } else {
          scheduler_->submit(state.deadline_us, [this, i, z] {
            run_zone_attempt(i, z, 0);
          });
        }
      }
    }
    // The wave barrier IS the backpressure: the next wave's zones are not
    // offered to the pool until the saturated one drains. With a kill
    // switch wired in, the wait is deadline-bounded so a wedged zone
    // cannot strand the watchdog behind an unbounded wait_idle().
    if (config_.abort == nullptr) {
      scheduler_->wait_idle();
      if (should_abort()) break;  // a zone threw; tasks drained fast
    } else {
      while (!scheduler_->wait_idle_for(std::chrono::milliseconds(1))) {
        if (should_abort()) break;
      }
      if (should_abort()) {
        scheduler_->stop(/*drain=*/false);
        break;
      }
    }
  }
  result.aborted = should_abort();

  result.tasks_stolen = scheduler_->stolen();
  scheduler_.reset();  // join workers; all zone state is quiescent below

  // Zones whose task (or requeue) was abandoned before running have no
  // finalized report; give them an explicit crashed one so aggregation
  // (and the operator) see them as not-monitored rather than defaults.
  if (result.aborted) {
    for (const auto& inventory : inventories_) {
      for (std::size_t z = 0; z < inventory->zones.size(); ++z) {
        ZoneState& state = inventory->zones[z];
        if (state.finalized || state.report.recovered) continue;
        state.report.zone = z;
        state.report.status = ZoneStatus::kFailed;
        state.report.last_failure = wire::FailureReason::kCrashed;
        std::uint32_t attempts =
            static_cast<std::uint32_t>(state.attempts_log.size());
        for (const auto& log : state.reader_attempts) {
          attempts += static_cast<std::uint32_t>(log.size());
        }
        state.report.attempts = attempts;
      }
    }
  }

  if (first_error_ != nullptr) {
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      error = first_error_;
    }
    std::rethrow_exception(error);
  }

  // Identification drill-down: for every violated zone of an inventory that
  // opted in, run a missing-tag identification campaign so the escalation
  // names the stolen tags instead of just flagging the zone. This is a
  // sequential post-pass over quiescent zone state with an RNG derived from
  // (seed, inventory, zone): a pure function of the fleet seed, so it
  // produces identical output on 1 or 64 threads and on zones recovered
  // from an interrupted run's journal.
  for (const auto& inventory : inventories_) {
    const InventorySpec& s = inventory->spec;
    if (!s.identify.enabled) continue;
    const std::unique_ptr<protocol::IdentificationProtocol> identifier =
        protocol::make_identification_protocol(s.identify.protocol,
                                               s.identify.config);
    const hash::SlotHasher hasher{};
    for (std::size_t z = 0; z < inventory->zones.size(); ++z) {
      ZoneState& state = inventory->zones[z];
      if (state.report.status != ZoneStatus::kViolated) continue;
      util::Rng rng(util::derive_seed(
          util::derive_seed(config_.seed, inventory->name_hash, z),
          kIdentifySalt));
      protocol::IdentifyResult campaign = identifier->identify(
          state.columnar.ids(), std::span<const tag::Tag>(state.present),
          hasher, rng);
      ZoneIdentification& id = state.report.identification;
      id.ran = true;
      id.protocol = std::string(identifier->name());
      id.present = campaign.present.size();
      id.unresolved = campaign.unresolved.size();
      id.rounds = campaign.rounds;
      id.slots = campaign.total_slots;
      id.tree_queries = campaign.tree_queries;
      id.filter_bits = campaign.filter_bits;
      id.estimated_missing = campaign.estimated_missing;
      id.duration_us = campaign.elapsed_us(radio::TimingModel{});
      id.missing = std::move(campaign.missing);
      ++result.zones_identified;
      result.tags_named += id.missing.size();
    }
  }

  result.waves = wave_count;
  result.deferred_inventories = deferred_count_;
  result.rejected = rejected_;
  for (const std::string& name : rejected_) {
    result.alerts.push_back(FleetAlert{
        AlertKind::kInventoryRejected, name, 0,
        "admission capacity saturated; inventory is NOT monitored"});
  }

  for (const auto& inventory : inventories_) {
    InventoryReport inv_report;
    inv_report.name = inventory->spec.name;
    inv_report.protocol = inventory->spec.protocol;
    inv_report.wave = inventory->wave;
    inv_report.tags = inventory->spec.tags.size();
    inv_report.worst_zone_detection =
        inventory->spec.plan.worst_zone_detection;
    for (const server::ZonePlan& zone : inventory->spec.plan.zones) {
      inv_report.tolerance += zone.tolerance;
    }
    GlobalVerdict verdict = GlobalVerdict::kIntact;
    for (std::size_t z = 0; z < inventory->zones.size(); ++z) {
      const ZoneState& state = inventory->zones[z];
      const ZoneReport& report = state.report;
      inv_report.zones.push_back(report);
      ++result.zones;
      result.attempts += state.attempts_log.size();
      if (state.attempts_log.size() > 1) {
        result.requeues += state.attempts_log.size() - 1;
      }
      for (const auto& log : state.reader_attempts) {
        result.attempts += log.size();
        if (log.size() > 1) result.requeues += log.size() - 1;
      }
      for (const ReaderReport& reader : report.readers) {
        if (reader.suspect) ++result.readers_suspected;
      }
      if (report.resynced) ++result.resyncs;
      if (report.recovered) ++result.zones_recovered;
      switch (report.status) {
        case ZoneStatus::kViolated:
          verdict = worse(verdict, GlobalVerdict::kViolated);
          break;
        case ZoneStatus::kFailed: {
          verdict = worse(verdict, GlobalVerdict::kInconclusive);
          ++result.escalations;
          std::string detail = std::string(to_string(report.last_failure)) +
                               " after " + std::to_string(report.attempts) +
                               " attempt(s)";
          result.alerts.push_back(FleetAlert{AlertKind::kZoneEscalated,
                                             inventory->spec.name, z,
                                             std::move(detail)});
          break;
        }
        case ZoneStatus::kDegraded: {
          // The verdict stands on fewer readers than configured: no
          // violation seen, but the pigeonhole guarantee did not close at
          // full strength — inconclusive, never silently intact.
          verdict = worse(verdict, GlobalVerdict::kInconclusive);
          ++result.degraded_zones;
          std::string detail =
              std::to_string(report.degraded_rounds) +
              " round(s) committed below the " +
              std::to_string(inventory->spec.fusion.effective_quorum()) +
              "-of-" + std::to_string(inventory->spec.fusion.readers) +
              " quorum";
          result.alerts.push_back(FleetAlert{AlertKind::kZoneDegraded,
                                             inventory->spec.name, z,
                                             std::move(detail)});
          break;
        }
        case ZoneStatus::kIntact:
          break;
      }
    }
    inv_report.verdict = verdict;
    result.verdict = worse(result.verdict, verdict);
    result.inventories.push_back(std::move(inv_report));
  }

  // An intact verdict asserts the pigeonhole guarantee held, which requires
  // zones to have actually run. A fleet where nothing was monitored (every
  // inventory rejected at admission, or nothing submitted) is inconclusive.
  if (result.zones == 0) {
    result.verdict = worse(result.verdict, GlobalVerdict::kInconclusive);
  }

  // An aborted run journals no end record: the next orchestrator with the
  // same (seed, fleet, plan) resumes it, reusing every journaled zone.
  if (journal_ != nullptr && !result.aborted) {
    journal_->append(storage::FleetRunEndRecord{
        static_cast<std::uint8_t>(result.verdict)});
  }

  record_observability(result);
  return result;
}

void FleetOrchestrator::record_observability(const FleetResult& result) {
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    const std::uint64_t accepted =
        inventories_.size() - deferred_count_;
    if (accepted > 0) {
      obs::catalog::fleet_admissions_total(m, "accepted").inc(accepted);
    }
    if (deferred_count_ > 0) {
      obs::catalog::fleet_admissions_total(m, "deferred").inc(deferred_count_);
    }
    if (!rejected_.empty()) {
      obs::catalog::fleet_admissions_total(m, "rejected")
          .inc(rejected_.size());
    }
    for (const InventoryReport& inventory : result.inventories) {
      obs::catalog::fleet_inventories_total(m, to_string(inventory.verdict))
          .inc();
      const std::string_view protocol = to_string(inventory.protocol);
      for (const ZoneReport& zone : inventory.zones) {
        obs::catalog::fleet_zones_total(m, to_string(zone.status)).inc();
        if (!zone.recovered) {
          obs::catalog::fleet_zone_attempts_total(m, protocol)
              .inc(zone.attempts);
        }
        obs::catalog::fleet_zone_duration_us(m, protocol)
            .observe(zone.duration_us);
      }
    }
    if (result.requeues > 0) {
      obs::catalog::fleet_requeues_total(m).inc(result.requeues);
    }
    if (result.escalations > 0) {
      obs::catalog::fleet_escalations_total(m).inc(result.escalations);
    }
    if (result.resyncs > 0) {
      obs::catalog::fleet_zone_resyncs_total(m).inc(result.resyncs);
    }
    if (result.zones_recovered > 0) {
      obs::catalog::fleet_zones_recovered_total(m).inc(result.zones_recovered);
    }
    std::uint64_t fused_slots = 0;
    std::uint64_t phantom = 0;
    std::uint64_t missed = 0;
    std::uint64_t degraded_rounds = 0;
    for (const InventoryReport& inventory : result.inventories) {
      for (const ZoneReport& zone : inventory.zones) {
        fused_slots += zone.fused_slots;
        phantom += zone.phantom_votes;
        missed += zone.missed_votes;
        degraded_rounds += zone.degraded_rounds;
      }
    }
    if (fused_slots > 0) {
      obs::catalog::fusion_slots_fused_total(m).inc(fused_slots);
    }
    if (phantom > 0) {
      obs::catalog::fusion_votes_overruled_total(m, "phantom_busy")
          .inc(phantom);
    }
    if (missed > 0) {
      obs::catalog::fusion_votes_overruled_total(m, "missed_busy").inc(missed);
    }
    if (degraded_rounds > 0) {
      obs::catalog::fusion_rounds_degraded_total(m).inc(degraded_rounds);
    }
    if (result.readers_suspected > 0) {
      obs::catalog::fusion_readers_suspected_total(m)
          .inc(result.readers_suspected);
    }
    for (const InventoryReport& inventory : result.inventories) {
      for (const ZoneReport& zone : inventory.zones) {
        const ZoneIdentification& id = zone.identification;
        if (!id.ran) continue;
        obs::catalog::identify_campaigns_total(
            m, id.protocol, id.unresolved == 0 ? "resolved" : "capped")
            .inc();
        obs::catalog::identify_rounds_total(m, id.protocol).inc(id.rounds);
        obs::catalog::identify_slots_total(m, id.protocol, "frame")
            .inc(id.slots - id.tree_queries);
        obs::catalog::identify_slots_total(m, id.protocol, "tree")
            .inc(id.tree_queries);
        if (id.filter_bits > 0) {
          obs::catalog::identify_filter_bits_total(m).inc(id.filter_bits);
        }
        obs::catalog::identify_tags_total(m, "missing")
            .inc(id.missing.size());
        obs::catalog::identify_tags_total(m, "present").inc(id.present);
        obs::catalog::identify_tags_total(m, "unresolved")
            .inc(id.unresolved);
      }
    }
    obs::catalog::fleet_runs_total(m, to_string(result.verdict)).inc();
  }

  if (config_.tracer != nullptr) {
    obs::Tracer& tracer = *config_.tracer;
    const std::uint64_t fleet_span = tracer.begin_span("fleet");
    tracer.annotate(fleet_span, "name", config_.fleet_name);
    tracer.annotate(fleet_span, "verdict", to_string(result.verdict));
    tracer.annotate(fleet_span, "zones", std::to_string(result.zones));
    for (std::size_t i = 0; i < result.inventories.size(); ++i) {
      const InventoryReport& inventory = result.inventories[i];
      const std::uint64_t inv_span =
          tracer.begin_span("inventory", fleet_span);
      tracer.annotate(inv_span, "name", inventory.name);
      tracer.annotate(inv_span, "protocol", to_string(inventory.protocol));
      tracer.annotate(inv_span, "verdict", to_string(inventory.verdict));
      for (std::size_t z = 0; z < inventory.zones.size(); ++z) {
        const ZoneReport& zone = inventory.zones[z];
        const std::uint64_t zone_span = tracer.begin_span("zone", inv_span);
        tracer.annotate(zone_span, "zone", std::to_string(zone.zone));
        tracer.annotate(zone_span, "status", to_string(zone.status));
        tracer.annotate(zone_span, "attempts",
                        std::to_string(zone.attempts));
        if (zone.recovered) {
          tracer.annotate(zone_span, "recovered", "true");
        } else {
          const ZoneState& state = inventories_[i]->zones[z];
          for (std::size_t a = 0; a < state.attempts_log.size(); ++a) {
            const wire::SessionOutcome& outcome = state.attempts_log[a];
            const std::uint64_t session_span =
                tracer.begin_span("session", zone_span);
            tracer.annotate(session_span, "attempt", std::to_string(a));
            tracer.annotate(session_span, "outcome",
                            outcome.completed
                                ? std::string_view("completed")
                                : wire::to_string(outcome.failure));
            tracer.end_span(session_span);
          }
          for (std::size_t r = 0; r < state.reader_attempts.size(); ++r) {
            for (std::size_t a = 0; a < state.reader_attempts[r].size();
                 ++a) {
              const wire::SessionOutcome& outcome =
                  state.reader_attempts[r][a];
              const std::uint64_t session_span =
                  tracer.begin_span("session", zone_span);
              tracer.annotate(session_span, "reader", std::to_string(r));
              tracer.annotate(session_span, "attempt", std::to_string(a));
              tracer.annotate(session_span, "outcome",
                              outcome.completed
                                  ? std::string_view("completed")
                                  : wire::to_string(outcome.failure));
              tracer.end_span(session_span);
            }
          }
        }
        tracer.end_span(zone_span);
      }
      tracer.end_span(inv_span);
    }
    tracer.end_span(fleet_span);
  }

  if (config_.session_log != nullptr) {
    for (const auto& inventory : inventories_) {
      for (std::size_t z = 0; z < inventory->zones.size(); ++z) {
        const ZoneState& state = inventory->zones[z];
        for (std::size_t a = 0; a < state.attempts_log.size(); ++a) {
          const wire::SessionOutcome& outcome = state.attempts_log[a];
          obs::SessionSummary summary;
          summary.protocol = std::string(to_string(inventory->spec.protocol));
          summary.group =
              inventory->spec.name + "/zone" + std::to_string(z);
          summary.fleet = config_.fleet_name;
          summary.attempt = a;
          summary.completed = outcome.completed;
          summary.outcome = outcome.completed
                                ? "completed"
                                : std::string(wire::to_string(outcome.failure));
          summary.rounds_completed = outcome.rounds_completed;
          summary.round_failures = outcome.round_failures.size();
          summary.frames_sent = outcome.frames_sent;
          summary.retransmissions = outcome.retransmissions;
          summary.duration_us = outcome.finished_at_us;
          config_.session_log->record(std::move(summary));
        }
        const std::uint32_t k =
            static_cast<std::uint32_t>(state.reader_attempts.size());
        for (std::uint32_t r = 0; r < k; ++r) {
          for (std::size_t a = 0; a < state.reader_attempts[r].size(); ++a) {
            const wire::SessionOutcome& outcome = state.reader_attempts[r][a];
            obs::SessionSummary summary;
            summary.protocol =
                std::string(to_string(inventory->spec.protocol));
            summary.group =
                inventory->spec.name + "/zone" + std::to_string(z);
            summary.fleet = config_.fleet_name;
            summary.attempt = a;
            summary.reader = r;
            summary.readers = k;
            summary.completed = outcome.completed;
            summary.outcome =
                outcome.completed
                    ? "completed"
                    : std::string(wire::to_string(outcome.failure));
            summary.rounds_completed = outcome.rounds_completed;
            summary.round_failures = outcome.round_failures.size();
            summary.frames_sent = outcome.frames_sent;
            summary.retransmissions = outcome.retransmissions;
            summary.duration_us = outcome.finished_at_us;
            config_.session_log->record(std::move(summary));
          }
        }
      }
    }
  }
}

std::string summary(const FleetResult& result) {
  std::string out;
  out += "fleet verdict: ";
  out += to_string(result.verdict);
  out += '\n';
  out += "inventories: " + std::to_string(result.inventories.size()) +
         " monitored, " + std::to_string(result.rejected.size()) +
         " rejected, " + std::to_string(result.deferred_inventories) +
         " deferred; waves: " + std::to_string(result.waves) + '\n';
  for (const InventoryReport& inventory : result.inventories) {
    std::uint64_t intact = 0;
    std::uint64_t violated = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    for (const ZoneReport& zone : inventory.zones) {
      switch (zone.status) {
        case ZoneStatus::kIntact: ++intact; break;
        case ZoneStatus::kViolated: ++violated; break;
        case ZoneStatus::kDegraded: ++degraded; break;
        case ZoneStatus::kFailed: ++failed; break;
      }
    }
    out += "  " + inventory.name + " [" +
           std::string(to_string(inventory.protocol)) + "] wave " +
           std::to_string(inventory.wave) + ": " +
           std::string(to_string(inventory.verdict)) + " - zones " +
           std::to_string(inventory.zones.size()) + " (intact " +
           std::to_string(intact) + ", violated " + std::to_string(violated) +
           ", degraded " + std::to_string(degraded) + ", failed " +
           std::to_string(failed) + "), tags " +
           std::to_string(inventory.tags) + ", tolerance " +
           std::to_string(inventory.tolerance) + ", worst-zone detection " +
           obs::format_double(inventory.worst_zone_detection) + '\n';
    for (const ZoneReport& zone : inventory.zones) {
      const ZoneIdentification& id = zone.identification;
      if (!id.ran) continue;
      out += "    zone" + std::to_string(zone.zone) + " identified [" +
             id.protocol + "]: " + std::to_string(id.missing.size()) +
             " missing, " + std::to_string(id.present) + " present, " +
             std::to_string(id.unresolved) + " unresolved in " +
             std::to_string(id.rounds) + " round(s), " +
             std::to_string(id.slots) + " slot(s)\n";
      // Name the stolen tags (capped: the full list is in the report).
      constexpr std::size_t kNamedCap = 8;
      const std::size_t named = std::min(id.missing.size(), kNamedCap);
      for (std::size_t i = 0; i < named; ++i) {
        out += "      missing " + id.missing[i].to_string() + '\n';
      }
      if (id.missing.size() > named) {
        out += "      ... +" + std::to_string(id.missing.size() - named) +
               " more\n";
      }
    }
  }
  out += "zones: " + std::to_string(result.zones) + "; attempts: " +
         std::to_string(result.attempts) + ", requeues: " +
         std::to_string(result.requeues) + ", escalations: " +
         std::to_string(result.escalations) + ", resyncs: " +
         std::to_string(result.resyncs) + ", recovered: " +
         std::to_string(result.zones_recovered) + ", degraded: " +
         std::to_string(result.degraded_zones) + ", suspects: " +
         std::to_string(result.readers_suspected) + '\n';
  for (const FleetAlert& alert : result.alerts) {
    out += "alert [" + std::string(to_string(alert.kind)) + "] " +
           alert.inventory;
    if (alert.kind == AlertKind::kZoneEscalated ||
        alert.kind == AlertKind::kZoneDegraded) {
      out += "/zone" + std::to_string(alert.zone);
    }
    out += ": " + alert.detail + '\n';
  }
  return out;
}

}  // namespace rfid::fleet
