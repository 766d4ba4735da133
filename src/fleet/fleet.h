// Fleet orchestration: concurrent multi-zone monitoring with deadline
// scheduling and global verdict aggregation.
//
// The group planner (server/group_planner.h) shards one inventory into
// zones whose tolerances sum to the global M; the wire layer runs one
// monitoring session per zone. This subsystem closes the loop at warehouse
// scale: a FleetOrchestrator takes one InventorySpec per inventory, executes
// every zone's session on a deadline-aware work-stealing pool
// (FleetScheduler), retries zones that failed for retryable infrastructure
// reasons on healthy capacity (capped attempts), escalates permanent
// failures as fleet alerts, and folds the per-zone outcomes into one global
// verdict:
//
//   * kViolated      — some zone produced a non-intact (or late, for UTRP)
//                      verdict in any attempt. Theft evidence outranks
//                      infrastructure failure.
//   * kInconclusive  — no violation seen, but some zone never completed a
//                      session (retries exhausted), so the pigeonhole
//                      argument over Sigma m_i = M does not close.
//   * kIntact        — every zone completed and verified intact; more than
//                      M missing tags overall would have tripped at least
//                      one zone with probability > alpha.
//
// Admission control: admission_capacity bounds how many zones run in one
// wave. Saturated submissions are either deferred to a later wave (FIFO,
// an oversized inventory gets a wave of its own) or rejected outright —
// rejected inventories are excluded from the verdict and surfaced as
// alerts, never silently dropped.
//
// Determinism contract (the TrialRunner discipline): every zone attempt
// derives its RNG and its private virtual-time EventQueue from
// (fleet seed, inventory name, zone, attempt) — never from thread identity
// or wall-clock order. Zone sessions run with all observability hooks
// detached; the orchestrator re-records metrics, spans
// (fleet -> inventory -> zone -> session), and SessionLog entries after the
// pool drains, single-threaded, in (inventory, zone, attempt) order. A
// seeded fleet is therefore bit-identical — aggregated verdicts, metric
// exposition, session logs, summary() text — on 1 thread or 64
// (tests/fleet_determinism_test.cpp pins this down).
//
// Durability: with a journal backend attached, every terminal zone outcome
// is appended to a FleetJournal (storage/fleet_journal.h). Because zone
// results are pure functions of the seed, a crashed orchestrator that
// restarts with the same (seed, fleet, specs) reuses journaled zones
// instead of re-running them.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fusion/fusion.h"
#include "math/detection.h"
#include "obs/metrics.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "protocol/identification.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "storage/fleet_journal.h"
#include "tag/tag_set.h"
#include "wire/session.h"

namespace rfid::fleet {

enum class Protocol : std::uint8_t { kTrp = 0, kUtrp = 1 };

/// Terminal state of one zone after capped attempts.
enum class ZoneStatus : std::uint8_t {
  kIntact = 0,    // completed; every round verified intact
  kViolated = 1,  // some round mismatched or missed the Alg. 5 deadline
  kFailed = 2,    // never completed a session (escalated as an alert)
  /// Fused zones only: no violation seen, but some round committed below
  /// the completion quorum (or not at all), so the pigeonhole guarantee
  /// holds at reduced confidence. Aggregates as inconclusive — never
  /// silently voided, never promoted to intact.
  kDegraded = 3,
};

enum class GlobalVerdict : std::uint8_t {
  kIntact = 0,
  kViolated = 1,
  kInconclusive = 2,
};

/// What happened to an inventory at submit().
enum class Admission : std::uint8_t {
  kAccepted = 0,  // runs in the first wave
  kDeferred = 1,  // capacity-saturated; runs in a later wave
  kRejected = 2,  // capacity-saturated and deferral disabled; not monitored
};

enum class AlertKind : std::uint8_t {
  kZoneEscalated = 0,      // a zone exhausted its attempts without completing
  kInventoryRejected = 1,  // an inventory was refused admission
  /// An interrupted run was found in the journal but its recorded config
  /// fingerprint (zone counts / tolerances) no longer matches the current
  /// plan. Its zone records are quarantined — never folded into this run —
  /// and every zone re-executes.
  kRecoveredRunQuarantined = 2,
  /// A fused zone committed below its completion quorum (ZoneStatus::
  /// kDegraded): the verdict stands on fewer readers than configured.
  kZoneDegraded = 3,
};

[[nodiscard]] std::string_view to_string(Protocol protocol) noexcept;
[[nodiscard]] std::string_view to_string(ZoneStatus status) noexcept;
[[nodiscard]] std::string_view to_string(GlobalVerdict verdict) noexcept;
[[nodiscard]] std::string_view to_string(Admission admission) noexcept;
[[nodiscard]] std::string_view to_string(AlertKind kind) noexcept;

struct FleetConfig {
  std::uint64_t seed = 1;
  /// Worker threads; 0 = hardware concurrency. Never affects results.
  unsigned threads = 0;
  /// Attempt cap per zone (first try + retries). Must be >= 1.
  std::uint32_t max_zone_attempts = 3;
  /// Max zones in flight per wave; 0 = unlimited (everything is wave 0).
  std::uint64_t admission_capacity = 0;
  /// Saturated submissions: true defers to a later wave, false rejects.
  bool defer_when_saturated = true;
  /// Replay an attempt-0 fault plan on retries too. Off by default: the
  /// plans model transient outages, and a retry on healthy capacity is
  /// exactly the recovery story being tested.
  bool faults_on_retries = false;
  std::string fleet_name = "fleet";
  /// Observability sinks (none owned; each must outlive run()). All
  /// recording happens post-run on the caller's thread, in deterministic
  /// order — the tracer's documented non-thread-safety is fine here.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::SessionLog* session_log = nullptr;
  /// Durable fleet-run journal (not owned; may be null for no durability).
  storage::StorageBackend* journal_backend = nullptr;
  std::string journal_name = "fleet.journal";
  /// Cooperative kill switch (not owned; may be null). When it reads true,
  /// zones that have not started are abandoned, in-flight zones finish, and
  /// run() returns early with FleetResult::aborted set — no end record is
  /// journaled, so a restart resumes the run. This is how a watchdog stops
  /// an orchestrator without inheriting a wedged wait_idle().
  const std::atomic<bool>* abort = nullptr;
};

/// One inventory: a planned population plus everything needed to run its
/// zones. The spec owns its tags and fault plans; the orchestrator keeps
/// the spec alive for the whole run.
/// Identification drill-down policy: after a zone's verdict comes back
/// kViolated, run a missing-tag identification campaign over that zone's
/// enrolled slice so the escalation names the stolen tags instead of just
/// flagging the zone. Runs as a deterministic sequential post-pass (RNG
/// derived from the fleet seed, independent of thread count and of whether
/// the zone was recovered from a journal).
struct IdentifyDrillConfig {
  bool enabled = false;
  protocol::IdentifyProtocolKind protocol =
      protocol::IdentifyProtocolKind::kFilterFirst;
  protocol::IdentifyConfig config;
};

struct InventorySpec {
  std::string name;  // stable across restarts (keys the journal)
  Protocol protocol = Protocol::kTrp;
  /// The enrolled population, in zone order: zone i covers the next
  /// plan.zones[i].tags tags (split_by_plan's slicing).
  tag::TagSet tags;
  server::GroupPlan plan;
  /// Global indices into `tags` that are physically absent (stolen).
  std::vector<std::uint64_t> stolen;
  double alpha = 0.95;
  math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox;
  /// UTRP only: Eq. (3) adversary communication budget and frame slack.
  std::uint64_t comm_budget = 100;
  std::uint32_t slack_slots = 8;
  std::uint64_t rounds = 1;  // monitoring rounds per zone session
  /// Execution knob (never affects results): zone servers compute expected
  /// bitstrings with the columnar bulk kernels. Off = scalar per-tag loops.
  bool bulk_mode = true;
  /// Session template. Observability hooks and the fault plan are
  /// overridden per zone; everything else (links, retry policy, timing,
  /// UTRP deadline) applies to every zone of this inventory.
  wire::SessionConfig session;
  /// Scheduling deadline (absolute, microseconds): earliest first. 0
  /// derives it from session.utrp_deadline_us (UTRP zones closest to
  /// Alg. 5 budget expiry run first); TRP zones default to "whenever".
  double deadline_us = 0.0;
  /// Sparse per-zone fault scripts, applied on attempt 0 (and on retries
  /// iff FleetConfig::faults_on_retries). A plain FaultPlan converts
  /// implicitly ("same script for every reader"); multi-reader scripts can
  /// address readers individually and correlate burst loss across them.
  std::vector<std::pair<std::uint64_t, fault::MultiReaderFaultPlan>>
      zone_faults;
  /// Reader redundancy: fusion.readers > 1 runs k concurrent sessions per
  /// zone against one precomputed challenge stream, fuses their bitstrings
  /// per slot, and takes the pigeonhole verdict on the fused evidence
  /// (TRP only — a UTRP scan advances tag counters, so k simultaneous
  /// scans of one zone are physically inconsistent).
  fusion::FusionConfig fusion;
  /// (zone, reader) pairs that behave adversarially: instead of scanning,
  /// the reader forges the expected bitstring of the full enrolled set —
  /// the split-attack reader of src/attack hiding a theft.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dishonest_readers;
  /// (zone, reader) pairs excluded from the run (e.g. quarantined by the
  /// daemon's per-reader health tier): no session, no vote. The zone still
  /// runs with its remaining readers and degrades below quorum.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> excluded_readers;
  /// Post-verdict identification drill-down for violated zones.
  IdentifyDrillConfig identify;
};

/// Per-reader outcome inside a fused zone (ZoneReport::readers, k > 1).
struct ReaderReport {
  std::uint32_t reader = 0;
  bool completed = false;  // last attempt finished every round
  wire::FailureReason last_failure = wire::FailureReason::kNone;
  std::uint32_t attempts = 0;
  bool excluded = false;  // never ran (quarantined at submit)
  bool suspect = false;   // persistently outvoted or phantom evidence
  double trust = 1.0;     // final fusion weight
  std::uint64_t votes_overruled = 0;
};

/// Outcome of the post-verdict identification drill-down on one violated
/// zone (ZoneReport::identification; `ran` false when the drill-down was
/// disabled or the zone was not violated).
struct ZoneIdentification {
  bool ran = false;
  std::string protocol;  // family member name ("iterative", "filter_first")
  std::vector<tag::TagId> missing;  // the named stolen tags
  std::uint64_t present = 0;        // tags proven present
  std::uint64_t unresolved = 0;     // round cap hit before classification
  std::uint64_t rounds = 0;
  std::uint64_t slots = 0;          // framed slots + tree queries
  std::uint64_t tree_queries = 0;
  std::uint64_t filter_bits = 0;
  double estimated_missing = 0.0;   // zero-estimator after the first frame
  double duration_us = 0.0;         // honest air time of the campaign
};

struct ZoneReport {
  std::uint64_t zone = 0;
  ZoneStatus status = ZoneStatus::kFailed;
  wire::FailureReason last_failure = wire::FailureReason::kNone;
  std::uint32_t attempts = 0;  // session attempts executed (>= 1 unless recovered)
  bool resynced = false;   // UTRP mirror rebuilt from audit before a retry
  bool recovered = false;  // reused from an interrupted run's journal
  // Round accounting from the final attempt; frame counters are summed
  // across attempts (total backhaul cost of the zone).
  std::uint64_t rounds_completed = 0;
  std::uint64_t intact_rounds = 0;
  std::uint64_t mismatched_rounds = 0;
  std::uint64_t deadline_missed_rounds = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmissions = 0;
  double duration_us = 0.0;  // simulated time of the final attempt
  // Fused zones (k > 1) only; all empty/zero for single-reader zones.
  std::vector<ReaderReport> readers;
  std::uint64_t degraded_rounds = 0;  // committed below quorum (no verdict)
  std::uint64_t fused_slots = 0;      // slots put through the majority vote
  std::uint64_t phantom_votes = 0;    // busy votes the fusion overruled
  std::uint64_t missed_votes = 0;     // empty votes the fusion overruled
  /// Post-verdict identification drill-down (violated zones only).
  ZoneIdentification identification;
};

struct InventoryReport {
  std::string name;
  Protocol protocol = Protocol::kTrp;
  GlobalVerdict verdict = GlobalVerdict::kInconclusive;
  std::vector<ZoneReport> zones;
  std::uint64_t tags = 0;
  std::uint64_t tolerance = 0;  // Sigma m_i == M
  double worst_zone_detection = 0.0;
  std::uint64_t wave = 0;  // admission wave it ran in
};

struct FleetAlert {
  AlertKind kind = AlertKind::kZoneEscalated;
  std::string inventory;
  std::uint64_t zone = 0;  // meaningful for kZoneEscalated
  std::string detail;
};

struct FleetResult {
  GlobalVerdict verdict = GlobalVerdict::kIntact;
  std::vector<InventoryReport> inventories;  // monitored, submission order
  std::vector<std::string> rejected;         // refused admission
  std::vector<FleetAlert> alerts;
  std::uint64_t zones = 0;            // zones monitored (recovered included)
  std::uint64_t attempts = 0;         // session attempts executed this run
  std::uint64_t requeues = 0;         // retryable failures put back on the pool
  std::uint64_t escalations = 0;      // zones that ended kFailed
  std::uint64_t resyncs = 0;          // UTRP mirrors re-audited before a retry
  std::uint64_t zones_recovered = 0;  // reused from the journal
  std::uint64_t degraded_zones = 0;   // fused zones committed below quorum
  std::uint64_t readers_suspected = 0;  // across all fused zones
  std::uint64_t zones_identified = 0;  // violated zones drilled down
  std::uint64_t tags_named = 0;        // stolen tags named by drill-downs
  std::uint64_t deferred_inventories = 0;
  std::uint64_t waves = 1;
  /// The abort switch fired (or a zone task threw): zones that never ran
  /// are reported kFailed/kCrashed, no end record was journaled, and the
  /// verdict is at best inconclusive. A restart resumes from the journal.
  bool aborted = false;
  // Diagnostics only — timing-dependent, excluded from summary().
  std::uint64_t tasks_stolen = 0;
  unsigned threads = 0;
};

/// Deterministic human-readable rendering of a result (verdict, per-
/// inventory lines, totals, alerts). Bit-identical across thread counts;
/// the timing-dependent diagnostics are deliberately left out.
[[nodiscard]] std::string summary(const FleetResult& result);

class FleetOrchestrator {
 public:
  explicit FleetOrchestrator(FleetConfig config);
  ~FleetOrchestrator();

  FleetOrchestrator(const FleetOrchestrator&) = delete;
  FleetOrchestrator& operator=(const FleetOrchestrator&) = delete;

  /// Admits an inventory (or defers/rejects it under saturation) and sizes
  /// its zones' frames; UTRP plans come from the process-wide Eq. (3) memo.
  /// Must not be called after run().
  Admission submit(InventorySpec spec);

  /// Executes every admitted zone and aggregates. Call once.
  [[nodiscard]] FleetResult run();

 private:
  struct ZoneState;
  struct Inventory;

  void run_zone_attempt(std::size_t inv, std::size_t zone,
                        std::uint32_t attempt);
  void run_zone_attempt_body(std::size_t inv, std::size_t zone,
                             std::uint32_t attempt);
  void finalize_zone(std::size_t inv, std::size_t zone, bool aborted);
  void run_reader_attempt(std::size_t inv, std::size_t zone,
                          std::uint32_t reader, std::uint32_t attempt);
  void run_reader_attempt_body(std::size_t inv, std::size_t zone,
                               std::uint32_t reader, std::uint32_t attempt);
  void finalize_fused_zone(std::size_t inv, std::size_t zone);
  void journal_zone(std::size_t inv, std::size_t zone);
  [[nodiscard]] tag::TagSet audit_set(const ZoneState& state) const;
  [[nodiscard]] bool should_abort() const noexcept;
  [[nodiscard]] std::uint64_t config_fingerprint() const;
  void record_observability(const FleetResult& result);

  FleetConfig config_;
  std::vector<std::unique_ptr<Inventory>> inventories_;
  std::vector<std::string> rejected_;
  std::vector<std::uint64_t> wave_zones_;  // zones admitted per wave
  std::uint64_t deferred_count_ = 0;
  bool ran_ = false;

  /// Set when a zone task throws (first exception wins; rethrown from
  /// run() after the pool stops) — the crash story a long-running daemon
  /// supervises, not a path normal monitoring ever takes.
  std::atomic<bool> task_failed_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  std::unique_ptr<class FleetScheduler> scheduler_;
  std::unique_ptr<storage::FleetJournal> journal_;
};

}  // namespace rfid::fleet
