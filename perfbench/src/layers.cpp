#include "layers.h"

#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "daemon/daemon.h"
#include "fleet/fleet.h"
#include "gate.h"
#include "math/frame_optimizer.h"
#include "protocol/identification.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "server/group_planner.h"
#include "sim/event_queue.h"
#include "stats.h"
#include "storage/backend.h"
#include "tag/columnar.h"
#include "util/random.h"
#include "wire/session.h"

namespace perfbench {

using namespace rfid;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kCommBudget = 100;  // Eq. 3 c, the fleet default
constexpr std::uint32_t kSlack = 8;
constexpr int kSizingReps = 15;
constexpr int kEq3Reps = 3;
constexpr int kAppendReps = 200;
constexpr std::uint64_t kProbeEpochs = 3;
constexpr int kFleetProbes = 4;

daemon::WarehouseConfig warehouse_of(const Workload& w, const Inventory& inv) {
  daemon::WarehouseConfig wh;
  wh.protocol = w.protocol;
  wh.initial_tags = inv.enroll.tags.size();
  wh.tolerance = inv.enroll.tolerance;
  wh.zone_capacity = inv.enroll.zone_capacity;
  wh.alpha = inv.enroll.alpha;
  wh.rounds = inv.enroll.rounds;
  return wh;
}

/// Bytes in the regular files directly under `dir`.
std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

double LayerSamples::median_of(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : median(it->second);
}

struct Replayer::FleetTiming {
  fleet::FleetResult result;
  double total_us = 0.0;
};

Replayer::Replayer(const Workload& w, const std::vector<Tenant>& tenants,
                   std::uint64_t seed, std::string scratch_dir, SpanLog* spans)
    : w_(w),
      tenants_(tenants),
      seed_(seed),
      scratch_(std::move(scratch_dir)),
      spans_(spans) {}

std::int64_t Replayer::span(const std::string& name, std::uint64_t trace_id,
                            std::int64_t parent, double start, double end) {
  return spans_ == nullptr ? -1 : spans_->add(name, trace_id, parent, start, end);
}

void Replayer::replay(const Completed& c) {
  const Request& req = c.request;
  const Tenant& tenant = tenants_[static_cast<std::size_t>(req.tenant)];
  const Inventory& inv = tenant.inventories[req.inventory];
  const std::int64_t root = spans_ == nullptr ? -1 : spans_->root_of(c.run_id);
  const double t0 = now_us();
  const std::int64_t replay = span("replay", c.run_id, root, t0, t0);

  double layer_us = 0.0;  // the request's work, replayed outside the service
  if (w_.watch) {
    // The service runs watches on a MemoryBackend; that replay gives the
    // service's self time. The FileBackend replay gives the durable path.
    storage::MemoryBackend memory;
    layer_us = run_watch(c, inv, replay, memory, "daemon.run").us;
    const std::string dir =
        scratch_ + "/watch-" + tenant.name + "-" + std::to_string(req.index);
    fs::remove_all(dir);
    {
      storage::FileBackend file(dir);
      const WatchTiming durable =
          run_watch(c, inv, replay, file, "daemon.run_file");
      samples_.add("daemon.epoch_ms", durable.us / 1000.0 /
                                          static_cast<double>(req.watch.epochs));
      exact_.journal_epochs += durable.epochs;
    }
    exact_.journal_bytes += directory_bytes(dir);
    fs::remove_all(dir);
  } else {
    FleetTiming fleet = run_fleet(inv, req.stolen, req.theft, req.run.seed,
                                  tenant.name, c.run_id, replay);
    layer_us = fleet.total_us;
    if (auto bad = check_run_replay(inv, req, c.verdict, fleet.result)) {
      failures_.push_back(*bad);
    }
  }
  samples_.add("service.self_ms", c.latency_ms() - layer_us / 1000.0);
  probe_zone(c, inv, replay);
  if (spans_ != nullptr) {
    spans_->set_end(replay, now_us());
  }
}

Replayer::FleetTiming Replayer::run_fleet(
    const Inventory& inv, const std::vector<std::uint64_t>& stolen,
    bool identify, std::uint64_t seed, const std::string& fleet_name,
    std::uint64_t trace_id, std::int64_t parent) {
  const double t0 = now_us();
  // The spec the service builds for this request, population copy included.
  fleet::InventorySpec spec;
  spec.name = inv.enroll.inventory;
  spec.protocol = w_.protocol;
  spec.tags = inv.population;
  spec.plan = inv.plan;
  spec.stolen = stolen;
  spec.alpha = inv.enroll.alpha;
  spec.rounds = inv.enroll.rounds;
  spec.identify.enabled = identify;
  const double t1 = now_us();
  fleet::FleetConfig config;
  config.seed = seed;
  config.threads = 1;
  config.fleet_name = fleet_name;
  auto orchestrator = std::make_unique<fleet::FleetOrchestrator>(config);
  const double t2 = now_us();
  (void)orchestrator->submit(std::move(spec));
  const double t3 = now_us();
  FleetTiming out;
  out.result = orchestrator->run();
  const double t4 = now_us();
  orchestrator.reset();
  const double t5 = now_us();
  out.total_us = t5 - t0;

  const std::int64_t fleet_span = span("fleet", trace_id, parent, t0, t5);
  span("fleet.spec_build", trace_id, fleet_span, t0, t1);
  span("fleet.construct", trace_id, fleet_span, t1, t2);
  span("fleet.submit", trace_id, fleet_span, t2, t3);
  span("fleet.run", trace_id, fleet_span, t3, t4);
  span("fleet.destruct", trace_id, fleet_span, t4, t5);
  samples_.add("fleet.spec_build_us", t1 - t0);
  samples_.add("fleet.construct_us", (t2 - t1) + (t5 - t4));
  samples_.add("fleet.submit_ms", (t3 - t2) / 1000.0);
  samples_.add("fleet.run_ms", (t4 - t3) / 1000.0);

  ++exact_.fleet_runs;
  for (const fleet::InventoryReport& report : out.result.inventories) {
    for (const fleet::ZoneReport& zone : report.zones) {
      ++exact_.zones;
      exact_.zone_attempts += zone.attempts;
      exact_.zone_frames += zone.frames_sent;
      exact_.air_us += zone.duration_us;
    }
  }
  return out;
}

void Replayer::probe_zone(const Completed& c, const Inventory& inv,
                          std::int64_t parent) {
  const Request& req = c.request;
  const std::uint64_t z = req.zone;
  const server::ZonePlan& zone = inv.plan.zones[z];
  const std::uint64_t first = inv.zone_first[z];
  const std::span<const tag::Tag> slice =
      inv.population.tags().subspan(first, zone.tags);
  const std::uint64_t seed = w_.watch ? req.watch.seed : req.run.seed;
  const hash::SlotHasher hasher{};

  double t0 = now_us();
  const tag::ColumnarTagSet columnar = tag::ColumnarTagSet::from_tags(slice);
  double t1 = now_us();
  span("tag.columnar_build", c.run_id, parent, t0, t1);
  samples_.add("tag.columnar_build_us", t1 - t0);

  t0 = now_us();
  const bits::Bitstring expected = tag::bulk_trp_frame(
      hasher, columnar.slot_words(), util::derive_seed(seed, z),
      zone.frame_size);
  t1 = now_us();
  span("tag.expected_bitstring", c.run_id, parent, t0, t1);
  samples_.add("tag.expected_bitstring_us", t1 - t0);
  if (expected.size() != zone.frame_size) {
    failures_.push_back("expected bitstring has the wrong frame size");
  }

  std::set<std::uint64_t> stolen(req.stolen.begin(), req.stolen.end());
  std::vector<tag::Tag> present;
  for (std::uint64_t j = 0; j < slice.size(); ++j) {
    if (stolen.count(first + j) == 0) present.push_back(slice[j]);
  }

  const protocol::MonitoringPolicy policy{zone.tolerance, inv.enroll.alpha,
                                          math::EmptySlotModel::kPoissonApprox};
  util::Rng rng(util::derive_seed(seed, z, 0x5e55));
  sim::EventQueue queue;
  const wire::SessionConfig session;
  wire::SessionOutcome outcome;
  if (w_.protocol == fleet::Protocol::kTrp) {
    const protocol::TrpServer server(columnar, policy);
    t0 = now_us();
    outcome = wire::run_trp_session(queue, server, present, 1, session, rng);
    t1 = now_us();
  } else {
    const math::UtrpPlan plan = math::optimize_utrp_frame(
        zone.tags, zone.tolerance, inv.enroll.alpha, kCommBudget, kSlack);
    protocol::UtrpServer server(tag::TagSet({slice.begin(), slice.end()}),
                                policy, kCommBudget, plan);
    t0 = now_us();
    outcome = wire::run_utrp_session(queue, server, present, 1, session, rng);
    t1 = now_us();
  }
  span("wire.session", c.run_id, parent, t0, t1);
  samples_.add("wire.session_ms", (t1 - t0) / 1000.0);
  if (!outcome.completed) {
    failures_.push_back("wire session did not complete on a lossless link");
  }

  if (!req.theft) return;
  const auto identifier = protocol::make_identification_protocol(
      protocol::IdentifyProtocolKind::kFilterFirst, protocol::IdentifyConfig{});
  util::Rng id_rng(util::derive_seed(seed, z, 0x1d));
  t0 = now_us();
  const protocol::IdentifyResult result =
      identifier->identify(columnar.ids(), present, hasher, id_rng);
  t1 = now_us();
  span("protocol.identify", c.run_id, parent, t0, t1);
  samples_.add("protocol.identify_ms", (t1 - t0) / 1000.0);
  ++exact_.campaigns;
  exact_.identify_slots += result.total_slots;
  if (result.missing.size() + result.unresolved.size() < stolen.size()) {
    failures_.push_back("identification cleared a stolen tag");
  }
}

Replayer::WatchTiming Replayer::run_watch(const Completed& c,
                                          const Inventory& inv,
                                          std::int64_t parent,
                                          storage::StorageBackend& backend,
                                          const char* span_name) {
  const Request& req = c.request;
  const std::string& tenant = tenants_[static_cast<std::size_t>(req.tenant)].name;

  // The watch the service runs for this request.
  daemon::DaemonConfig config;
  config.seed = req.watch.seed;
  config.name = tenant + "/" + req.watch.inventory;
  config.epochs = req.watch.epochs;
  config.threads = 1;
  config.backend = &backend;
  daemon::WarehouseConfig wh = warehouse_of(w_, inv);
  wh.identify.enabled = req.watch.identify;
  if (req.watch.steal > 0) {
    wh.churn.push_back(daemon::ChurnEvent{.epoch = req.watch.steal_epoch,
                                          .enroll = 0,
                                          .decommission = 0,
                                          .steal = req.watch.steal,
                                          .steal_from = req.watch.steal_from});
  }
  const double t0 = now_us();
  daemon::MonitorDaemon watch(config, wh);
  const daemon::DaemonResult result = watch.run();
  const double t1 = now_us();
  span(span_name, c.run_id, parent, t0, t1);

  // The daemon's population, in enrolled order, names the stolen tags.
  std::vector<tag::TagId> population;
  const server::InventoryServer& registry = watch.registry();
  for (std::size_t g = 0; g < registry.group_count(); ++g) {
    const tag::TagSet group = registry.group_tags(server::GroupId{g});
    for (const tag::Tag& t : group.tags()) population.push_back(t.id());
  }
  std::vector<tag::TagId> stolen_ids;
  for (const std::uint64_t idx : req.stolen) {
    if (idx < population.size()) stolen_ids.push_back(population[idx]);
  }
  std::sort(stolen_ids.begin(), stolen_ids.end());
  if (auto bad = check_watch_replay(req, c.watch, result, stolen_ids)) {
    failures_.push_back(*bad);
  }
  return {t1 - t0, result.epochs_completed};
}

void Replayer::probe_shared_layers() {
  const Inventory& inv = tenants_.front().inventories.front();
  const server::PlannerInput input = planner_input(inv.enroll);
  for (int i = 0; i < kSizingReps; ++i) {
    const double t0 = now_us();
    const server::GroupPlan plan = server::plan_groups(input);
    const double t1 = now_us();
    span("server.plan_groups", 0, -1, t0, t1);
    samples_.add("server.plan_groups_us", t1 - t0);
    if (plan.total_slots != inv.plan.total_slots) {
      failures_.push_back("plan_groups is not deterministic");
    }
  }

  std::set<std::pair<std::uint64_t, std::uint64_t>> shapes;
  for (const server::ZonePlan& zone : inv.plan.zones) {
    shapes.emplace(zone.tags, zone.tolerance);
  }
  for (const auto& [n, m] : shapes) {
    for (int i = 0; i < kSizingReps; ++i) {
      const double t0 = now_us();
      const math::TrpPlan plan = math::optimize_trp_frame(n, m, inv.enroll.alpha);
      const double t1 = now_us();
      span("math.eq2", 0, -1, t0, t1);
      samples_.add("math.eq2_us", t1 - t0);
      (void)plan;
    }
    for (int i = 0; i < kEq3Reps; ++i) {
      const double t0 = now_us();
      const math::UtrpPlan plan = math::optimize_utrp_frame(
          n, m, inv.enroll.alpha, kCommBudget, kSlack);
      const double t1 = now_us();
      span("math.eq3", 0, -1, t0, t1);
      samples_.add("math.eq3_ms", (t1 - t0) / 1000.0);
      (void)plan;
    }
  }

  if (w_.watch) {
    // A watch's orchestrators run inside the daemon, out of reach of
    // timing from outside, so the fleet rows come from intact runs of the
    // workload's first inventory, as a pre-theft epoch would execute them.
    for (int i = 0; i < kFleetProbes; ++i) {
      (void)run_fleet(inv, {}, false,
                      util::derive_seed(seed_, 0xf1ee, static_cast<std::uint64_t>(i)),
                      tenants_.front().name, 0, -1);
    }
  } else {
    // A short durable watch over the workload's first inventory shape.
    const std::string dir = scratch_ + "/probe-watch";
    fs::remove_all(dir);
    storage::FileBackend backend(dir);
    daemon::DaemonConfig config;
    config.seed = util::derive_seed(seed_, 0xdae);
    config.name = tenants_.front().name + "/" + inv.enroll.inventory;
    config.epochs = kProbeEpochs;
    config.threads = 1;
    config.backend = &backend;
    const double t0 = now_us();
    daemon::MonitorDaemon watch(config, warehouse_of(w_, inv));
    const daemon::DaemonResult result = watch.run();
    const double t1 = now_us();
    span("daemon.run", 0, -1, t0, t1);
    samples_.add("daemon.epoch_ms",
                 (t1 - t0) / 1000.0 / static_cast<double>(kProbeEpochs));
    if (result.epochs_completed != kProbeEpochs || !result.alerts.empty()) {
      failures_.push_back("probe watch did not run clean");
    }
    exact_.journal_epochs += result.epochs_completed;
    exact_.journal_bytes += directory_bytes(dir);
    fs::remove_all(dir);
  }

  // One checkpoint-sized record per append, as a watch writes per epoch.
  const std::size_t record =
      exact_.journal_epochs == 0
          ? 256
          : static_cast<std::size_t>(exact_.journal_bytes / exact_.journal_epochs);
  const std::string dir = scratch_ + "/append";
  fs::remove_all(dir);
  {
    storage::FileBackend backend(dir);
    const std::string bytes(record, 'x');
    for (int i = 0; i < kAppendReps; ++i) {
      const double t0 = now_us();
      backend.append("journal", bytes);
      const double t1 = now_us();
      samples_.add("storage.append_us", t1 - t0);
    }
  }
  fs::remove_all(dir);
}

}  // namespace perfbench
