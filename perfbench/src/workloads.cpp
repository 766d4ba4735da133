#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "util/random.h"

namespace perfbench {

using namespace rfid;

namespace {

// Salts keep the input streams independent of one another.
constexpr std::uint64_t kTagSalt = 0x7461677331ULL;
constexpr std::uint64_t kRequestSalt = 0x7265717331ULL;

}  // namespace

std::vector<Workload> all_workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "trp_small";
    w.inventories = 8;
    w.tags = 64;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "utrp_repeat";
    w.protocol = fleet::Protocol::kUtrp;
    w.inventories = 2;
    w.tags = 200;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "trp_large_zoned";
    w.inventories = 1;
    w.tags = 100000;
    w.tolerance = 20;
    w.zone_capacity = 10000;
    w.max_frame_bytes = 4u << 20;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "watch_journal";
    w.watch = true;
    w.inventories = 1;
    w.tags = 256;
    w.theft_period = 2;
    w.replay_per_conn = 4;
    out.push_back(w);
  }
  return out;
}

Workload find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Workload reduced(Workload w) {
  if (w.zone_capacity > 0) {
    w.tags /= 10;
    w.zone_capacity /= 10;
  }
  w.watch_epochs = std::min<std::uint64_t>(w.watch_epochs, 6);
  w.steal_epoch = std::min<std::uint64_t>(w.steal_epoch, 3);
  w.replay_per_conn = std::min<std::uint64_t>(w.replay_per_conn, 8);
  return w;
}

server::PlannerInput planner_input(const service::EnrollRequest& enroll) {
  return {.total_tags = enroll.tags.size(),
          .total_tolerance = enroll.tolerance,
          .alpha = enroll.alpha,
          .max_group_size = enroll.zone_capacity,
          .model = math::EmptySlotModel::kPoissonApprox};
}

std::vector<Tenant> make_tenants(const Workload& w, std::uint64_t seed) {
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tenant = tenants[static_cast<std::size_t>(t)];
    tenant.name = "tenant-" + std::to_string(t);
    for (std::uint64_t i = 0; i < w.inventories; ++i) {
      Inventory inv;
      inv.enroll.inventory = "inv-" + std::to_string(i);
      inv.enroll.protocol = static_cast<std::uint8_t>(w.protocol);
      inv.enroll.tolerance = w.tolerance;
      inv.enroll.alpha = kAlpha;
      inv.enroll.zone_capacity = w.zone_capacity;
      inv.enroll.rounds = 1;
      util::Rng rng(util::derive_seed(
          util::derive_seed(seed, static_cast<std::uint64_t>(t), i), kTagSalt));
      inv.enroll.tags.reserve(w.tags);
      std::vector<tag::Tag> population;
      population.reserve(w.tags);
      for (std::uint64_t k = 0; k < w.tags; ++k) {
        const tag::TagId id(static_cast<std::uint32_t>(rng() >> 32), rng());
        inv.enroll.tags.push_back(id);
        population.emplace_back(id);
      }
      inv.population = tag::TagSet(std::move(population));
      inv.plan = server::plan_groups(planner_input(inv.enroll));
      std::uint64_t first = 0;
      for (const server::ZonePlan& zone : inv.plan.zones) {
        inv.zone_first.push_back(first);
        first += zone.tags;
      }
      tenant.inventories.push_back(std::move(inv));
    }
  }
  return tenants;
}

Request make_request(const Workload& w, const std::vector<Tenant>& tenants,
                     std::uint64_t seed, int tenant, std::uint64_t index) {
  util::Rng rng(util::derive_seed(
      util::derive_seed(seed, static_cast<std::uint64_t>(tenant), index),
      kRequestSalt));
  Request req;
  req.tenant = tenant;
  req.index = index;
  req.inventory = static_cast<std::size_t>(rng.below(w.inventories));
  req.theft = (index + static_cast<std::uint64_t>(tenant)) % w.theft_period ==
              w.theft_period - 1;
  const Inventory& inv =
      tenants[static_cast<std::size_t>(tenant)].inventories[req.inventory];
  const std::uint64_t run_seed = rng() | 1u;

  if (w.watch) {
    req.watch.inventory = inv.enroll.inventory;
    req.watch.seed = run_seed;
    req.watch.epochs = w.watch_epochs;
    req.watch.identify = req.theft;
    if (req.theft) {
      req.watch.steal_epoch = w.steal_epoch;
      req.watch.steal = w.tolerance + 1;
      req.watch.steal_from = rng.below(w.tags - req.watch.steal + 1);
      for (std::uint64_t i = 0; i < req.watch.steal; ++i) {
        req.stolen.push_back(req.watch.steal_from + i);
      }
      // The zone that holds the start of the steal range.
      while (req.zone + 1 < inv.zone_first.size() &&
             inv.zone_first[req.zone + 1] <= req.watch.steal_from) {
        ++req.zone;
      }
    }
    return req;
  }

  req.run.inventory = inv.enroll.inventory;
  req.run.seed = run_seed;
  req.run.identify = req.theft;
  if (req.theft) {
    // Steal one more than the zone tolerates, all inside one zone.
    req.zone = rng.below(inv.plan.zones.size());
    const server::ZonePlan& zone = inv.plan.zones[req.zone];
    const std::uint64_t first = inv.zone_first[req.zone];
    while (req.stolen.size() < zone.tolerance + 1) {
      const std::uint64_t idx = first + rng.below(zone.tags);
      if (std::find(req.stolen.begin(), req.stolen.end(), idx) ==
          req.stolen.end()) {
        req.stolen.push_back(idx);
      }
    }
    std::sort(req.stolen.begin(), req.stolen.end());
    req.run.stolen = req.stolen;
  }
  return req;
}

}  // namespace perfbench
