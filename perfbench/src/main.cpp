// Service-level benchmark of record: one command that starts a
// MonitorService in-process, drives it over loopback from four tenant
// connections, checks every verdict, and prints every metric with its
// unit. The last line of standard output is the JSON result.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scratch DIR]
//   perfbench --self-test [--scratch DIR]
//   perfbench --list-metrics
//
// Exit status: 0 when the correctness gate passed, 1 when it failed, 2 on
// a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.h"
#include "gate.h"
#include "workloads.h"

namespace {

using namespace perfbench;

bool metrics_match(const Result& r, const std::vector<MetricDef>& defs) {
  if (r.metrics.size() != defs.size()) return false;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (r.metrics[i].name != defs[i].name || r.metrics[i].unit != defs[i].unit ||
        !std::isfinite(r.metrics[i].value)) {
      return false;
    }
  }
  return true;
}

/// The verdict checker must accept an honest theft verdict and reject a
/// doctored one that names a tag outside the stolen set, or that accuses
/// an intact request; the replay check must reject a replay that flags
/// another zone than the one the theft hit.
bool checker_rejects_doctored_verdicts() {
  const Workload w = reduced(find_workload("trp_large_zoned"));
  const std::vector<Tenant> tenants = make_tenants(w, 7);
  Request theft;
  Request intact;
  for (std::uint64_t k = 0; !theft.theft || intact.theft; ++k) {
    Request req = make_request(w, tenants, 7, 0, k);
    (req.theft ? theft : intact) = std::move(req);
  }
  const Inventory& inv = tenants[0].inventories[theft.inventory];
  rfid::service::RunVerdictMsg honest;
  honest.verdict = static_cast<std::uint8_t>(rfid::fleet::GlobalVerdict::kViolated);
  honest.zones = inv.plan.zones.size();
  honest.zones_violated = 1;
  honest.missing = {inv.enroll.tags[theft.stolen.front()]};
  honest.tags_named = 1;
  bool ok = !check_run_verdict(inv, theft, honest).has_value();

  std::uint64_t outside = 0;
  while (std::find(theft.stolen.begin(), theft.stolen.end(), outside) !=
         theft.stolen.end()) {
    ++outside;
  }
  rfid::service::RunVerdictMsg accuses = honest;
  accuses.missing.push_back(inv.enroll.tags[outside]);
  accuses.tags_named = accuses.missing.size();
  ok = ok && check_run_verdict(inv, theft, accuses).has_value();

  rfid::service::RunVerdictMsg false_alarm = honest;
  false_alarm.missing.clear();
  false_alarm.tags_named = 0;
  ok = ok && check_run_verdict(inv, intact, false_alarm).has_value();

  // A replay that flags another zone than the one the theft hit, with the
  // streamed verdict agreeing on everything the service reports.
  rfid::fleet::FleetResult replay;
  replay.verdict = rfid::fleet::GlobalVerdict::kViolated;
  replay.zones = inv.plan.zones.size();
  replay.attempts = replay.zones;
  replay.inventories.emplace_back();
  for (std::uint64_t z = 0; z < replay.zones; ++z) {
    rfid::fleet::ZoneReport zone;
    zone.zone = z;
    zone.status = z == theft.zone ? rfid::fleet::ZoneStatus::kViolated
                                  : rfid::fleet::ZoneStatus::kIntact;
    zone.attempts = 1;
    replay.inventories.front().zones.push_back(zone);
  }
  rfid::service::RunVerdictMsg streamed = honest;
  streamed.attempts = replay.attempts;
  streamed.missing.clear();
  streamed.tags_named = 0;
  ok = ok && !check_run_replay(inv, theft, streamed, replay).has_value();
  auto& zones = replay.inventories.front().zones;
  std::swap(zones[theft.zone].status,
            zones[(theft.zone + 1) % zones.size()].status);
  ok = ok && check_run_replay(inv, theft, streamed, replay).has_value();
  std::printf("self-test: verdict checker %s doctored verdicts\n",
              ok ? "rejects" : "DOES NOT reject");
  return ok;
}

int self_test(const std::string& scratch) {
  bool ok = checker_rejects_doctored_verdicts();
  for (const Workload& full : all_workloads()) {
    const Workload w = reduced(full);
    Options options;
    options.seconds = 1.0;
    options.scratch_dir = scratch;
    const Result plain = run_benchmark(w, options);
    const Result again = run_benchmark(w, options);
    options.trace = true;
    const Result traced = run_benchmark(w, options);
    const bool gate = plain.correct && again.correct && traced.correct;
    const bool named = metrics_match(plain, end_to_end_metrics()) &&
                       metrics_match(traced, per_layer_metrics());
    const bool exact = exact_json(plain) == exact_json(again) &&
                       exact_json(plain) == exact_json(traced);
    std::printf("self-test %s: gate %s, metrics %s, exact rows %s\n",
                w.name.c_str(), gate ? "pass" : "FAIL",
                named ? "complete" : "INCOMPLETE",
                exact ? "repeat" : "DRIFT");
    ok = ok && gate && named && exact;
  }
  std::printf("self-test: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scratch DIR]\n"
               "       perfbench --self-test | --list-metrics\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options options;
  options.scratch_dir = ".bench_build/perfbench-scratch";
  bool run_self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--scratch") {
        options.scratch_dir = value();
      } else if (arg == "--self-test") {
        run_self_test = true;
      } else if (arg == "--list-metrics") {
        for (const MetricDef& def : end_to_end_metrics()) {
          std::printf("end_to_end %s %s\n", def.name, def.unit);
        }
        for (const MetricDef& def : per_layer_metrics()) {
          std::printf("per_layer %s %s\n", def.name, def.unit);
        }
        for (const Workload& w : all_workloads()) {
          std::printf("workload %s\n", w.name.c_str());
        }
        return 0;
      } else {
        usage("unknown argument " + arg);
      }
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (run_self_test) return self_test(options.scratch_dir);
  if (workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  Workload w;
  try {
    w = find_workload(workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const Result result = run_benchmark(w, options);
  std::printf("exact_counts %s\n", exact_json(result).c_str());
  std::printf("%s\n", result_json(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
