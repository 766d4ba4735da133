#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "fleet/fleet.h"
#include "gate.h"
#include "layers.h"
#include "load.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

using namespace rfid;
namespace fs = std::filesystem;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"runs_per_s", "1/s"},
      {"run_p50_ms", "ms"},       {"run_p90_ms", "ms"},
      {"cpu_ms_per_run", "ms"},   {"peak_rss_mib", "MiB"},
      {"ok_frac", "ratio"},       {"theft_detect_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"service.admit_ms_p50", "ms"},
      {"service.self_ms_p50", "ms"},
      {"service.deferred_frac", "ratio"},
      {"service.frames_per_run", "count"},
      {"service.frame_errors", "count"},
      {"server.plan_groups_us", "us"},
      {"server.planned_slots", "count"},
      {"math.eq2_us", "us"},
      {"math.eq3_ms", "ms"},
      {"fleet.spec_build_us", "us"},
      {"fleet.construct_us", "us"},
      {"fleet.submit_ms", "ms"},
      {"fleet.run_ms", "ms"},
      {"fleet.attempts_per_zone", "ratio"},
      {"fleet.frames_per_zone", "count"},
      {"fleet.air_ms_per_run", "ms"},
      {"wire.session_ms", "ms"},
      {"tag.columnar_build_us", "us"},
      {"tag.expected_bitstring_us", "us"},
      {"protocol.identify_ms", "ms"},
      {"protocol.identify_slots", "count"},
      {"daemon.epoch_ms", "ms"},
      {"storage.append_us", "us"},
      {"storage.journal_bytes_per_epoch", "B"},
  };
  return defs;
}

namespace {

constexpr int kSegments = 4;
// Set-ups are taken in bursts before, between and after the segments, so
// that a moment of load from outside the process moves one burst and not
// the median; a pause between the set-ups of a burst spreads it further.
constexpr int kSetupsPerBurst = 5;
constexpr auto kSetupPause = std::chrono::milliseconds(20);

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string unit_of(const std::vector<MetricDef>& defs,
                    const std::string& name) {
  for (const MetricDef& def : defs) {
    if (name == def.name) return def.unit;
  }
  return "";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Latency quantile with the sample count beyond it, as printed.
void print_latency(const char* label, const std::vector<double>& ms, double q) {
  const auto beyond = static_cast<std::uint64_t>(
      static_cast<double>(ms.size()) * (1.0 - q));
  std::printf("  %-10s %10.4f ms  (n=%zu, %llu beyond)\n", label,
              quantile(ms, q), ms.size(),
              static_cast<unsigned long long>(beyond));
}

struct PhaseSummary {
  double runs_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double cpu_ms_per_run = 0.0;
};

/// Medians over the phase's full windows; the whole phase when it is
/// shorter than one window.
PhaseSummary summarize(const Phase& phase, const char* label) {
  const std::vector<double> latencies = phase.all_latencies_ms();
  PhaseSummary s;
  const auto done = static_cast<double>(phase.completed);
  s.runs_per_s = ratio(done, phase.wall_s);
  s.p50_ms = quantile(latencies, 0.50);
  s.p90_ms = quantile(latencies, 0.90);
  s.cpu_ms_per_run = ratio(phase.cpu_s * 1000.0, done);
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> cpus;
  for (std::size_t i = 0; i < phase.window_cpu_s.size(); ++i) {
    const std::vector<double>& window = phase.window_ms[i];
    const auto n = static_cast<double>(window.size());
    rates.push_back(n / kWindowS);
    cpus.push_back(ratio(phase.window_cpu_s[i] * 1000.0, n));
    if (!window.empty()) {
      p50s.push_back(quantile(window, 0.50));
      p90s.push_back(quantile(window, 0.90));
    }
  }
  std::printf("%s phase: %llu completed of %llu attempted in %.3f s, "
              "%.1f runs/s, cpu %.4f ms/run overall\n",
              label, static_cast<unsigned long long>(phase.completed),
              static_cast<unsigned long long>(phase.attempted), phase.wall_s,
              s.runs_per_s, s.cpu_ms_per_run);
  print_latency("p50", latencies, 0.50);
  print_latency("p90", latencies, 0.90);
  print_latency("p99", latencies, 0.99);
  if (!p50s.empty()) {
    s.runs_per_s = median(rates);
    s.p50_ms = median(p50s);
    s.p90_ms = median(p90s);
    s.cpu_ms_per_run = median(cpus);
    std::printf("  per %.0f s window (median of %zu): %.1f runs/s, p50 %.4f ms, "
                "p90 %.4f ms, cpu %.4f ms/run\n  completions by window:",
                kWindowS, rates.size(), s.runs_per_s, s.p50_ms, s.p90_ms,
                s.cpu_ms_per_run);
    for (const std::vector<double>& window : phase.window_ms) {
      std::printf(" %zu", window.size());
    }
    std::printf("\n");
  }
  return s;
}

/// Checks every EnrollOk against plan_groups on the same inputs; returns
/// Σ total_slots.
std::uint64_t check_enrolled(const Deployment& d,
                             const std::vector<Tenant>& tenants,
                             std::vector<std::string>& failures) {
  std::uint64_t planned_slots = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (std::size_t i = 0; i < tenants[t].inventories.size(); ++i) {
      const service::EnrollOk& ok = d.enrolled[t][i];
      const Inventory& inv = tenants[t].inventories[i];
      planned_slots += ok.total_slots;
      if (ok.total_slots != inv.plan.total_slots ||
          ok.zones != inv.plan.zones.size() ||
          ok.tags != inv.enroll.tags.size()) {
        failures.push_back("enroll of " + tenants[t].name + "/" +
                           inv.enroll.inventory + " disagrees with plan_groups");
      }
    }
  }
  return planned_slots;
}

void print_overhead(const PhaseSummary& traced, const PhaseSummary& plain) {
  auto row = [](const char* name, double t, double u) {
    std::printf("  %-16s traced %12.4f  untraced %12.4f  (%+.2f%%)\n", name,
                t, u, u != 0.0 ? (t - u) / u * 100.0 : 0.0);
  };
  std::printf("tracing overhead (traced half against untraced half):\n");
  row("runs_per_s", traced.runs_per_s, plain.runs_per_s);
  row("run_p50_ms", traced.p50_ms, plain.p50_ms);
  row("run_p90_ms", traced.p90_ms, plain.p90_ms);
  row("cpu_ms_per_run", traced.cpu_ms_per_run, plain.cpu_ms_per_run);
}

}  // namespace

Result run_benchmark(const Workload& w, const Options& options) {
  Result result;
  auto fail = [&](std::string what) { result.failures.push_back(std::move(what)); };
  const std::vector<Tenant> tenants = make_tenants(w, options.seed);
  fs::create_directories(options.scratch_dir);

  std::printf("workload %s, seed %llu, %.3g s, trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  // Every deployment the run makes is a set-up sample: those of the
  // set-up bursts, stopped straight away, and one per timed segment.
  std::vector<double> setup_s;
  std::uint64_t frame_errors = 0;
  auto deploy_timed = [&] {
    const double t0 = now_us();
    std::unique_ptr<Deployment> d = deploy(w, tenants);
    setup_s.push_back((now_us() - t0) / 1e6);
    return d;
  };
  auto stop = [&](std::unique_ptr<Deployment> d) {
    frame_errors += d->stop().frame_errors;
    d.reset();
    // Hand the freed heap back to the system, so that peak_rss_mib is one
    // deployment's footprint, as in a process of its own, and not whatever
    // the allocator kept from earlier ones.
    malloc_trim(0);
  };
  std::uint64_t planned_slots = 0;
  auto setup_burst = [&] {
    for (int i = 0; i < kSetupsPerBurst; ++i) {
      std::this_thread::sleep_for(kSetupPause);
      std::unique_ptr<Deployment> d = deploy_timed();
      if (setup_s.size() == 1) {
        planned_slots = check_enrolled(*d, tenants, result.failures);
      }
      stop(std::move(d));
    }
  };
  setup_burst();

  // Untraced, the timed phase runs as kSegments segments, each on a fresh
  // deployment: the thread placement a service draws at start holds for
  // its lifetime and moves throughput by 10 % or more, so a run samples it
  // several times. The traced run uses one deployment, split into a traced
  // half and an untraced half; their difference is the tracing overhead.
  std::array<std::uint64_t, kTenants> next_index{};
  SpanLog spans;
  Phase timed;
  Phase second;
  double rss_mib = 0.0;
  PhaseSummary summary;
  if (!options.trace) {
    for (int i = 0; i < kSegments; ++i) {
      std::unique_ptr<Deployment> d = deploy_timed();
      timed.append(drive(*d, w, tenants, options.seed,
                         options.seconds / kSegments, w.replay_per_conn,
                         next_index, nullptr));
      stop(std::move(d));
      setup_burst();
    }
    rss_mib = peak_rss_mib();
    summary = summarize(timed, "timed");
  } else {
    std::unique_ptr<Deployment> d = deploy_timed();
    timed = drive(*d, w, tenants, options.seed, options.seconds / 2.0,
                  w.replay_per_conn, next_index, &spans);
    second = drive(*d, w, tenants, options.seed, options.seconds / 2.0, 0,
                   next_index, nullptr);
    stop(std::move(d));
    summary = summarize(timed, "traced");
    print_overhead(summary, summarize(second, "untraced"));
  }
  std::printf("setup: median %.6f s over %zu set-ups\n", median(setup_s),
              setup_s.size());
  // Both halves of a traced run count toward the gate; the replay sample
  // and the per-layer figures come from the traced half.
  Phase whole = timed;
  whole.append(std::move(second));

  // ---- correctness gate ----
  for (const std::string& e : whole.errors) fail(e);
  for (const std::string& v : whole.violations) fail(v);
  if (whole.failed != 0) fail(std::to_string(whole.failed) + " requests failed");
  if (whole.violation_count != 0) {
    fail(std::to_string(whole.violation_count) + " verdicts failed the checks");
  }
  if (frame_errors != 0) {
    fail(std::to_string(frame_errors) + " service frame errors");
  }
  const std::uint64_t thefts = whole.thefts;
  const std::uint64_t detected = whole.detected;
  const double detect_frac = ratio(static_cast<double>(detected),
                                   static_cast<double>(thefts));
  const double floor = detection_floor(kAlpha, thefts);
  std::printf("thefts: %llu of %llu detected (%.4f; floor %.4f = alpha %.2f "
              "minus 4 binomial sd)\n",
              static_cast<unsigned long long>(detected),
              static_cast<unsigned long long>(thefts), detect_frac, floor,
              kAlpha);
  if (thefts == 0 || detect_frac < floor) {
    fail("theft detection below the alpha guarantee");
  }

  // ---- replay of the fixed sample: the first requests of every
  // connection, independent of how far the timed phase got ----
  std::vector<Completed>& sample = timed.sample;
  std::sort(sample.begin(), sample.end(), [](const auto& a, const auto& b) {
    return std::tie(a.request.tenant, a.request.index) <
           std::tie(b.request.tenant, b.request.index);
  });
  if (sample.size() != kTenants * w.replay_per_conn) {
    fail("replay sample incomplete");
  }
  Replayer replayer(w, tenants, options.seed, options.scratch_dir + "/replay",
                    options.trace ? &spans : nullptr);
  for (const Completed& c : sample) replayer.replay(c);
  replayer.probe_shared_layers();
  for (const std::string& f : replayer.failures()) fail(f);

  // ---- exact-count rows ----
  const ExactCounts& exact = replayer.exact();
  const std::map<std::string, double> exact_rows = {
      {"server.planned_slots", static_cast<double>(planned_slots)},
      {"fleet.air_ms_per_run",
       ratio(exact.air_us, static_cast<double>(exact.fleet_runs)) / 1000.0},
      {"protocol.identify_slots",
       ratio(static_cast<double>(exact.identify_slots),
             static_cast<double>(exact.campaigns))},
      {"service.frames_per_run",
       ratio(static_cast<double>(whole.frames),
             static_cast<double>(whole.attempted))},
      {"storage.journal_bytes_per_epoch",
       ratio(static_cast<double>(exact.journal_bytes),
             static_cast<double>(exact.journal_epochs))},
  };
  for (const auto& [name, value] : exact_rows) {
    result.exact.push_back({name, unit_of(per_layer_metrics(), name), value});
  }

  // ---- metrics ----
  const LayerSamples& s = replayer.samples();
  if (!options.trace) {
    const std::map<std::string, double> values = {
        {"setup_s", median(setup_s)},
        {"runs_per_s", summary.runs_per_s},
        {"run_p50_ms", summary.p50_ms},
        {"run_p90_ms", summary.p90_ms},
        {"cpu_ms_per_run", summary.cpu_ms_per_run},
        {"peak_rss_mib", rss_mib},
        {"ok_frac", 1.0 - ratio(static_cast<double>(whole.failed),
                                static_cast<double>(whole.attempted))},
        {"theft_detect_frac", detect_frac},
    };
    for (const MetricDef& def : end_to_end_metrics()) {
      result.metrics.push_back({def.name, def.unit, values.at(def.name)});
    }
  } else {
    std::map<std::string, double> values = exact_rows;
    values["service.admit_ms_p50"] = median(timed.admit_ms);
    values["service.self_ms_p50"] = s.median_of("service.self_ms");
    values["service.deferred_frac"] =
        ratio(static_cast<double>(timed.deferred),
              static_cast<double>(timed.completed));
    values["service.frame_errors"] = static_cast<double>(frame_errors);
    values["fleet.attempts_per_zone"] =
        ratio(static_cast<double>(exact.zone_attempts),
              static_cast<double>(exact.zones));
    values["fleet.frames_per_zone"] = ratio(
        static_cast<double>(exact.zone_frames), static_cast<double>(exact.zones));
    for (const char* name :
         {"server.plan_groups_us", "math.eq2_us", "math.eq3_ms",
          "fleet.spec_build_us", "fleet.construct_us", "fleet.submit_ms",
          "fleet.run_ms", "wire.session_ms", "tag.columnar_build_us",
          "tag.expected_bitstring_us", "protocol.identify_ms",
          "daemon.epoch_ms", "storage.append_us"}) {
      values[name] = s.median_of(name);
    }
    for (const MetricDef& def : per_layer_metrics()) {
      result.metrics.push_back({def.name, def.unit, values.at(def.name)});
    }

    const std::string trace_path = options.scratch_dir + "/trace-" + w.name +
                                   "-" + std::to_string(options.seed) + ".jsonl";
    std::set<std::uint64_t> traces;
    for (const Completed& c : sample) traces.insert(c.run_id);
    spans.write_jsonl(trace_path, traces);
    std::printf("spans: %zu recorded; those of the %zu replayed requests and "
                "the probes written to %s\n",
                spans.spans().size(), traces.size(), trace_path.c_str());
    spans.print_summary();
  }

  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : result.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("exact-count rows:\n");
  for (const Metric& m : result.exact) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  result.attempted = whole.attempted;
  result.failed = whole.failed;
  result.correct = result.failures.empty();
  for (const std::string& f : result.failures) {
    std::printf("GATE FAILURE: %s\n", f.c_str());
  }
  std::printf("gate: %s\n", result.correct ? "pass" : "FAIL");
  return result;
}

std::string result_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string exact_json(const Result& result) {
  std::string out = "{";
  for (std::size_t i = 0; i < result.exact.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + result.exact[i].name + "\": " + number(result.exact[i].value);
  }
  out += "}";
  return out;
}

}  // namespace perfbench
