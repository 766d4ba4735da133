#include "load.h"

#include <sys/resource.h>

#include <deque>
#include <chrono>
#include <exception>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fleet/fleet.h"
#include "gate.h"
#include "obs/catalog.h"
#include "stats.h"

namespace perfbench {

using namespace rfid;

std::uint64_t Deployment::frames() {
  return obs::catalog::service_frames_total(registry, "in").value() +
         obs::catalog::service_frames_total(registry, "out").value();
}

service::ServiceStats Deployment::stop() {
  for (auto& client : clients) {
    try {
      client->goodbye();
    } catch (const std::exception&) {
      // The connection is already gone; stop() below still reaps it.
    }
  }
  clients.clear();
  return service->stop();
}

std::unique_ptr<Deployment> deploy(const Workload& w,
                                   const std::vector<Tenant>& tenants) {
  auto d = std::make_unique<Deployment>();
  service::ServiceConfig config;
  config.workers = 2;
  config.run_threads = 1;
  config.max_frame_bytes = w.max_frame_bytes;
  // Refusals are a failure to count, never the subject: the token bucket
  // is unbounded; every other admission limit keeps its default.
  config.token_capacity = 1e12;
  config.tokens_per_sec = 1e12;
  config.metrics = &d->registry;
  d->service = std::make_unique<service::MonitorService>(config);
  d->service->start();
  for (const Tenant& tenant : tenants) {
    auto client = std::make_unique<service::ServiceClient>(
        d->service->port(), std::chrono::milliseconds(60000));
    (void)client->hello(tenant.name);
    std::vector<service::EnrollOk> oks;
    for (const Inventory& inv : tenant.inventories) {
      oks.push_back(client->enroll(inv.enroll));
    }
    d->enrolled.push_back(std::move(oks));
    d->clients.push_back(std::move(client));
  }
  return d;
}

namespace {

constexpr std::size_t kKeptMessages = 8;

void keep(std::vector<std::string>& messages, std::string message) {
  if (messages.size() < kKeptMessages) messages.push_back(std::move(message));
}

/// Gate checks on one completion, then the compact record of it.
void record(const Workload& w, const std::vector<Tenant>& tenants,
            double phase_start_us, Completed&& c, Phase& out) {
  const Request& req = c.request;
  const Inventory& inv =
      tenants[static_cast<std::size_t>(req.tenant)].inventories[req.inventory];
  const auto bad = w.watch ? check_watch_done(w, req, c.watch)
                           : check_run_verdict(inv, req, c.verdict);
  if (bad) {
    ++out.violation_count;
    keep(out.violations, *bad);
  }
  if (req.theft) {
    ++out.thefts;
    if (theft_detected(req, c.verdict, c.watch)) ++out.detected;
  }
  ++out.completed;
  // Indexed from the phase start; drive() moves the windows past the
  // deadline to the drain.
  const auto window = static_cast<std::size_t>(
      (c.done_us - phase_start_us) / 1e6 / kWindowS);
  if (out.window_ms.size() <= window) out.window_ms.resize(window + 1);
  out.window_ms[window].push_back(c.latency_ms());
  if (c.deferred) ++out.deferred;
  out.admit_ms.push_back((c.admitted_us - c.sent_us) / 1000.0);
  if (req.index < w.replay_per_conn) out.sample.push_back(std::move(c));
}

void drive_connection(service::ServiceClient& client, const Workload& w,
                      const std::vector<Tenant>& tenants, std::uint64_t seed,
                      int tenant, double start_us, double deadline_us,
                      std::uint64_t min_requests, std::uint64_t& next_index,
                      SpanLog* spans, Phase& out) {
  std::deque<Completed> unadmitted;  // answered in send order
  std::unordered_map<std::uint64_t, Completed> admitted;
  std::uint64_t sent = 0;
  auto outstanding = [&] { return unadmitted.size() + admitted.size(); };
  try {
    for (;;) {
      while (outstanding() < kOutstanding &&
             (now_us() < deadline_us || sent < min_requests)) {
        Completed c;
        c.request = make_request(w, tenants, seed, tenant, next_index++);
        c.sent_us = now_us();
        if (w.watch) {
          client.send_frame(service::FrameType::kStartWatch,
                            service::encode(c.request.watch));
        } else {
          client.send_frame(service::FrameType::kStartRun,
                            service::encode(c.request.run));
        }
        unadmitted.push_back(std::move(c));
        ++sent;
        ++out.attempted;
      }
      if (outstanding() == 0) return;

      const service::Frame frame = client.read_frame();
      const double at = now_us();
      switch (static_cast<service::FrameType>(frame.type)) {
        case service::FrameType::kRunAdmitted: {
          const service::RunAdmitted msg =
              service::decode_run_admitted(frame.payload);
          if (unadmitted.empty()) throw std::runtime_error("stray RunAdmitted");
          Completed c = std::move(unadmitted.front());
          unadmitted.pop_front();
          c.run_id = msg.run_id;
          c.deferred = msg.admission ==
                       static_cast<std::uint8_t>(fleet::Admission::kDeferred);
          c.admitted_us = at;
          admitted.emplace(msg.run_id, std::move(c));
          break;
        }
        case service::FrameType::kBackpressure: {
          const service::Backpressure msg =
              service::decode_backpressure(frame.payload);
          if (unadmitted.empty()) throw std::runtime_error("stray Backpressure");
          unadmitted.pop_front();
          ++out.failed;
          keep(out.errors, "refused: " + msg.reason);
          break;
        }
        case service::FrameType::kRunAlert:
          break;  // fleet alerts; the verdict that follows carries the result
        case service::FrameType::kRunVerdict:
        case service::FrameType::kWatchDone: {
          const bool is_watch = static_cast<service::FrameType>(frame.type) ==
                                service::FrameType::kWatchDone;
          service::RunVerdictMsg verdict;
          service::WatchDone done;
          if (is_watch) {
            done = service::decode_watch_done(frame.payload);
          } else {
            verdict = service::decode_run_verdict(frame.payload);
          }
          const std::uint64_t run_id = is_watch ? done.run_id : verdict.run_id;
          const auto it = admitted.find(run_id);
          if (it == admitted.end()) {
            throw std::runtime_error("completion for unknown run " +
                                     std::to_string(run_id));
          }
          Completed c = std::move(it->second);
          admitted.erase(it);
          c.done_us = at;
          c.verdict = std::move(verdict);
          c.watch = done;
          if (c.verdict.aborted) {
            ++out.failed;
            keep(out.errors, "run aborted: " + std::to_string(run_id));
            break;
          }
          if (spans != nullptr) {
            const std::int64_t root = spans->add(
                "service.request", run_id, -1, c.sent_us, c.done_us);
            spans->add("service.admit", run_id, root, c.sent_us,
                       c.admitted_us);
            spans->add("service.await_completion", run_id, root,
                       c.admitted_us, c.done_us);
          }
          record(w, tenants, start_us, std::move(c), out);
          break;
        }
        case service::FrameType::kTenantAlert:
          break;  // feed traffic; these connections do not subscribe
        case service::FrameType::kError: {
          const service::ErrorMsg msg = service::decode_error(frame.payload);
          throw std::runtime_error("service error: " + msg.message);
        }
        default:
          throw std::runtime_error(
              "unexpected frame: " +
              std::string(service::to_string(
                  static_cast<service::FrameType>(frame.type))));
      }
    }
  } catch (const std::exception& e) {
    // The connection is unusable: everything still in flight is lost.
    out.failed += outstanding();
    keep(out.errors, std::string("connection ") + std::to_string(tenant) +
                         ": " + e.what());
  }
}

}  // namespace

Phase drive(Deployment& d, const Workload& w,
            const std::vector<Tenant>& tenants, std::uint64_t seed,
            double seconds, std::uint64_t min_per_conn,
            std::array<std::uint64_t, kTenants>& next_index, SpanLog* spans) {
  std::vector<Phase> results(kTenants);
  std::vector<SpanLog> logs(kTenants);
  const std::uint64_t frames0 = d.frames();
  const double cpu0 = process_cpu_s();
  const double t0 = now_us();
  const double deadline = t0 + seconds * 1e6;
  const auto windows = static_cast<std::size_t>(seconds / kWindowS);
  std::vector<double> cpu_marks(windows + 1, cpu0);
  {
    std::vector<std::thread> threads;
    // Marks process CPU at each window boundary; sleeps in between.
    threads.emplace_back([&] {
      for (std::size_t k = 1; k <= windows; ++k) {
        const double wait_us =
            t0 + static_cast<double>(k) * kWindowS * 1e6 - now_us();
        if (wait_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(wait_us)));
        }
        cpu_marks[k] = process_cpu_s();
      }
    });
    for (int t = 0; t < kTenants; ++t) {
      const auto i = static_cast<std::size_t>(t);
      threads.emplace_back([&, t, i] {
        drive_connection(*d.clients[i], w, tenants, seed, t, t0, deadline,
                         min_per_conn, next_index[i],
                         spans != nullptr ? &logs[i] : nullptr, results[i]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  Phase phase;
  phase.wall_s = (now_us() - t0) / 1e6;
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.frames = d.frames() - frames0;
  for (std::size_t k = 1; k <= windows; ++k) {
    phase.window_cpu_s.push_back(cpu_marks[k] - cpu_marks[k - 1]);
  }
  phase.window_ms.resize(windows);  // a full window may see no completion
  for (std::size_t t = 0; t < results.size(); ++t) {
    Phase& r = results[t];
    for (std::size_t i = 0; i < r.window_ms.size(); ++i) {
      std::vector<double>& to = i < windows ? phase.window_ms[i] : phase.drain_ms;
      to.insert(to.end(), r.window_ms[i].begin(), r.window_ms[i].end());
    }
    phase.add_counts(std::move(r));
    if (spans != nullptr) spans->merge(std::move(logs[t]));
  }
  return phase;
}

void Phase::append(Phase&& later) {
  window_ms.insert(window_ms.end(),
                   std::make_move_iterator(later.window_ms.begin()),
                   std::make_move_iterator(later.window_ms.end()));
  window_cpu_s.insert(window_cpu_s.end(), later.window_cpu_s.begin(),
                      later.window_cpu_s.end());
  drain_ms.insert(drain_ms.end(), later.drain_ms.begin(), later.drain_ms.end());
  wall_s += later.wall_s;
  cpu_s += later.cpu_s;
  add_counts(std::move(later));
}

void Phase::add_counts(Phase&& other) {
  for (Completed& c : other.sample) sample.push_back(std::move(c));
  admit_ms.insert(admit_ms.end(), other.admit_ms.begin(), other.admit_ms.end());
  completed += other.completed;
  deferred += other.deferred;
  thefts += other.thefts;
  detected += other.detected;
  attempted += other.attempted;
  failed += other.failed;
  for (std::string& e : other.errors) keep(errors, std::move(e));
  for (std::string& v : other.violations) keep(violations, std::move(v));
  violation_count += other.violation_count;
  frames += other.frames;
}

std::vector<double> Phase::all_latencies_ms() const {
  std::vector<double> all = drain_ms;
  for (const std::vector<double>& window : window_ms) {
    all.insert(all.end(), window.begin(), window.end());
  }
  return all;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
