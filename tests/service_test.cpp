// MonitorService end-to-end over loopback: hermetic two-endpoint tests with
// ephemeral ports and full start/stop lifecycle. Every test spins a private
// service, talks to it through ServiceClient, and asserts on the typed
// conversation — no fixed ports, no leftover state, no sleeps for
// correctness (only bounded receive timeouts).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "math/frame_optimizer.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/service.h"
#include "storage/backend.h"
#include "storage/daemon_journal.h"
#include "tag/tag_id.h"

namespace {

using namespace rfid;
using service::EnrollRequest;
using service::MonitorService;
using service::ServiceClient;
using service::ServiceConfig;
using service::StartRunRequest;
using service::StartWatchRequest;

std::vector<tag::TagId> make_ids(std::uint64_t count) {
  std::vector<tag::TagId> ids;
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.emplace_back(static_cast<std::uint32_t>(i), 0x1000 + i);
  }
  return ids;
}

EnrollRequest small_inventory(const std::string& name,
                              std::uint64_t tags = 60) {
  EnrollRequest req;
  req.inventory = name;
  req.tolerance = 2;
  req.alpha = 0.95;
  req.zone_capacity = 30;
  req.rounds = 2;
  req.tags = make_ids(tags);
  return req;
}

TEST(ServiceLifecycle, StartExposesPortsAndStopIsIdempotent) {
  MonitorService svc{ServiceConfig{}};
  EXPECT_FALSE(svc.running());
  svc.start();
  EXPECT_TRUE(svc.running());
  EXPECT_NE(svc.port(), 0);
  EXPECT_NE(svc.http_port(), 0);
  EXPECT_NE(svc.port(), svc.http_port());
  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(svc.running());
  EXPECT_TRUE(stats.drained_cleanly);
  const service::ServiceStats again = svc.stop();  // idempotent
  EXPECT_EQ(again.connections, stats.connections);
}

TEST(ServiceSession, HelloEnrollRunIntact) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());

  const service::HelloOk hello = client.hello("acme");
  EXPECT_EQ(hello.version, service::kProtocolVersion);
  EXPECT_NE(hello.session_id, 0u);

  const service::EnrollOk enrolled = client.enroll(small_inventory("aisle1"));
  EXPECT_EQ(enrolled.tags, 60u);
  EXPECT_GE(enrolled.zones, 2u);
  EXPECT_GT(enrolled.total_slots, 0u);

  StartRunRequest run;
  run.inventory = "aisle1";
  run.seed = 7;
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  EXPECT_EQ(outcome.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));

  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);
  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  EXPECT_EQ(result.verdict.zones_violated, 0u);
  EXPECT_FALSE(result.verdict.aborted);
  EXPECT_TRUE(result.verdict.missing.empty());

  EXPECT_EQ(client.ping(42), 42u);
  client.goodbye();
  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.runs_completed, 1u);
  EXPECT_TRUE(stats.drained_cleanly);
}

TEST(ServiceSession, RepeatUtrpRunsSolveEq3Once) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  (void)client.hello("acme");
  EnrollRequest enroll = small_inventory("utrp");  // two zones, one shape
  enroll.protocol = static_cast<std::uint8_t>(fleet::Protocol::kUtrp);
  // A shape nothing earlier in this process sized, even under --gtest_repeat.
  static int invocation = 0;
  enroll.alpha = 0.93 + 1e-6 * ++invocation;
  (void)client.enroll(enroll);

  const std::uint64_t misses = math::utrp_plan_memo_stats().misses;
  for (const std::uint64_t seed : {7u, 8u}) {
    StartRunRequest run;
    run.inventory = "utrp";
    run.seed = seed;
    const service::StartOutcome outcome = client.start_run(run);
    ASSERT_TRUE(outcome.admitted.has_value());
    const service::RunOutcome result =
        client.await_verdict(outcome.admitted->run_id);
    EXPECT_EQ(result.verdict.verdict,
              static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  }
  EXPECT_EQ(math::utrp_plan_memo_stats().misses, misses + 1);

  client.goodbye();
  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.runs_completed, 2u);
}

TEST(ServiceSession, SecondHelloIsRejectedAndSessionSurvives) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  const service::HelloOk first = client.hello("acme");

  // A second Hello must not mint a new session — it would leave the first
  // sessions entry dangling behind a reused connection. The service answers
  // bad_request and the original session keeps working.
  client.send_frame(
      service::FrameType::kHello,
      encode(service::HelloRequest{service::kProtocolVersion, "acme"}));
  const service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);

  client.enroll(small_inventory("aisle1"));
  StartRunRequest run;
  run.inventory = "aisle1";
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);
  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  EXPECT_EQ(client.ping(9), 9u);
  EXPECT_NE(first.session_id, 0u);
  svc.stop();
}

TEST(ServiceSession, TheftVerdictNamesStolenTags) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  const EnrollRequest inventory = small_inventory("cage", 60);
  client.enroll(inventory);

  StartRunRequest run;
  run.inventory = "cage";
  run.seed = 11;
  run.identify = true;
  run.stolen = {3, 7, 33, 41};
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);

  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kViolated));
  EXPECT_GT(result.verdict.zones_violated, 0u);
  EXPECT_GT(result.verdict.tags_named, 0u);
  // The drill-down names the actual stolen tags, by identity.
  for (const std::uint64_t idx : run.stolen) {
    const tag::TagId expected = inventory.tags[idx];
    const bool named =
        std::any_of(result.verdict.missing.begin(),
                    result.verdict.missing.end(),
                    [&](const tag::TagId& id) { return id == expected; });
    EXPECT_TRUE(named) << "stolen tag at index " << idx << " not named";
  }
  // Soundness the other way: nothing present is accused.
  for (const tag::TagId& named : result.verdict.missing) {
    const bool stolen = std::any_of(
        run.stolen.begin(), run.stolen.end(),
        [&](std::uint64_t idx) { return inventory.tags[idx] == named; });
    EXPECT_TRUE(stolen) << "present tag accused: " << named.to_string();
  }
  svc.stop();
}

TEST(ServiceSession, RequestLevelErrorsKeepConnectionAlive) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());

  // Request before hello: typed error, connection survives.
  client.send_frame(service::FrameType::kStartRun,
                    encode(StartRunRequest{"x", 1, false, {}}));
  service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kHelloRequired);

  client.hello("acme");

  // Unknown inventory.
  client.send_frame(service::FrameType::kStartRun,
                    encode(StartRunRequest{"ghost", 1, false, {}}));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kUnknownInventory);

  // Unplannable enrollment (tolerance >= tags) maps the planner's
  // invalid_argument to a bad_request, not a dropped connection.
  EnrollRequest bad;
  bad.inventory = "bad";
  bad.tolerance = 100;
  bad.tags = make_ids(10);
  client.send_frame(service::FrameType::kEnroll, encode(bad));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);

  // Stolen index out of range.
  client.enroll(small_inventory("aisle1"));
  StartRunRequest run;
  run.inventory = "aisle1";
  run.stolen = {999};
  client.send_frame(service::FrameType::kStartRun, encode(run));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);

  // The connection still works after all four errors.
  EXPECT_EQ(client.ping(5), 5u);
  svc.stop();
}

TEST(ServiceAdmission, TokenBucketSendsRetryAfter) {
  std::atomic<std::uint64_t> clock{0};
  ServiceConfig config;
  config.tokens_per_sec = 0.5;
  config.token_capacity = 1.0;
  config.clock_us = [&clock] { return clock.load(); };
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  client.enroll(small_inventory("inv"));

  StartRunRequest run;
  run.inventory = "inv";
  const service::StartOutcome first = client.start_run(run);
  ASSERT_TRUE(first.admitted.has_value());

  // Bucket empty, refill 0.5 tokens/s: the service must push back with an
  // explicit retry hint near the 2 s deficit, not queue the request.
  const service::StartOutcome second = client.start_run(run);
  ASSERT_TRUE(second.backpressure.has_value());
  EXPECT_GE(second.backpressure->retry_after_ms, 1900u);
  EXPECT_LE(second.backpressure->retry_after_ms, 2100u);

  clock.store(2'500'000);  // 2.5 s later the bucket holds >1 token again
  const service::StartOutcome third = client.start_run(run);
  ASSERT_TRUE(third.admitted.has_value());

  client.await_verdict(first.admitted->run_id);
  client.await_verdict(third.admitted->run_id);
  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(ServiceAdmission, SaturationDefersThenRejects) {
  ServiceConfig config;
  config.workers = 1;
  config.max_inflight = 1;
  config.max_inflight_per_tenant = 4;
  config.max_deferred = 1;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  // A watch of many epochs over many zones: reliably in flight long enough
  // for the two follow-up requests to hit a busy service.
  EnrollRequest inv = small_inventory("inv", 300);
  inv.zone_capacity = 30;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "inv";
  watch.epochs = 8;
  const service::StartOutcome first = client.start_watch(watch);
  ASSERT_TRUE(first.admitted.has_value());
  EXPECT_EQ(first.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));

  StartRunRequest run;
  run.inventory = "inv";
  const service::StartOutcome second = client.start_run(run);
  ASSERT_TRUE(second.admitted.has_value());
  EXPECT_EQ(second.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kDeferred));
  EXPECT_EQ(second.admitted->queue_depth, 1u);

  // Wave queue full: explicit backpressure, nothing silently queued.
  const service::StartOutcome third = client.start_run(run);
  ASSERT_TRUE(third.backpressure.has_value());
  EXPECT_GT(third.backpressure->retry_after_ms, 0u);

  // The deferred run still completes once capacity frees up.
  const service::RunOutcome deferred =
      client.await_verdict(second.admitted->run_id);
  EXPECT_EQ(deferred.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  client.await_watch_done(first.admitted->run_id);

  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.runs_completed, 2u);
}

TEST(ServiceAlerts, WatchPublishesFeedAndSubscriberReplaysBacklog) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient producer(svc.port());
  producer.hello("warehouse");
  EnrollRequest inv = small_inventory("floor", 120);
  inv.zone_capacity = 40;
  inv.tolerance = 4;
  producer.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 3;
  watch.identify = true;
  watch.steal_epoch = 1;
  watch.steal = 5;
  watch.steal_from = 10;
  const service::StartOutcome outcome = producer.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::WatchDone done =
      producer.await_watch_done(outcome.admitted->run_id);
  EXPECT_EQ(done.epochs_completed, 3u);
  EXPECT_FALSE(done.gave_up);
  EXPECT_GT(done.alerts, 0u);

  // A second connection of the same tenant sees the full backlog, named
  // stolen tags included; a different tenant sees nothing.
  ServiceClient subscriber(svc.port());
  subscriber.hello("warehouse");
  const std::vector<service::TenantAlert> backlog = subscriber.subscribe();
  ASSERT_EQ(backlog.size(), done.alerts);
  bool named = false;
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    EXPECT_EQ(backlog[i].sequence, i);  // gapless, ordered
    EXPECT_FALSE(backlog[i].kind.empty());
    named = named || !backlog[i].missing.empty();
  }
  EXPECT_TRUE(named) << "no feed alert carried identified stolen tags";

  ServiceClient stranger(svc.port());
  stranger.hello("other-tenant");
  EXPECT_TRUE(stranger.subscribe().empty());
  svc.stop();
}

TEST(ServiceDurability, JournalDirPersistsWatchJournalsAcrossRestart) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "rfidmon_service_journals";
  std::filesystem::remove_all(root);

  ServiceConfig config;
  config.journal_dir = root.string();
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("warehouse");
  EnrollRequest inv = small_inventory("floor", 120);
  inv.zone_capacity = 40;
  inv.tolerance = 4;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 3;
  watch.steal_epoch = 1;
  watch.steal = 5;
  watch.steal_from = 10;
  const service::StartOutcome outcome = client.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());
  const std::uint64_t run_id = outcome.admitted->run_id;
  const service::WatchDone done = client.await_watch_done(run_id);
  EXPECT_EQ(done.epochs_completed, 3u);
  svc.stop();

  // The watch's journals outlive the service: open them cold, exactly as a
  // restarted daemon would after a kill. One checkpoint per committed epoch
  // means any crash point leaves a resumable prefix (daemon_torture_test
  // pins the per-crash-point bit-identity; here we pin that the service
  // actually put the files where a restart can find them).
  storage::FileBackend backend(
      (root / ("watch-" + std::to_string(run_id))).string());
  ASSERT_TRUE(backend.exists("daemon.journal"));
  EXPECT_TRUE(backend.exists("fleet.journal"));
  const storage::DaemonJournalScan scan =
      storage::scan_daemon_journal(backend.read("daemon.journal"));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  // Start record plus one checkpoint per epoch, at minimum.
  EXPECT_GE(scan.records.size(), 1u + done.epochs_completed);
  std::filesystem::remove_all(root);
}

TEST(ServiceShutdown, DrainTimeoutAbortsInFlightRun) {
  ServiceConfig config;
  config.workers = 1;
  config.drain_timeout = std::chrono::milliseconds(1);
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  EnrollRequest inv = small_inventory("big", 30000);
  inv.zone_capacity = 50;
  inv.tolerance = 100;
  inv.rounds = 6;
  client.enroll(inv);

  StartRunRequest run;
  run.inventory = "big";
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());

  // 600 zones x 6 rounds cannot finish inside a 1 ms budget even on a fast
  // machine: the abort switch must fire and the run must report itself
  // aborted instead of wedging stop().
  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(stats.drained_cleanly);
  EXPECT_GE(stats.runs_aborted, 1u);
}

TEST(ServiceShutdown, DrainTimeoutAbortsInFlightWatch) {
  ServiceConfig config;
  config.workers = 1;
  config.drain_timeout = std::chrono::milliseconds(1);
  config.max_watch_epochs = 100000;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  EnrollRequest inv = small_inventory("floor", 2000);
  inv.zone_capacity = 40;
  inv.tolerance = 20;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 100000;
  const service::StartOutcome outcome = client.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());

  // 100000 epochs cannot drain inside a 1 ms budget: the service abort
  // switch must reach the in-flight MonitorDaemon (DaemonConfig::abort),
  // which gives up instead of grinding through every remaining epoch — so
  // stop() returns promptly instead of exceeding its drain contract by
  // minutes.
  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(stats.drained_cleanly);
}

TEST(ServiceHttp, ScrapeEndpointsRenderRegistry) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  client.enroll(small_inventory("inv"));
  StartRunRequest run;
  run.inventory = "inv";
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  client.await_verdict(outcome.admitted->run_id);

  int status = 0;
  const std::string prom = service::http_get(svc.http_port(), "/metrics",
                                             &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(prom.find("rfidmon_service_connections_total"), std::string::npos);
  EXPECT_NE(prom.find("rfidmon_service_admissions_total"), std::string::npos);
  EXPECT_NE(prom.find("rfidmon_service_run_latency_us"), std::string::npos);
  // The run's own fleet metrics landed in the same registry.
  EXPECT_NE(prom.find("rfidmon_fleet_zones_total"), std::string::npos);

  const std::string json =
      service::http_get(svc.http_port(), "/metrics.json", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("rfidmon_service_frames_total"), std::string::npos);

  EXPECT_EQ(service::http_get(svc.http_port(), "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
  (void)service::http_get(svc.http_port(), "/nope", &status);
  EXPECT_EQ(status, 404);

  svc.stop();
}

}  // namespace
