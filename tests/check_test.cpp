// Tests for the concurrency-correctness layer (src/check):
//  - the shm protocol checker must *detect and report* seeded protocol
//    violations (double release, write-after-publish, ...) without
//    crashing, and stay silent on clean runs — including a full
//    DamarisNode write/signal/finalize cycle;
//  - the determinism verifier must produce identical timeline digests
//    for two same-seed runs of the paper's fig2 jitter scenario, and
//    distinct digests for different seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "check/determinism.hpp"
#include "check/protocol_checker.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"
#include "des/engine.hpp"
#include "experiments/experiments.hpp"
#include "strategies/strategy.hpp"

namespace dmr::check {
namespace {

bool has_violation(const std::vector<Violation>& vs, ViolationKind kind) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.kind == kind; });
}

// ------------------------------------------------------- clean protocol

TEST(ProtocolChecker, CleanLifecycleHasNoViolations) {
  shm::SharedBuffer buf(4096, shm::AllocPolicy::kMutexFirstFit, 2);
  shm::EventQueue queue;
  ProtocolChecker chk;
  chk.observe(buf);
  chk.observe(queue);

  for (int it = 0; it < 5; ++it) {
    auto r = buf.allocate(256, it % 2);
    ASSERT_TRUE(r.is_ok());
    buf.note_write(r.value());
    shm::Message m;
    m.type = shm::MessageType::kWriteNotification;
    m.client_id = r.value().client_id;
    m.iteration = it;
    m.block = r.value();
    ASSERT_TRUE(queue.push(m));
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    buf.deallocate(popped->block);
  }
  queue.close();
  EXPECT_TRUE(chk.finalize().empty()) << chk.report();
}

TEST(ProtocolChecker, ClientSideAbortIsNotAViolation) {
  // Reserving a block and releasing it unpublished is a legal rollback.
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kPartitioned, 1);
  ProtocolChecker chk;
  chk.observe(buf);
  auto r = buf.allocate(128, 0);
  ASSERT_TRUE(r.is_ok());
  buf.deallocate(r.value());
  EXPECT_TRUE(chk.finalize().empty()) << chk.report();
}

// --------------------------------------------------- seeded violations

TEST(ProtocolChecker, DetectsDoubleRelease) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 1);
  ProtocolChecker chk;
  chk.observe(buf);
  auto r = buf.allocate(100, 0);
  ASSERT_TRUE(r.is_ok());
  buf.deallocate(r.value());
  buf.deallocate(r.value());  // seeded bug — must be reported, not crash
  auto vs = chk.finalize();
  ASSERT_TRUE(has_violation(vs, ViolationKind::kDoubleRelease))
      << chk.report();
  // The report names the owning client.
  auto it = std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
    return v.kind == ViolationKind::kDoubleRelease;
  });
  EXPECT_EQ(it->client_id, 0);
  EXPECT_NE(it->to_string().find("double-release"), std::string::npos);
}

TEST(ProtocolChecker, DetectsWriteAfterPublish) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 2);
  shm::EventQueue queue;
  ProtocolChecker chk;
  chk.observe(buf);
  chk.observe(queue);

  auto r = buf.allocate(64, 1);
  ASSERT_TRUE(r.is_ok());
  buf.note_write(r.value());
  shm::Message m;
  m.type = shm::MessageType::kWriteNotification;
  m.client_id = 1;
  m.iteration = 7;
  m.block = r.value();
  ASSERT_TRUE(queue.push(m));
  buf.note_write(r.value());  // seeded bug: mutating after handoff

  auto vs = chk.violations();
  ASSERT_TRUE(has_violation(vs, ViolationKind::kWriteAfterPublish))
      << chk.report();
  auto it = std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
    return v.kind == ViolationKind::kWriteAfterPublish;
  });
  EXPECT_EQ(it->client_id, 1);
  EXPECT_EQ(it->iteration, 7);  // report carries the iteration
}

TEST(ProtocolChecker, DetectsConsumeBeforeNotify) {
  // A message fabricated for a block that was never published — e.g. a
  // stale descriptor replayed through the wrong queue.
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 1);
  shm::EventQueue queue;
  ProtocolChecker chk;
  chk.observe(buf);

  auto r = buf.allocate(64, 0);
  ASSERT_TRUE(r.is_ok());
  shm::Message m;
  m.type = shm::MessageType::kWriteNotification;
  m.client_id = 0;
  m.block = r.value();
  ASSERT_TRUE(queue.push(m));  // unobserved queue: checker never sees a publish
  chk.observe(queue);   // server's queue is observed from here on
  auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_TRUE(
      has_violation(chk.violations(), ViolationKind::kConsumeBeforeNotify))
      << chk.report();
}

TEST(ProtocolChecker, DetectsPublishWithoutWrite) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 1);
  shm::EventQueue queue;
  ProtocolChecker chk;
  chk.observe(buf);
  chk.observe(queue);
  auto r = buf.allocate(64, 0);
  ASSERT_TRUE(r.is_ok());
  shm::Message m;
  m.type = shm::MessageType::kWriteNotification;
  m.block = r.value();
  ASSERT_TRUE(queue.push(m));  // no note_write: publishing uninitialized payload
  EXPECT_TRUE(
      has_violation(chk.violations(), ViolationKind::kPublishWithoutWrite))
      << chk.report();
}

TEST(ProtocolChecker, DetectsReleaseWhilePublished) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 1);
  shm::EventQueue queue;
  ProtocolChecker chk;
  chk.observe(buf);
  chk.observe(queue);
  auto r = buf.allocate(64, 0);
  ASSERT_TRUE(r.is_ok());
  buf.note_write(r.value());
  shm::Message m;
  m.type = shm::MessageType::kWriteNotification;
  m.block = r.value();
  ASSERT_TRUE(queue.push(m));
  buf.deallocate(r.value());  // freeing while the server may still read
  EXPECT_TRUE(
      has_violation(chk.violations(), ViolationKind::kReleaseWhilePublished))
      << chk.report();
}

TEST(ProtocolChecker, DetectsLeakedBlocksAtShutdown) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 2);
  ProtocolChecker chk;
  chk.observe(buf);
  auto a = buf.allocate(64, 0);
  auto b = buf.allocate(64, 1);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  buf.deallocate(a.value());
  auto vs = chk.finalize();  // b never released
  ASSERT_TRUE(has_violation(vs, ViolationKind::kLeakedBlock)) << chk.report();
  EXPECT_EQ(chk.live_blocks(), 1u);
  // finalize() is idempotent: the same leak is not re-reported.
  EXPECT_EQ(chk.finalize().size(), vs.size());
}

TEST(ProtocolChecker, DetectsPushAfterClose) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 1);
  shm::EventQueue queue;
  ProtocolChecker chk;
  chk.observe(buf);
  chk.observe(queue);
  queue.close();
  auto r = buf.allocate(64, 0);
  ASSERT_TRUE(r.is_ok());
  buf.note_write(r.value());
  shm::Message m;
  m.type = shm::MessageType::kWriteNotification;
  m.block = r.value();
  EXPECT_FALSE(queue.push(m));
  EXPECT_TRUE(has_violation(chk.violations(), ViolationKind::kPushAfterClose))
      << chk.report();
}

TEST(ProtocolChecker, ReportIsHumanReadable) {
  shm::SharedBuffer buf(1024, shm::AllocPolicy::kMutexFirstFit, 1);
  ProtocolChecker chk;
  chk.observe(buf);
  EXPECT_NE(chk.report().find("protocol clean"), std::string::npos);
  auto r = buf.allocate(32, 0);
  ASSERT_TRUE(r.is_ok());
  buf.deallocate(r.value());
  buf.deallocate(r.value());
  EXPECT_NE(chk.report().find("double-release"), std::string::npos);
}

// ----------------------------------------- middleware integration test

TEST(ProtocolChecker, DamarisNodeCleanRunHasNoViolations) {
  auto cfg = config::Config::from_string(R"(
    <damaris>
      <buffer size="1048576" policy="firstfit"/>
      <layout name="l" type="real" dimensions="16,16"/>
      <variable name="field" layout="l"/>
      <event name="poke" action="stats" scope="local"/>
    </damaris>)");
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();

  core::NodeOptions opts;
  opts.output_dir = ::testing::TempDir() + "dmr_check_node";
  opts.protocol_check = true;
  constexpr int kClients = 3;
  core::DamarisNode node(std::move(cfg.value()), kClients, opts);
  ASSERT_TRUE(node.start().is_ok());

  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto client = node.client(c);
      std::vector<float> data(16 * 16, static_cast<float>(c));
      auto bytes = std::as_bytes(std::span<const float>(data));
      for (std::int64_t it = 0; it < 4; ++it) {
        ASSERT_TRUE(client.write("field", it, bytes).is_ok());
        ASSERT_TRUE(client.signal("poke", it).is_ok());
        ASSERT_TRUE(client.end_iteration(it).is_ok());
      }
      ASSERT_TRUE(client.finalize().is_ok());
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(node.stop().is_ok());
  EXPECT_EQ(node.stats().protocol_violations, 0u);
}

// ------------------------------------------------------- determinism

TEST(Determinism, TimelineHasherSeesEvents) {
  TimelineHasher h;
  des::Engine eng;
  eng.schedule_callback(1.0, [] {});
  eng.schedule_callback(2.0, [] {});
  eng.run();
  EXPECT_EQ(h.events(), 2u);
  EXPECT_NE(h.digest(), 0u);
}

TEST(Determinism, Fig2JitterScenarioIsDeterministic) {
  // The acceptance scenario: the Damaris point of Figure 2 (Kraken,
  // smallest scale) must replay the exact same event timeline.
  auto rep = verify_determinism([] {
    strategies::RunConfig cfg = experiments::kraken_config(
        strategies::StrategyKind::kDamaris, /*cores=*/576,
        /*iterations=*/5, /*write_interval=*/1);
    strategies::run_strategy(cfg);
  });
  EXPECT_TRUE(rep.deterministic) << rep.to_string();
  EXPECT_GT(rep.events_a, 0u);
}

TEST(Determinism, Fig2AllStrategiesDeterministic) {
  using strategies::StrategyKind;
  for (StrategyKind kind : {StrategyKind::kFilePerProcess,
                            StrategyKind::kCollectiveIo}) {
    auto rep = verify_determinism([kind] {
      strategies::run_strategy(experiments::kraken_config(
          kind, /*cores=*/576, /*iterations=*/3, /*write_interval=*/1));
    });
    EXPECT_TRUE(rep.deterministic)
        << strategies::strategy_name(kind) << ": " << rep.to_string();
    EXPECT_GT(rep.events_a, 0u) << strategies::strategy_name(kind);
  }
}

TEST(Determinism, DifferentSeedsGiveDifferentDigests) {
  auto digest_for = [](std::uint64_t seed) {
    TimelineHasher h;
    strategies::RunConfig cfg = experiments::kraken_config(
        strategies::StrategyKind::kDamaris, /*cores=*/576,
        /*iterations=*/3, /*write_interval=*/1, /*iteration_seconds=*/4.1,
        seed);
    strategies::run_strategy(cfg);
    return h.digest();
  };
  EXPECT_NE(digest_for(1), digest_for(2));
}

}  // namespace
}  // namespace dmr::check
