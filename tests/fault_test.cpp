#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <tuple>
#include <vector>

#include "check/fault_checker.hpp"
#include "common/clock.hpp"
#include "core/damaris.hpp"
#include "experiments/experiments.hpp"
#include "fault/degrade.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "strategies/strategy.hpp"

namespace dmr::fault {
namespace {

// ---------------------------------------------------------- plan

FaultSpec rate_rule(Site site, double rate) {
  FaultSpec s;
  s.site = site;
  s.rate = rate;
  return s;
}

FaultSpec window_rule(Site site, double start, double length) {
  FaultSpec s;
  s.site = site;
  s.window_start = start;
  s.window_length = length;
  return s;
}

TEST(FaultPlan, SiteNamesRoundTrip) {
  for (int i = 0; i < kNumSites; ++i) {
    const Site site = static_cast<Site>(i);
    Site parsed;
    ASSERT_TRUE(parse_site(site_name(site), parsed));
    EXPECT_EQ(parsed, site);
  }
  Site out;
  EXPECT_FALSE(parse_site("disk.melt", out));
  EXPECT_FALSE(parse_site("", out));
}

TEST(FaultPlan, ValidateAcceptsWellFormedRules) {
  FaultPlan plan;
  plan.faults.push_back(rate_rule(Site::kStorageWrite, 0.5));
  plan.faults.push_back(window_rule(Site::kShmExhaust, 3, 2));
  FaultSpec both = rate_rule(Site::kNetDegrade, 1.0);
  both.window_start = 0;
  both.window_length = 10;
  both.factor = 4.0;
  plan.faults.push_back(both);
  EXPECT_TRUE(plan.validate().is_ok());
}

TEST(FaultPlan, ValidateRejectsMalformedRules) {
  const auto reject = [](FaultSpec spec) {
    FaultPlan plan;
    plan.faults.push_back(spec);
    EXPECT_FALSE(plan.validate().is_ok());
  };
  reject(rate_rule(Site::kStorageWrite, -0.1));
  reject(rate_rule(Site::kStorageWrite, 1.5));
  reject(rate_rule(Site::kStorageWrite, 0.0));  // neither rate nor window
  reject(window_rule(Site::kShmExhaust, 3, 0));  // window without length
  reject(window_rule(Site::kShmExhaust, -2, 4));  // negative non-(-1) start
  FaultSpec stall = rate_rule(Site::kStorageStall, 0.5);
  stall.stall_seconds = -1.0;
  reject(stall);
  FaultSpec weak = rate_rule(Site::kServerSlow, 0.5);
  weak.factor = 0.5;
  reject(weak);
}

// ---------------------------------------------------------- injector

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.seed = 42;
  plan.faults.push_back(rate_rule(Site::kStorageWrite, 0.3));
  FaultInjector a(plan), b(plan);
  int fired = 0;
  for (std::uint64_t key = 0; key < 512; ++key) {
    const bool fa = a.fires(Site::kStorageWrite, 0.0, key);
    EXPECT_EQ(fa, b.fires(Site::kStorageWrite, 0.0, key));
    fired += fa ? 1 : 0;
  }
  // Rate 0.3 over 512 keyed draws lands near 154.
  EXPECT_GT(fired, 100);
  EXPECT_LT(fired, 210);
  EXPECT_EQ(a.injected(Site::kStorageWrite), static_cast<std::uint64_t>(fired));
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  FaultPlan plan;
  plan.seed = 1;
  plan.faults.push_back(rate_rule(Site::kStorageWrite, 0.3));
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  bool differs = false;
  for (std::uint64_t key = 0; key < 256 && !differs; ++key) {
    differs = a.fires_rate(Site::kStorageWrite, key) !=
              b.fires_rate(Site::kStorageWrite, key);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, WindowSemantics) {
  FaultPlan plan;
  plan.faults.push_back(window_rule(Site::kShmExhaust, 3, 2));
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.fires_window(Site::kShmExhaust, 2.0));
  EXPECT_TRUE(inj.fires_window(Site::kShmExhaust, 3.0));
  EXPECT_TRUE(inj.fires_window(Site::kShmExhaust, 4.0));
  EXPECT_FALSE(inj.fires_window(Site::kShmExhaust, 5.0));  // half-open
  EXPECT_TRUE(inj.in_window(Site::kShmExhaust, 4.0));
  // A window-only rule never fires at rate-only call points.
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_FALSE(inj.fires_rate(Site::kShmExhaust, key));
  }
  // Other sites are unaffected.
  EXPECT_FALSE(inj.fires_window(Site::kCoreCrash, 3.0));
}

TEST(FaultInjector, RateInsideWindowRequiresBoth) {
  FaultPlan plan;
  FaultSpec spec = rate_rule(Site::kStorageWrite, 1.0);
  spec.window_start = 10;
  spec.window_length = 5;
  plan.faults.push_back(spec);
  FaultInjector inj(plan);
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_FALSE(inj.fires(Site::kStorageWrite, 2.0, key));  // outside
    EXPECT_TRUE(inj.fires(Site::kStorageWrite, 12.0, key));  // inside, p=1
  }
}

TEST(FaultInjector, FactorAndStallQueries) {
  FaultPlan plan;
  FaultSpec slow = window_rule(Site::kServerSlow, 5, 10);
  slow.factor = 4.0;
  plan.faults.push_back(slow);
  FaultSpec stall = rate_rule(Site::kStorageStall, 0.5);
  stall.stall_seconds = 0.25;
  plan.faults.push_back(stall);
  FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.factor_at(Site::kServerSlow, 7.0), 4.0);
  EXPECT_DOUBLE_EQ(inj.factor_at(Site::kServerSlow, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.stall_of(Site::kStorageStall), 0.25);
  EXPECT_DOUBLE_EQ(inj.stall_of(Site::kCoreCrash), 0.0);
}

// ---------------------------------------------------------- retry

TEST(Retry, BackoffIsBoundedAndDeterministic) {
  RetryPolicy p;
  p.max_attempts = 8;
  p.base_delay = 0.001;
  p.max_delay = 0.01;
  Backoff a(p, 7), b(p, 7);
  for (int i = 0; i < 16; ++i) {
    const double d = a.next();
    EXPECT_DOUBLE_EQ(d, b.next());
    EXPECT_GE(d, p.base_delay);
    EXPECT_LE(d, p.max_delay);
  }
}

TEST(Retry, RetrySyncRecoversAfterTransientFailures) {
  RetryPolicy p;
  p.max_attempts = 5;
  p.base_delay = 1e-4;
  p.max_delay = 1e-3;
  int calls = 0, retries = 0;
  Status st = retry_sync(
      p, 1,
      [&](int attempt) {
        ++calls;
        EXPECT_EQ(attempt, calls);
        return attempt < 3 ? io_error("transient") : Status::ok();
      },
      [&](int, double delay, const Status& last) {
        ++retries;
        EXPECT_GT(delay, 0.0);
        EXPECT_EQ(last.code(), ErrorCode::kIoError);
      });
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(Retry, RetrySyncExhaustsBudget) {
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_delay = 1e-4;
  p.max_delay = 1e-3;
  int calls = 0;
  Status st = retry_sync(
      p, 1, [&](int) { ++calls; return io_error("always"); },
      [](int, double, const Status&) {});
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, DisabledPolicyRunsOnce) {
  RetryPolicy p;  // max_attempts = 1
  EXPECT_FALSE(p.enabled());
  int calls = 0;
  Status st = retry_sync(
      p, 1, [&](int) { ++calls; return io_error("x"); },
      [](int, double, const Status&) { FAIL() << "no retry expected"; });
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------- degrade

TEST(Degrade, TripAndClearHysteresis) {
  DegradePolicy p;
  p.allow_sync = true;
  p.allow_drop = true;
  p.trip_threshold = 2;
  p.clear_threshold = 2;
  DegradeController ctl(p);
  EXPECT_EQ(ctl.mode(), DegradeMode::kNormal);
  ctl.on_pressure();
  EXPECT_EQ(ctl.mode(), DegradeMode::kNormal);  // streak of 1 < trip
  ctl.on_pressure();
  EXPECT_EQ(ctl.mode(), DegradeMode::kSync);
  ctl.on_pressure();
  ctl.on_pressure();
  EXPECT_EQ(ctl.mode(), DegradeMode::kDrop);
  // Recovery steps back one level at a time.
  ctl.on_clear();
  ctl.on_clear();
  EXPECT_EQ(ctl.mode(), DegradeMode::kSync);
  ctl.on_clear();
  ctl.on_clear();
  EXPECT_EQ(ctl.mode(), DegradeMode::kNormal);
  const DegradeStats st = ctl.stats();
  EXPECT_EQ(st.pressure_events, 4u);
  EXPECT_EQ(st.escalations, 2u);
  EXPECT_EQ(st.recoveries, 2u);
}

TEST(Degrade, EscalationStopsAtPolicyCeiling) {
  DegradePolicy p;
  p.allow_sync = true;
  p.allow_drop = false;  // kDrop not allowed
  p.trip_threshold = 1;
  DegradeController ctl(p);
  for (int i = 0; i < 5; ++i) ctl.on_pressure();
  EXPECT_EQ(ctl.mode(), DegradeMode::kSync);
}

TEST(Degrade, ServerDownForcesAtLeastSync) {
  DegradePolicy p;
  p.allow_sync = true;
  DegradeController ctl(p);
  ctl.on_server_down();
  EXPECT_TRUE(ctl.server_down());
  EXPECT_EQ(ctl.on_pressure(), DegradeMode::kSync);
  ctl.on_server_up();
  EXPECT_FALSE(ctl.server_down());
}

}  // namespace
}  // namespace dmr::fault

// ---------------------------------------------------------- checker

namespace dmr::check {
namespace {

TEST(FaultChecker, CleanLedgerBalances) {
  FaultChecker chk;
  chk.note_write(0, 1, WriteOutcome::kPublished);
  chk.note_write(1, 1, WriteOutcome::kPublished);
  chk.note_persist(0, 1, 2, Status::ok());
  const auto report = chk.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.published, 2u);
  EXPECT_EQ(report.persisted, 2u);
}

TEST(FaultChecker, DetectsLostBlocks) {
  FaultChecker chk;
  chk.note_write(0, 1, WriteOutcome::kPublished);
  chk.note_write(1, 1, WriteOutcome::kPublished);
  chk.note_persist(0, 1, 1, Status::ok());  // one block vanished
  const auto report = chk.finalize();
  EXPECT_FALSE(report.clean());
}

TEST(FaultChecker, DetectsDoublePersist) {
  FaultChecker chk;
  chk.note_write(0, 1, WriteOutcome::kPublished);
  chk.note_persist(0, 1, 1, Status::ok());
  chk.note_persist(0, 1, 1, Status::ok());
  const auto report = chk.finalize();
  EXPECT_FALSE(report.clean());
}

TEST(FaultChecker, SupersededAndFailedPersistsBalance) {
  FaultChecker chk;
  chk.note_write(0, 1, WriteOutcome::kPublished);
  chk.note_write(0, 1, WriteOutcome::kPublished);  // rewrite
  chk.note_superseded(1);
  chk.note_persist(0, 1, 1, Status::ok());
  chk.note_write(0, 2, WriteOutcome::kPublished);
  chk.note_persist(0, 2, 1, io_error("final failure"));
  const auto report = chk.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.superseded, 1u);
  EXPECT_EQ(report.failed_persists, 1u);
}

TEST(FaultChecker, DetectsSharedBufferLeak) {
  shm::SharedBuffer buffer(1 << 16, shm::AllocPolicy::kMutexFirstFit, 1);
  FaultChecker chk;
  chk.watch(buffer);
  auto block = buffer.allocate(1024, 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_FALSE(chk.finalize().clean());  // block never released
  buffer.deallocate(block.value());
  EXPECT_TRUE(chk.finalize().clean());
}

}  // namespace
}  // namespace dmr::check

// ---------------------------------------------------------- node level

namespace dmr::core {
namespace {

const char* kNodeXml = R"(
<damaris>
  <buffer size="1048576" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64,16"/>
  <variable name="temperature" layout="grid"/>
</damaris>)";

struct FaultNodeFixture : public ::testing::Test {
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("damaris_fault_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  void make_node(int clients, fault::FaultPlan plan,
                 fault::ResilienceConfig resilience,
                 check::FaultChecker* checker = nullptr) {
    auto cfg = config::Config::from_string(kNodeXml);
    ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
    if (!plan.empty()) {
      ASSERT_TRUE(plan.validate().is_ok());
      injector_ = std::make_unique<fault::FaultInjector>(std::move(plan));
    }
    NodeOptions opts;
    opts.output_dir = dir_.string();
    opts.file_prefix = "test";
    opts.resilience = resilience;
    opts.injector = injector_.get();
    opts.fault_checker = checker;
    node_ = std::make_unique<DamarisNode>(std::move(cfg.value()), clients,
                                          opts);
  }

  std::vector<std::byte> field() const {
    std::vector<std::byte> out(64 * 16 * 4);
    std::memset(out.data(), 0x2a, out.size());
    return out;
  }

  /// Runs `iterations` steps on every client (one thread each),
  /// collecting each write's status.
  std::vector<Status> run(int clients, int iterations) {
    std::vector<Status> statuses(
        static_cast<std::size_t>(clients) * iterations, Status::ok());
    EXPECT_TRUE(node_->start().is_ok());
    std::vector<std::thread> threads;
    const auto data = field();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client client = node_->client(c);
        for (int it = 0; it < iterations; ++it) {
          statuses[static_cast<std::size_t>(c) * iterations + it] =
              client.write("temperature", it, data);
          EXPECT_TRUE(client.end_iteration(it).is_ok());
        }
        EXPECT_TRUE(client.finalize().is_ok());
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_TRUE(node_->stop().is_ok());
    return statuses;
  }

  std::filesystem::path dir_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<DamarisNode> node_;
};

TEST_F(FaultNodeFixture, SyncFallbackDuringExhaustionWindow) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 2;
  spec.window_length = 2;  // iterations 2 and 3 cannot stage into shm
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_sync = true;
  res.degrade.trip_threshold = 1;
  check::FaultChecker checker;
  make_node(/*clients=*/2, plan, res, &checker);

  const auto statuses = run(2, 6);
  for (const Status& s : statuses) EXPECT_TRUE(s.is_ok()) << s.to_string();

  const ServerStats stats = node_->stats();
  // 2 clients x 2 windowed iterations wrote synchronously.
  EXPECT_EQ(stats.sync_files, 4u);
  EXPECT_EQ(node_->client_stats(0).sync_writes +
                node_->client_stats(1).sync_writes,
            4u);
  EXPECT_EQ(stats.failed_iterations, 0u);
  EXPECT_GT(stats.degrade.pressure_events, 0u);
  const auto report = checker.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.sync_written, 4u);
}

TEST_F(FaultNodeFixture, DropFallbackAccountsBytes) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 1;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_drop = true;  // drop is the only fallback
  res.degrade.trip_threshold = 1;
  check::FaultChecker checker;
  make_node(/*clients=*/1, plan, res, &checker);

  const auto statuses = run(1, 3);
  for (const Status& s : statuses) EXPECT_TRUE(s.is_ok()) << s.to_string();
  const ClientStats cs = node_->client_stats(0);
  EXPECT_EQ(cs.dropped_writes, 1u);
  EXPECT_EQ(cs.dropped_bytes, field().size());
  EXPECT_EQ(node_->stats().sync_files, 0u);
  const auto report = checker.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.dropped, 1u);
}

TEST_F(FaultNodeFixture, NoFallbackSurfacesExhaustion) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 1;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  // Default resilience: no sync, no drop — the historical behaviour.
  make_node(/*clients=*/1, plan, fault::ResilienceConfig{});

  const auto statuses = run(1, 3);
  EXPECT_TRUE(statuses[0].is_ok());
  EXPECT_EQ(statuses[1].code(), ErrorCode::kOutOfMemory);
  EXPECT_TRUE(statuses[2].is_ok());
}

TEST_F(FaultNodeFixture, PersistRetryRecoversIterations) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultSpec spec;
  spec.site = fault::Site::kStorageWrite;
  spec.rate = 0.5;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.retry.max_attempts = 12;
  res.retry.base_delay = 1e-4;
  res.retry.max_delay = 1e-3;
  check::FaultChecker checker;
  make_node(/*clients=*/1, plan, res, &checker);

  run(1, 8);
  const ServerStats stats = node_->stats();
  EXPECT_EQ(stats.failed_iterations, 0u);
  EXPECT_GT(stats.persistency.retries, 0u);
  EXPECT_EQ(stats.persistency.failed_writes, 0u);
  EXPECT_TRUE(stats.first_error.is_ok());
  const auto report = checker.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.retries, 0u);
}

TEST_F(FaultNodeFixture, PersistFailurePropagatesIntoStats) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kStorageWrite;
  spec.rate = 1.0;  // every persistency attempt fails
  plan.faults.push_back(spec);
  check::FaultChecker checker;
  make_node(/*clients=*/1, plan, fault::ResilienceConfig{}, &checker);

  run(1, 3);
  const ServerStats stats = node_->stats();
  EXPECT_EQ(stats.failed_iterations, 3u);
  EXPECT_FALSE(stats.first_error.is_ok());
  EXPECT_EQ(stats.persistency.failed_writes, 3u);
  ASSERT_EQ(stats.iterations.size(), 3u);
  for (const IterationRecord& rec : stats.iterations) {
    EXPECT_FALSE(rec.persisted);
  }
  // Failed iterations are accounted, not lost — and blocks are freed.
  const auto report = checker.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.failed_persists, 3u);
}

TEST_F(FaultNodeFixture, InjectedCrashRestartsAndRecovers) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kCoreCrash;
  spec.window_start = 1;
  spec.window_length = 1;
  spec.stall_seconds = 0.002;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_sync = true;
  check::FaultChecker checker;
  make_node(/*clients=*/1, plan, res, &checker);

  const auto statuses = run(1, 4);
  for (const Status& s : statuses) EXPECT_TRUE(s.is_ok()) << s.to_string();
  const ServerStats stats = node_->stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.failed_iterations, 0u);
  EXPECT_TRUE(checker.finalize().clean());
}

TEST_F(FaultNodeFixture, IdenticalSeedIdenticalOutcome) {
  const auto run_once = [&](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::FaultSpec eio;
    eio.site = fault::Site::kStorageWrite;
    eio.rate = 0.4;
    plan.faults.push_back(eio);
    fault::FaultSpec shm;
    shm.site = fault::Site::kShmExhaust;
    shm.window_start = 3;
    shm.window_length = 2;
    plan.faults.push_back(shm);
    fault::ResilienceConfig res;
    res.retry.max_attempts = 6;
    res.retry.base_delay = 1e-4;
    res.retry.max_delay = 1e-3;
    res.degrade.allow_sync = true;
    res.degrade.trip_threshold = 1;
    make_node(/*clients=*/2, plan, res);
    run(2, 8);
    const ServerStats stats = node_->stats();
    const auto outcome =
        std::make_tuple(stats.sync_files, stats.failed_iterations,
                        stats.persistency.retries, injector_->total_injected());
    node_.reset();
    injector_.reset();
    return outcome;
  };
  const auto a = run_once(7);
  EXPECT_EQ(a, run_once(7));
  EXPECT_GT(std::get<3>(a), 0u);
}

// The zero-copy alloc/commit path publishes without copy_write; its
// blocks must enter the ledger like written ones.
TEST_F(FaultNodeFixture, AllocCommitIsAccountedInLedger) {
  check::FaultChecker checker;
  make_node(/*clients=*/1, fault::FaultPlan{}, fault::ResilienceConfig{},
            &checker);
  ASSERT_TRUE(node_->start().is_ok());
  Client client = node_->client(0);
  auto span = client.alloc("temperature", 0);
  ASSERT_TRUE(span.is_ok()) << span.status().to_string();
  std::memset(span.value().data(), 0x2a, span.value().size());
  ASSERT_TRUE(client.commit("temperature", 0).is_ok());
  ASSERT_TRUE(client.end_iteration(0).is_ok());
  ASSERT_TRUE(client.finalize().is_ok());
  ASSERT_TRUE(node_->stop().is_ok());
  const auto report = checker.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.published, 1u);
  EXPECT_EQ(report.persisted, 1u);
}

// Mixed plan under real client threads: the chaos scenario exercised by
// the TSan matrix (scripts/check.sh --tsan).
TEST_F(FaultNodeFixture, FaultChaosMixedPlanUnderThreads) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultSpec eio;
  eio.site = fault::Site::kStorageWrite;
  eio.rate = 0.3;
  plan.faults.push_back(eio);
  fault::FaultSpec shm;
  shm.site = fault::Site::kShmExhaust;
  shm.window_start = 2;
  shm.window_length = 2;
  plan.faults.push_back(shm);
  fault::FaultSpec crash;
  crash.site = fault::Site::kCoreCrash;
  crash.window_start = 4;
  crash.window_length = 1;
  crash.stall_seconds = 0.001;
  plan.faults.push_back(crash);
  fault::ResilienceConfig res;
  res.retry.max_attempts = 8;
  res.retry.base_delay = 1e-4;
  res.retry.max_delay = 1e-3;
  res.degrade.allow_sync = true;
  res.degrade.allow_drop = true;
  res.degrade.trip_threshold = 1;
  check::FaultChecker checker;
  make_node(/*clients=*/4, plan, res, &checker);

  const auto statuses = run(4, 8);
  for (const Status& s : statuses) EXPECT_TRUE(s.is_ok()) << s.to_string();
  const auto report = checker.finalize();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// ---------------------------------------------------------- chaos gates
//
// The paper's §III block/sync options under injected faults, at 3
// clients x 16 iterations of one 64 KiB grid each. A block counts as
// recovered when it was persisted or written synchronously; the
// FaultChecker accounts for every one.

constexpr int kChaosClients = 3;
constexpr int kChaosIterations = 16;
constexpr std::uint64_t kChaosBlocks = kChaosClients * kChaosIterations;

const char* kChaosXml = R"(
<damaris>
  <buffer size="16777216" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="128,128"/>
  <variable name="field" layout="grid"/>
</damaris>)";

struct ChaosOutcome {
  std::uint64_t recovered = 0;
  std::uint64_t failed_client_calls = 0;
  std::uint64_t failed_iterations = 0;
  std::uint64_t sync_files = 0;
  std::uint64_t dropped_writes = 0;
  std::uint64_t injected = 0;
  std::uint64_t crashes = 0;
  check::FaultChecker::Report ledger;

  auto fingerprint() const {
    return std::make_tuple(recovered, failed_client_calls, failed_iterations,
                           sync_files, dropped_writes, injected, crashes);
  }
};

/// A write waits at most 50 ms for buffer space, and one pressure event
/// degrades later writes (to the synchronous path when `allow_sync`); a
/// failed persist is tried `attempts` times with 0.1-1 ms backoff.
fault::ResilienceConfig chaos_resilience(bool allow_sync, int attempts) {
  fault::ResilienceConfig res;
  res.degrade.block_timeout_ms = 50;
  res.degrade.trip_threshold = 1;
  res.degrade.allow_sync = allow_sync;
  res.retry.max_attempts = attempts;
  res.retry.base_delay = 1e-4;
  res.retry.max_delay = 1e-3;
  return res;
}

/// Runs the chaos workload under `plan`. With `hold_after` >= 0 every
/// client waits after that iteration until a shard queue has closed, for
/// at most 10 s (a close that never comes shows as sync_files == 0).
ChaosOutcome run_chaos(const fault::FaultPlan& plan,
                       const fault::ResilienceConfig& resilience,
                       int hold_after = -1) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_chaos_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cfg = config::Config::from_string(kChaosXml);
  EXPECT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  std::unique_ptr<fault::FaultInjector> injector;
  if (!plan.empty()) injector = std::make_unique<fault::FaultInjector>(plan);
  check::FaultChecker checker;
  NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "chaos";
  opts.resilience = resilience;
  opts.injector = injector.get();
  opts.fault_checker = &checker;
  DamarisNode node(std::move(cfg.value()), kChaosClients, opts);

  const std::vector<std::byte> payload(128 * 128 * 4, std::byte{0x42});
  std::vector<std::uint64_t> failures(kChaosClients, 0);
  EXPECT_TRUE(node.start().is_ok());
  std::vector<std::thread> threads;
  for (int c = 0; c < kChaosClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = node.client(c);
      for (int it = 0; it < kChaosIterations; ++it) {
        if (!client.write("field", it, payload).is_ok()) ++failures[c];
        if (!client.end_iteration(it).is_ok()) ++failures[c];
        if (it != hold_after) continue;
        const auto deadline = WallClock::now() + std::chrono::seconds(10);
        while (node.stats().queue_closes == 0 && WallClock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (!client.finalize().is_ok()) ++failures[c];
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(node.stop().is_ok());

  ChaosOutcome out;
  const ServerStats stats = node.stats();
  for (int c = 0; c < kChaosClients; ++c) {
    out.failed_client_calls += failures[c];
    out.dropped_writes += node.client_stats(c).dropped_writes;
  }
  out.failed_iterations = stats.failed_iterations;
  out.sync_files = stats.sync_files;
  out.crashes = stats.crashes;
  out.injected = injector ? injector->total_injected() : 0;
  out.ledger = checker.finalize();
  out.recovered = out.ledger.persisted + out.ledger.sync_written;
  std::filesystem::remove_all(dir);
  return out;
}

TEST(FaultChaos, CleanRunRecoversEveryBlock) {
  const ChaosOutcome clean =
      run_chaos(fault::FaultPlan{}, chaos_resilience(false, 6));
  EXPECT_EQ(clean.recovered, kChaosBlocks);
}

// Transient EIO at rate 0.25 plus a forced shm-exhaustion window over
// iterations 5-6, sync fallback, seed 42. At that rate six persist
// attempts still lose about one iteration in 4000 (and seed 42 hits such
// a streak); twelve push the residual risk below 1e-7.
TEST(FaultChaos, AcceptancePlanRecoversEveryBlockReproducibly) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.faults.push_back(fault::rate_rule(fault::Site::kStorageWrite, 0.25));
  plan.faults.push_back(fault::window_rule(fault::Site::kShmExhaust, 5, 2));
  const fault::ResilienceConfig res = chaos_resilience(true, 12);
  const ChaosOutcome first = run_chaos(plan, res);
  EXPECT_EQ(first.recovered, kChaosBlocks);
  EXPECT_EQ(first.failed_iterations, 0u);
  EXPECT_EQ(first.failed_client_calls, 0u);
  EXPECT_TRUE(first.ledger.clean()) << first.ledger.to_string();
  EXPECT_GT(first.injected, 0u);
  EXPECT_EQ(first.fingerprint(), run_chaos(plan, res).fingerprint());
}

// The shard queue closes after iteration 12 and the clients wait for the
// close, so their last three iterations take the synchronous path.
TEST(FaultChaos, QueueCloseFallsBackToSyncWrites) {
  constexpr int kCloseAfter = 12;
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.faults.push_back(
      fault::window_rule(fault::Site::kShmQueueClose, kCloseAfter, 1));
  const ChaosOutcome closed =
      run_chaos(plan, chaos_resilience(true, 6), kCloseAfter);
  EXPECT_TRUE(closed.ledger.clean()) << closed.ledger.to_string();
  EXPECT_GT(closed.sync_files, 0u);
}

}  // namespace
}  // namespace dmr::core

// ---------------------------------------------------------- DES side

namespace dmr::strategies {
namespace {

TEST(FaultStrategies, StorageRetryScheduleIsDeterministic) {
  const auto run_once = [] {
    fault::FaultPlan plan;
    plan.seed = 11;
    fault::FaultSpec eio;
    eio.site = fault::Site::kStorageWrite;
    eio.rate = 0.2;
    plan.faults.push_back(eio);
    fault::FaultInjector injector(plan);
    RunConfig cfg = experiments::kraken_config(
        StrategyKind::kFilePerProcess, 48, /*iterations=*/3,
        /*write_interval=*/1, /*iteration_seconds=*/4.1, /*seed=*/7);
    cfg.injector = &injector;
    cfg.storage_retry.max_attempts = 4;
    cfg.storage_retry.base_delay = 1e-3;
    cfg.storage_retry.max_delay = 1e-2;
    RunResult res = run_strategy(cfg);
    return std::make_tuple(res.storage_retries, res.failed_writes,
                           res.total_runtime,
                           injector.injected(fault::Site::kStorageWrite));
  };
  const auto a = run_once();
  EXPECT_EQ(a, run_once());
  EXPECT_GT(std::get<3>(a), 0u);  // faults actually hit the writes
}

TEST(FaultStrategies, ServerSlowWindowStretchesRuntime) {
  const auto runtime = [](const fault::FaultInjector* injector) {
    RunConfig cfg = experiments::kraken_config(
        StrategyKind::kFilePerProcess, 48, /*iterations=*/2,
        /*write_interval=*/1, /*iteration_seconds=*/4.1, /*seed=*/7);
    cfg.injector = injector;
    return run_strategy(cfg).total_runtime;
  };
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kServerSlow;
  spec.window_start = 0;
  spec.window_length = 1e9;  // whole run
  spec.factor = 8.0;
  plan.faults.push_back(spec);
  const fault::FaultInjector slow(plan);
  EXPECT_GT(runtime(&slow), runtime(nullptr) * 1.05);
}

}  // namespace
}  // namespace dmr::strategies
