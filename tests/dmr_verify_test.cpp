// Golden-output tests for tools/dmr_verify: each fixture mini-tree
// under tools/dmr_verify/testdata/ seeds one violation class of the
// analyzer (determinism sinks and wall-clock reads, atomics discipline,
// sync channels, the project rules), plus a self-check that the real
// tree is clean under its audited allowlist. The tests spawn the actual
// binary — the contract under test is the CLI (exit code + findings
// lines + cache messages), exactly what scripts/check.sh --static
// consumes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef DMR_VERIFY_BIN
#error "DMR_VERIFY_BIN must be defined by the build"
#endif
#ifndef DMR_VERIFY_TESTDATA
#error "DMR_VERIFY_TESTDATA must be defined by the build"
#endif
#ifndef DMR_REPO_ROOT
#error "DMR_REPO_ROOT must be defined by the build"
#endif

struct VerifyRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

VerifyRun run_verify(const std::string& args) {
  // Per-process output file: ctest runs each TEST as its own process,
  // concurrently — a shared fixed name would make parallel runs
  // clobber each other's captured output.
  const std::string out_path = ::testing::TempDir() + "/dmr_verify_out_" +
                               std::to_string(::getpid()) + ".txt";
  const std::string cmd = std::string(DMR_VERIFY_BIN) + " " + args + " > " +
                          out_path + " 2>&1";
  const int rc = std::system(cmd.c_str());
  VerifyRun r;
  r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  r.output = ss.str();
  return r;
}

VerifyRun run_on_fixture(const std::string& fixture,
                         const std::string& extra = "") {
  const std::string root = std::string(DMR_VERIFY_TESTDATA) + "/" + fixture;
  return run_verify("--root " + root + " " + extra);
}

TEST(DmrVerify, CleanTreePasses) {
  const VerifyRun r = run_on_fixture("clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s), 0 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, UnorderedSinkFlagsAllThreeShapes) {
  const VerifyRun r = run_on_fixture("unordered_sink");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Sink called inside the loop.
  EXPECT_NE(r.output.find("feeds determinism sink 'fnv1a'"),
            std::string::npos)
      << r.output;
  // FP accumulation inside the loop.
  EXPECT_NE(r.output.find("floating-point accumulation into 'sum'"),
            std::string::npos)
      << r.output;
  // Taint: variable written in the loop reaches a sink after it.
  EXPECT_NE(r.output.find(
                "'out' is written while iterating unordered container"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("3 finding(s), 3 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, PointerKeyFlagsOnlyDefaultComparator) {
  const VerifyRun r = run_on_fixture("pointer_key");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-pointer-key]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/reg.hpp:12"), std::string::npos) << r.output;
  // The comparator-supplied map and the pointer-as-value map are clean.
  EXPECT_NE(r.output.find("1 finding(s), 1 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, WallClockReachableFromSimIsReportedWithPath) {
  const VerifyRun r = run_on_fixture("wall_in_sim");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-wall-in-sim]"), std::string::npos)
      << r.output;
  // The interprocedural chain is spelled out, two hops deep.
  EXPECT_NE(
      r.output.find("step_engine -> jitter_probe -> wall_seconds"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("steady_clock::now"), std::string::npos)
      << r.output;
  // Reads through a `using` or `typedef` alias of a std clock.
  EXPECT_NE(r.output.find("src/des/alias.cpp:10: [det-wall-in-sim] "
                          "simulated-time function reaches a wall-clock "
                          "read: aliased_tick (Clock::now)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/des/alias.cpp:15: [det-wall-in-sim] "
                          "simulated-time function reaches a wall-clock "
                          "read: typedef_tick (SysClock::now)"),
            std::string::npos)
      << r.output;
  // src/mix.cpp adds the fourth; DmrLint.ClockMixingIsFlaggedPerFunction
  // asserts it.
  EXPECT_NE(r.output.find("4 finding(s), 4 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, BareStdMutexIsFlagged) {
  const VerifyRun r = run_on_fixture("bare_mutex");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/q.hpp:4: [mutex-annotation] bare std::mutex"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, MutexGuardingNothingIsFlagged) {
  const VerifyRun r = run_on_fixture("idle_mutex");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/idle.hpp:3: [mutex-annotation] Mutex member "
                          "'lonely_mutex_' guards nothing"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, SpinMutexGuardingNothingIsFlagged) {
  // The write path's spin-then-park lock is held to the same rule.
  const VerifyRun r = run_on_fixture("idle_mutex");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/idle_spin.hpp:3: [mutex-annotation] Mutex "
                          "member 'lonely_spin_' guards nothing"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, DiscardedStatusIsFlagged) {
  const VerifyRun r = run_on_fixture("discarded");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/io.cpp:2: [discarded-status] (void)-cast "
                          "discards the Status/Result of 'do_io'"),
            std::string::npos)
      << r.output;
  // Exactly one finding: the handled call site is clean.
  EXPECT_NE(r.output.find("1 finding(s), 1 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, UndocumentedConfigKeyIsFlagged) {
  const VerifyRun r = run_on_fixture("config_doc");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/config/config.cpp:4: [config-doc] config key "
                          "\"secret_knob\""),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("documented_key"), std::string::npos) << r.output;
}

TEST(DmrVerify, ImplicitSeqCstIsFlaggedInBothShapes) {
  const VerifyRun r = run_on_fixture("atomics_implicit");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("'n_.fetch_add' without an explicit memory_order"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bare use of std::atomic 'n_'"), std::string::npos)
      << r.output;
  // The explicit-acquire sibling stays clean: exactly two findings.
  EXPECT_NE(r.output.find("2 finding(s), 2 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, RelaxedWithoutJustificationIsFlagged) {
  const VerifyRun r = run_on_fixture("atomics_relaxed");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[atomic-relaxed-justify]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'v_.store'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'v_.load'"), std::string::npos) << r.output;
}

TEST(DmrVerify, AllowlistSuppressesJustifiedRelaxed) {
  const std::string root =
      std::string(DMR_VERIFY_TESTDATA) + "/atomics_relaxed";
  const VerifyRun r =
      run_verify("--root " + root + " --allowlist " + root + "/allowlist.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 finding(s), 0 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, AllowlistSuppressesProjectRuleFinding) {
  // The entry's symbol is `std::mutex`: only the first ':' splits it
  // from the path.
  const std::string root = std::string(DMR_VERIFY_TESTDATA) + "/bare_mutex";
  const VerifyRun r =
      run_verify("--root " + root + " --allowlist " + root + "/allowlist.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 finding(s), 0 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, AllowlistEntryWithoutJustificationIsItselfAFinding) {
  const std::string root =
      std::string(DMR_VERIFY_TESTDATA) + "/atomics_relaxed";
  const VerifyRun r = run_verify("--root " + root + " --allowlist " + root +
                                 "/allowlist_bad.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist] malformed allowlist entry"),
            std::string::npos)
      << r.output;
  // The malformed entry suppresses nothing: the relaxed findings stay.
  EXPECT_NE(r.output.find("[atomic-relaxed-justify]"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, UnusedAllowlistEntryWarns) {
  // The relaxed allowlist matches nothing in the clean fixture.
  const VerifyRun r = run_on_fixture(
      "clean", "--allowlist " + std::string(DMR_VERIFY_TESTDATA) +
                   "/atomics_relaxed/allowlist.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unused allowlist entry"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, ShmWithoutSyncTableIsDemanded) {
  const VerifyRun r = run_on_fixture("sync_missing");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no src/shm/sync_channels.hpp channel table"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, SyncChannelTableDriftAndSitesAreChecked) {
  const VerifyRun r = run_on_fixture("sync_channel");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Kind with no table entry, and table entry naming an unknown Kind.
  EXPECT_NE(r.output.find("SyncPoint::Kind::kOrphan"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "'ghost_mutex' names SyncPoint::Kind::kGhost"),
            std::string::npos)
      << r.output;
  // Unannotated acquire site and annotation naming an unknown channel.
  EXPECT_NE(r.output.find("without a `sync: <channel>` annotation"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("`sync: bogus` names a channel"),
            std::string::npos)
      << r.output;
  // Dead entries on both the sync-point and the atomic side.
  EXPECT_NE(r.output.find("sync-point channel 'ghost_mutex' (kGhost) lacks"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("atomic channel 'dead_channel' lacks"),
            std::string::npos)
      << r.output;
  // Fully paired channels must NOT be reported dead: queue_mutex is
  // covered by the on_acquire/on_release hooks, flag_channel by its
  // two `sync:` annotations.
  EXPECT_EQ(r.output.find("sync-point channel 'queue_mutex'"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("atomic channel 'flag_channel'"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, CacheHitIsReportedAndInvalidatedOnChange) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/dmr_verify_cache_fixture_" +
                          std::to_string(::getpid());
  const std::string cache = dir + ".cache";
  fs::remove_all(dir);
  fs::remove(cache);
  fs::copy(std::string(DMR_VERIFY_TESTDATA) + "/clean", dir,
           fs::copy_options::recursive);
  const std::string args = "--root " + dir + " --cache " + cache;

  const VerifyRun cold = run_verify(args);
  EXPECT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_EQ(cold.output.find("analysis cache hit"), std::string::npos)
      << cold.output;

  const VerifyRun warm = run_verify(args);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("analysis cache hit"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("0 finding(s), 0 unsuppressed"),
            std::string::npos)
      << warm.output;

  // Any content change invalidates the whole-run cache.
  std::ofstream(dir + "/src/util/stats.hpp", std::ios::app)
      << "\n// touched\n";
  const VerifyRun cool = run_verify(args);
  EXPECT_EQ(cool.exit_code, 0) << cool.output;
  EXPECT_EQ(cool.output.find("analysis cache hit"), std::string::npos)
      << cool.output;

  fs::remove_all(dir);
  fs::remove(cache);
}

// config-doc reads DESIGN.md, which is not under src/: the cache must
// still key it, or a stale run would hide a fixed (or new) finding.
TEST(DmrVerify, CacheIsInvalidatedByDesignDocEdit) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/dmr_verify_design_cache_" +
                          std::to_string(::getpid());
  const std::string cache = dir + ".cache";
  fs::remove_all(dir);
  fs::remove(cache);
  fs::copy(std::string(DMR_VERIFY_TESTDATA) + "/config_doc", dir,
           fs::copy_options::recursive);
  const std::string args = "--root " + dir + " --cache " + cache;

  const VerifyRun cold = run_verify(args);
  EXPECT_EQ(cold.exit_code, 1) << cold.output;
  const VerifyRun warm = run_verify(args);
  EXPECT_EQ(warm.exit_code, 1) << warm.output;
  EXPECT_NE(warm.output.find("analysis cache hit"), std::string::npos)
      << warm.output;

  std::ofstream(dir + "/DESIGN.md", std::ios::app) << "And `secret_knob`.\n";
  const VerifyRun edited = run_verify(args);
  EXPECT_EQ(edited.exit_code, 0) << edited.output;
  EXPECT_EQ(edited.output.find("analysis cache hit"), std::string::npos)
      << edited.output;
  EXPECT_NE(edited.output.find("0 finding(s), 0 unsuppressed"),
            std::string::npos)
      << edited.output;

  fs::remove_all(dir);
  fs::remove(cache);
}

TEST(DmrVerify, JsonOutputIsWritten) {
  const std::string json =
      ::testing::TempDir() + "/dmr_verify_findings_" +
      std::to_string(::getpid()) + ".json";
  const VerifyRun r = run_on_fixture("unordered_sink", "--json " + json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"rule\": \"det-unordered-sink\""),
            std::string::npos)
      << ss.str();
  EXPECT_NE(ss.str().find("\"unsuppressed\": 3"), std::string::npos)
      << ss.str();
  std::remove(json.c_str());
}

// The gate itself: the real tree must stay clean (the binary picks up
// the audited tools/dmr_verify/allowlist.txt under --root). A
// regression here means a new determinism, atomics or project-rule
// violation landed.
TEST(DmrVerify, RealTreeIsClean) {
  const VerifyRun r = run_verify(std::string("--root ") + DMR_REPO_ROOT);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unused allowlist entry"), std::string::npos)
      << r.output;
}

// DmrLint: the project rule family (mutex-annotation, discarded-status,
// config-doc) and the per-function wall-clock check, each run end to
// end through the same binary.

TEST(DmrLint, CleanTreePasses) {
  // The fixture holds a dmr::Mutex that guards a member and a
  // DESIGN.md: no project rule fires.
  const VerifyRun r = run_on_fixture("clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"[mutex-annotation]", "[discarded-status]", "[config-doc]"}) {
    EXPECT_EQ(r.output.find(rule), std::string::npos) << r.output;
  }
  EXPECT_NE(r.output.find("0 unsuppressed"), std::string::npos) << r.output;
}

TEST(DmrLint, ClockMixingIsFlaggedPerFunction) {
  // Outside the sim roots, a SimTime parameter marks simulated-time
  // code: drift() also reads the wall clock, its sibling pure_sim()
  // in the same file does not and must not be flagged.
  const VerifyRun r = run_on_fixture("wall_in_sim");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/mix.cpp:3: [det-wall-in-sim] simulated-time "
                          "function reaches a wall-clock read: drift "),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("pure_sim"), std::string::npos) << r.output;
}

TEST(DmrLint, AllowlistEntryWithoutJustificationIsItselfAFinding) {
  const std::string root = std::string(DMR_VERIFY_TESTDATA) + "/bare_mutex";
  const VerifyRun r = run_verify("--root " + root + " --allowlist " + root +
                                 "/allowlist_bad.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist] malformed allowlist entry"),
            std::string::npos)
      << r.output;
  // The malformed entry suppresses nothing: the underlying finding stays.
  EXPECT_NE(r.output.find("src/q.hpp:4: [mutex-annotation]"),
            std::string::npos)
      << r.output;
}

TEST(DmrLint, JsonOutputIsWritten) {
  const std::string json = ::testing::TempDir() + "/dmr_lint_findings_" +
                           std::to_string(::getpid()) + ".json";
  const VerifyRun r = run_on_fixture("bare_mutex", "--json " + json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("{\"rule\": \"mutex-annotation\", \"file\": "
                          "\"src/q.hpp\", \"line\": 4, \"symbol\": "
                          "\"std::mutex\", \"suppressed\": false"),
            std::string::npos)
      << ss.str();
  EXPECT_NE(ss.str().find("\"unsuppressed\": 1"), std::string::npos)
      << ss.str();
  std::remove(json.c_str());
}

// The real tree's project-rule findings are all audited: each one the
// allowlist covers shows up as suppressed, none is left over.
TEST(DmrLint, RealTreeIsClean) {
  const VerifyRun r =
      run_verify(std::string("--root ") + DMR_REPO_ROOT + " --verbose");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[mutex-annotation] suppressed: Mutex member "
                          "'g_emit_mutex'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[discarded-status] suppressed"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(" 0 unsuppressed"), std::string::npos) << r.output;
}

}  // namespace
