// The task-aware async write surface (core/async.hpp, DESIGN.md §14.1):
// ticket lifecycle and the callback-before-done ordering contract,
// write_async running on the caller, dependence chains (within a client,
// across clients, and on the caller's own ticket), WriteBatch, ordering
// against end_iteration() and blocking writes, degrade-ladder outcomes (a
// ticket that fell to sync/drop reports the same resolution the blocking
// path would have returned), and the determinism of completion timelines
// across identical runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "check/fault_checker.hpp"
#include "core/damaris.hpp"
#include "fault/fault.hpp"
#include "format/dh5.hpp"

namespace dmr::core {
namespace {

const char* kAsyncXml = R"(
<damaris>
  <buffer size="1048576" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64,16"/>
  <variable name="temperature" layout="grid"/>
  <variable name="pressure" layout="grid"/>
</damaris>)";

struct AsyncNodeFixture : public ::testing::Test {
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("damaris_async_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  void make_node(int clients, fault::FaultPlan plan = {},
                 fault::ResilienceConfig resilience = {}) {
    auto cfg = config::Config::from_string(kAsyncXml);
    ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
    if (!plan.empty()) {
      ASSERT_TRUE(plan.validate().is_ok());
      injector_ = std::make_unique<fault::FaultInjector>(std::move(plan));
    }
    NodeOptions opts;
    opts.output_dir = dir_.string();
    opts.file_prefix = "async";
    opts.resilience = resilience;
    opts.injector = injector_.get();
    node_ = std::make_unique<DamarisNode>(std::move(cfg.value()), clients,
                                          opts);
    ASSERT_TRUE(node_->start().is_ok());
  }

  std::vector<std::byte> field(std::byte fill = std::byte{0x2a}) const {
    std::vector<std::byte> out(64 * 16 * 4);
    std::memset(out.data(), static_cast<int>(fill), out.size());
    return out;
  }

  void finish(Client& client, std::int64_t last_iteration) {
    for (std::int64_t it = 0; it <= last_iteration; ++it) {
      EXPECT_TRUE(client.end_iteration(it).is_ok());
    }
    EXPECT_TRUE(client.finalize().is_ok());
    EXPECT_TRUE(node_->stop().is_ok());
  }

  std::filesystem::path dir_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<DamarisNode> node_;
};

// ------------------------------------------------------ ticket lifecycle

TEST_F(AsyncNodeFixture, TicketCompletesWithPublishedOutcome) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  ASSERT_TRUE(t.valid());
  EXPECT_GT(t.id(), 0u);
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  EXPECT_GT(t.completion_seq(), 0u);
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, CopiesObserveTheSameCompletion) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  WriteTicket copy = t;
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_TRUE(copy.done());
  EXPECT_EQ(copy.id(), t.id());
  EXPECT_EQ(copy.completion_seq(), t.completion_seq());
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, CallerBufferIsFreeAfterSubmission) {
  // The payload is copied at submission: clobbering the source after
  // write_async() returns must not corrupt the write.
  make_node(1);
  Client client = node_->client(0);
  auto data = field(std::byte{0x11});
  WriteTicket t = client.write_async("temperature", 0, data);
  std::memset(data.data(), 0xff, data.size());  // caller reuses the buffer
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, InvalidTicketFailsImmediately) {
  WriteTicket t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.id(), 0u);
  EXPECT_FALSE(t.wait().is_ok());
  EXPECT_EQ(t.completion_seq(), 0u);
}

TEST_F(AsyncNodeFixture, UnknownVariableYieldsFailedTicket) {
  // Validation failures return an already-failed ticket, never an
  // invalid handle — the caller's wait()/batch logic stays uniform.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::atomic<int> callback_runs{0};
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket&) { ++callback_runs; };
  WriteTicket t = client.write_async("no_such_var", 0, data, std::move(opts));
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(t.done());
  EXPECT_FALSE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kFailed);
  EXPECT_EQ(callback_runs.load(), 1);
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, TicketIsDoneWhenWriteAsyncReturns) {
  // write_async runs on the caller: no thread hop, so the ticket is
  // complete on return and its callback ran on this thread.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::thread::id callback_thread;
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket&) {
    callback_thread = std::this_thread::get_id();
  };
  WriteTicket t = client.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  EXPECT_EQ(callback_thread, std::this_thread::get_id());
  EXPECT_EQ(node_->outstanding_tickets(), 0u);
  finish(client, 0);
}

// ------------------------------------------------- callback ordering

TEST_F(AsyncNodeFixture, CallbackRunsBeforeTicketReportsDone) {
  // The contract: status/outcome are final when the callback runs, and
  // done() flips only after the callback returns — so wait() returning
  // implies the callback finished.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::atomic<bool> was_done_inside{true};
  std::atomic<bool> outcome_was_final{false};
  std::atomic<int> callback_runs{0};
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket& t) {
    was_done_inside = t.done();
    outcome_was_final = t.outcome() == WriteOutcome::kPublished;
    ++callback_runs;
  };
  WriteTicket t = client.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(callback_runs.load(), 1);
  EXPECT_FALSE(was_done_inside.load());
  EXPECT_TRUE(outcome_was_final.load());
  finish(client, 0);
}

// ------------------------------------------------- dependence chains

TEST_F(AsyncNodeFixture, DependenceOrdersCompletionWithinAClient) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t1 = client.write_async("temperature", 0, data);
  AsyncWriteOptions opts;
  opts.after.push_back(t1);
  WriteTicket t2 = client.write_async("pressure", 0, data, std::move(opts));
  EXPECT_TRUE(t2.wait().is_ok());
  EXPECT_TRUE(t1.done());  // t2 completing implies t1 completed
  EXPECT_LT(t1.completion_seq(), t2.completion_seq());
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, DependencesCrossClients) {
  make_node(2);
  Client c0 = node_->client(0);
  Client c1 = node_->client(1);
  const auto data = field();
  WriteTicket t0 = c0.write_async("temperature", 0, data);
  AsyncWriteOptions opts;
  opts.after.push_back(t0);
  WriteTicket t1 = c1.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(t1.wait().is_ok());
  EXPECT_LT(t0.completion_seq(), t1.completion_seq());
  EXPECT_TRUE(c0.end_iteration(0).is_ok());
  EXPECT_TRUE(c1.end_iteration(0).is_ok());
  EXPECT_TRUE(c0.finalize().is_ok());
  EXPECT_TRUE(c1.finalize().is_ok());
  EXPECT_TRUE(node_->stop().is_ok());
}

TEST_F(AsyncNodeFixture, CallbackMayNameItsOwnTicket) {
  // A dependence is met once its write resolved, so a write submitted
  // from a callback may depend on the ticket whose callback is running.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket inner;
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket& self) {
    AsyncWriteOptions dep;
    dep.after.push_back(self);
    inner = client.write_async("pressure", 0, data, std::move(dep));
  };
  WriteTicket outer =
      client.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(outer.done());
  ASSERT_TRUE(inner.valid());
  EXPECT_TRUE(inner.wait().is_ok());
  EXPECT_EQ(inner.outcome(), WriteOutcome::kPublished);
  EXPECT_LT(outer.completion_seq(), inner.completion_seq());
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, CrossClientDependenceWaitsForTheOutcomeOnly) {
  // Client 0 is held inside its callback, so its ticket has an outcome
  // but is not done. A write on client 1's thread that depends on it
  // completes meanwhile, after that outcome.
  make_node(2);
  Client c0 = node_->client(0);
  Client c1 = node_->client(1);
  const auto data = field();
  std::promise<WriteTicket> handed_over;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  AsyncWriteOptions opts0;
  opts0.on_complete = [&](const WriteTicket& self) {
    handed_over.set_value(self);
    opened.wait();
  };
  std::thread client0([&] {
    EXPECT_TRUE(
        c0.write_async("temperature", 0, data, std::move(opts0)).done());
  });
  const WriteTicket t0 = handed_over.get_future().get();
  EXPECT_FALSE(t0.done());  // its callback is still running
  std::future<WriteTicket> dependent = std::async(std::launch::async, [&] {
    AsyncWriteOptions opts1;
    opts1.after.push_back(t0);
    return c1.write_async("temperature", 0, data, std::move(opts1));
  });
  EXPECT_EQ(dependent.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "the dependent write waited for client 0's callback";
  EXPECT_FALSE(t0.done());
  gate.set_value();
  client0.join();
  const WriteTicket t1 = dependent.get();
  EXPECT_TRUE(t1.done());
  EXPECT_EQ(t1.outcome(), WriteOutcome::kPublished);
  EXPECT_LT(t0.completion_seq(), t1.completion_seq());
  EXPECT_TRUE(c0.end_iteration(0).is_ok());
  EXPECT_TRUE(c1.end_iteration(0).is_ok());
  EXPECT_TRUE(c0.finalize().is_ok());
  EXPECT_TRUE(c1.finalize().is_ok());
  EXPECT_TRUE(node_->stop().is_ok());
}

TEST_F(AsyncNodeFixture, ChainOfDependencesCompletesInOrder) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::vector<WriteTicket> chain;
  for (int i = 0; i < 6; ++i) {
    AsyncWriteOptions opts;
    if (!chain.empty()) opts.after.push_back(chain.back());
    chain.push_back(
        client.write_async("temperature", i, data, std::move(opts)));
  }
  EXPECT_TRUE(chain.back().wait().is_ok());
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i - 1].completion_seq(), chain[i].completion_seq());
  }
  finish(client, 5);
}

// --------------------------------------------------------- WriteBatch

TEST_F(AsyncNodeFixture, BatchWaitsForEveryTicket) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.all_done());  // vacuously
  EXPECT_TRUE(batch.wait_all().is_ok());
  batch.add(client.write_async("temperature", 0, data));
  batch.add(client.write_async("pressure", 0, data));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch.wait_all().is_ok());
  EXPECT_TRUE(batch.all_done());
  for (const WriteTicket& t : batch.tickets()) {
    EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  }
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, BatchReportsFirstFailureInSubmissionOrder) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteBatch batch;
  batch.add(client.write_async("temperature", 0, data));
  batch.add(client.write_async("bogus_a", 0, data));
  batch.add(client.write_async("bogus_b", 0, data));
  const Status st = batch.wait_all();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.to_string(), batch.tickets()[1].status().to_string());
  finish(client, 0);
}

// ------------------------------------------- ordering and shutdown

TEST_F(AsyncNodeFixture, TicketsAreDoneBeforeEndIteration) {
  // write_async runs on the caller, so a ticket is done when the call
  // returns: end_iteration has nothing left to wait for.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(client.write_async("temperature", 0, data));
  }
  EXPECT_TRUE(client.end_iteration(0).is_ok());
  for (const WriteTicket& t : tickets) {
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(t.status().is_ok());
  }
  EXPECT_TRUE(client.finalize().is_ok());
  EXPECT_TRUE(node_->stop().is_ok());
}

TEST_F(AsyncNodeFixture, CallbackSubmitsAndWriteAfterStopFails) {
  // A completion callback may submit a write of its own. Once stop()
  // closed the shard queues, a write_async still completes, with a
  // failed outcome: no dedicated core is left to take the block.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket inner;
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket&) {
    inner = client.write_async("pressure", 0, data);
  };
  WriteTicket outer =
      client.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(outer.done());
  ASSERT_TRUE(inner.valid());
  EXPECT_TRUE(inner.done());
  EXPECT_EQ(inner.outcome(), WriteOutcome::kPublished);
  EXPECT_TRUE(node_->stop().is_ok());

  WriteTicket late = client.write_async("temperature", 1, data);
  EXPECT_TRUE(late.done());
  EXPECT_EQ(late.outcome(), WriteOutcome::kFailed);
  EXPECT_FALSE(late.status().is_ok());
  EXPECT_EQ(node_->buffer().used(), 0u);  // the unpublished block is freed
}

TEST_F(AsyncNodeFixture, BlockingWriteLandsAfterEarlierTicketsAndTakesNone) {
  // The client's earlier write_async calls are done before its blocking
  // write starts, so that write lands after them; it takes no ticket.
  make_node(1);
  Client client = node_->client(0);
  const auto stale = field(std::byte{0x11});
  const auto fresh = field(std::byte{0x22});
  EXPECT_TRUE(client.write("pressure", 0, stale).is_ok());
  EXPECT_EQ(node_->outstanding_tickets(), 0u);
  std::vector<WriteTicket> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(client.write_async("temperature", 0, stale));
  }
  EXPECT_EQ(queued.front().id(), 1u);
  EXPECT_TRUE(client.write("temperature", 0, fresh).is_ok());
  for (const WriteTicket& t : queued) EXPECT_TRUE(t.done());
  EXPECT_EQ(node_->outstanding_tickets(), 0u);
  EXPECT_EQ(client.write_async("pressure", 0, fresh).id(), 5u);
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).writes, 7u);
  // Same (variable, iteration, source): the last write wins, and the
  // blocking one came last.
  auto reader = format::Dh5Reader::open((dir_ / "async_node0_it0.dh5").string());
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  auto idx = reader.value().find("temperature", 0, 0);
  ASSERT_TRUE(idx.has_value());
  auto payload = reader.value().read(*idx);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload.value(), fresh);
}

// ------------------------------------------- degrade-ladder outcomes

TEST_F(AsyncNodeFixture, SyncFallbackReportsOutcomeOnTheTicket) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 0;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_sync = true;
  res.degrade.trip_threshold = 1;
  make_node(1, plan, res);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kSyncFallback);
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).sync_writes, 1u);
}

TEST_F(AsyncNodeFixture, DropFallbackReportsOutcomeOnTheTicket) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 0;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_drop = true;  // drop is the only fallback
  res.degrade.trip_threshold = 1;
  make_node(1, plan, res);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kDropped);
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).dropped_writes, 1u);
}

TEST_F(AsyncNodeFixture, NoFallbackAllowedReportsFailed) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 0;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;  // neither sync nor drop allowed
  res.degrade.trip_threshold = 1;
  make_node(1, plan, res);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_FALSE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kFailed);
  EXPECT_FALSE(t.status().is_ok());
  finish(client, 0);
}

// -------------------------------------------------------- determinism

TEST_F(AsyncNodeFixture, CompletionTimelineIsDeterministic) {
  // One client, a mixed chain of dependent and independent writes: each
  // write_async completes on the caller before it returns, so the
  // completion timeline (ids and sequence numbers) is a pure function
  // of the submission sequence. Two identical runs must produce
  // identical timelines.
  const auto timeline = [this] {
    make_node(1);
    Client client = node_->client(0);
    const auto data = field();
    std::vector<WriteTicket> tickets;
    for (int it = 0; it < 3; ++it) {
      AsyncWriteOptions opts;
      if (!tickets.empty()) opts.after.push_back(tickets.back());
      tickets.push_back(
          client.write_async("temperature", it, data, std::move(opts)));
      tickets.push_back(client.write_async("pressure", it, data));
    }
    std::vector<std::uint64_t> seqs;
    for (const WriteTicket& t : tickets) {
      EXPECT_TRUE(t.wait().is_ok());
      seqs.push_back(t.completion_seq());
    }
    finish(client, 2);
    node_.reset();
    return seqs;
  };
  const auto first = timeline();
  const auto second = timeline();
  EXPECT_EQ(first, second);
  // And the timeline is the submission order, densely numbered.
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], i + 1);
  }
}

}  // namespace
}  // namespace dmr::core
