#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/channel.hpp"
#include "des/engine.hpp"
#include "des/process.hpp"
#include "des/resources.hpp"
#include "des/sync.hpp"

namespace dmr::des {
namespace {

// ----------------------------------------------------------------- engine

TEST(Engine, StartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0.0);
}

TEST(Engine, DelayAdvancesTime) {
  Engine eng;
  double observed = -1;
  eng.spawn([](Engine& e, double& out) -> Process {
    co_await e.delay(2.5);
    out = e.now();
  }(eng, observed));
  eng.run();
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);
}

TEST(Engine, SequentialDelaysAccumulate) {
  Engine eng;
  std::vector<double> times;
  eng.spawn([](Engine& e, std::vector<double>& t) -> Process {
    co_await e.delay(1.0);
    t.push_back(e.now());
    co_await e.delay(2.0);
    t.push_back(e.now());
    co_await e.delay(0.5);
    t.push_back(e.now());
  }(eng, times));
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
  EXPECT_DOUBLE_EQ(times[2], 3.5);
}

TEST(Engine, TieBreakIsSpawnOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Engine& e, std::vector<int>& ord, int id) -> Process {
      co_await e.delay(1.0);
      ord.push_back(id);
    }(eng, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CallbackRuns) {
  Engine eng;
  double fired_at = -1;
  eng.schedule_callback(3.0, [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Engine, CancelledCallbackDoesNotRun) {
  Engine eng;
  bool fired = false;
  auto id = eng.schedule_callback(3.0, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine eng;
  int count = 0;
  eng.spawn([](Engine& e, int& c) -> Process {
    for (int i = 0; i < 10; ++i) {
      co_await e.delay(1.0);
      ++c;
    }
  }(eng, count));
  eng.run_until(4.5);
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(eng.now(), 4.5);
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilBeforeNowKeepsTime) {
  Engine eng;
  std::vector<double> fired;
  auto record = [&] { fired.push_back(eng.now()); };
  eng.schedule_callback(2.0, record);
  eng.schedule_callback(5.0, record);
  EXPECT_DOUBLE_EQ(eng.run_until(3.0), 3.0);
  EXPECT_DOUBLE_EQ(eng.run_until(1.0), 3.0);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  // An event scheduled "now" lands after the instants already dispatched.
  eng.schedule_callback(eng.now(), record);
  eng.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 3.0, 5.0}));
}

TEST(Engine, ZeroDelayRunsAtSameTime) {
  Engine eng;
  double t = -1;
  eng.spawn([](Engine& e, double& out) -> Process {
    co_await e.delay(5.0);
    co_await e.delay(0.0);
    out = e.now();
  }(eng, t));
  eng.run();
  EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(Engine, SleepUntilPastResumesNow) {
  Engine eng;
  double t = -1;
  eng.spawn([](Engine& e, double& out) -> Process {
    co_await e.delay(5.0);
    co_await e.sleep_until(1.0);  // already past
    out = e.now();
  }(eng, t));
  eng.run();
  EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(Engine, DestroysUnfinishedProcesses) {
  // A process blocked forever must not leak (ASAN would flag it).
  auto eng = std::make_unique<Engine>();
  Latch latch(*eng, 1);  // never counted down
  eng->spawn([](Engine&, Latch& l) -> Process {
    co_await l.wait();
  }(*eng, latch));
  eng->run();
  eng.reset();  // destroys the suspended frame
  SUCCEED();
}

TEST(Engine, EventCountAdvances) {
  Engine eng;
  eng.spawn([](Engine& e) -> Process {
    co_await e.delay(1.0);
    co_await e.delay(1.0);
  }(eng));
  eng.run();
  EXPECT_GE(eng.events_processed(), 3u);  // spawn + two delays
}

TEST(Engine, CancelOfFiredIdIsNoOpAfterSlotReuse) {
  Engine eng;
  int first = 0;
  int second = 0;
  const auto fired = eng.schedule_callback(1.0, [&] { ++first; });
  eng.run();
  ASSERT_EQ(first, 1);
  // The next callback may take over the fired one's storage; the old id
  // must not reach it.
  eng.schedule_callback(2.0, [&] { ++second; });
  eng.cancel(fired);
  eng.run();
  EXPECT_EQ(second, 1);
  // Likewise for a cancelled id, cancelled again after its slot is reused.
  const auto cancelled = eng.schedule_callback(3.0, [&] { ++first; });
  eng.cancel(cancelled);
  eng.schedule_callback(4.0, [&] { ++second; });
  eng.cancel(cancelled);
  eng.cancel(fired);
  eng.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_EQ(eng.events_processed(), 3u);
  EXPECT_DOUBLE_EQ(eng.now(), 4.0);
}

// ------------------------------------------ engine vs. a reference model
//
// The contract every timeline digest rests on: events dispatch in
// ascending (t, seq) order, and each scheduled event takes the next seq.
// OrderModel drives an engine through a seeded mix of operations and
// keeps a std::map<(t, seq)> of what must be pending in lockstep; every
// dispatch must be the map's earliest entry. Operations also run from
// inside dispatched events, as the simulator's models do.

class OrderModel {
 public:
  explicit OrderModel(std::uint64_t seed) : rng_(seed) {
    for (int k = 0; k < kRecorders; ++k) {
      recorders_.push_back(recorder(*this, k).release());
    }
    set_thread_dispatch_hook(&OrderModel::hook, this);
  }
  ~OrderModel() {
    set_thread_dispatch_hook(nullptr, nullptr);
    for (auto h : recorders_) h.destroy();
  }
  OrderModel(const OrderModel&) = delete;
  OrderModel& operator=(const OrderModel&) = delete;

  /// Runs at least `ops` operations, then drains the engine.
  void drive(std::uint64_t ops) {
    while (ops_ < ops) {
      // Keep a few thousand events pending, so the queue's near and far
      // tiers both stay busy.
      const int burst = pending_.size() < 4000 ? 48 : 12;
      for (int i = 0; i < burst; ++i) random_op();
      run_slice();
    }
    eng_.run();
    EXPECT_TRUE(pending_.empty()) << pending_.size() << " never dispatched";
  }

  /// Cancels of a pending callback (from the top level or from inside
  /// a dispatched event), and of an id that already fired or was
  /// cancelled.
  enum CancelKind { kPending, kPendingNested, kStale, kNumCancelKinds };

  Engine& engine() { return eng_; }
  std::uint64_t dispatched() const { return dispatched_; }
  std::uint64_t max_pending() const { return max_pending_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  std::uint64_t cancels(CancelKind kind) const { return cancels_[kind]; }

 private:
  static constexpr int kRecorders = 64;

  struct Pending {
    bool is_callback;
    int who;  // recorder, one-shot or callback number
  };
  using Key = std::pair<double, std::uint64_t>;  // (t, seq)
  struct Live {
    std::uint64_t id;
    Key key;
  };

  /// A frame the model resumes any number of times.
  static Process recorder(OrderModel& m, int k) {
    for (;;) {
      m.on_dispatch(false, k);
      co_await std::suspend_always{};
    }
  }
  static Process one_shot(OrderModel& m, int who) {
    m.on_dispatch(false, who);
    co_return;
  }

  static void hook(void* ctx, Time t, std::uint64_t seq, bool is_callback) {
    auto* m = static_cast<OrderModel*>(ctx);
    m->hook_key_ = {t, seq};
    m->hook_is_callback_ = is_callback;
  }

  void expect(const Key& key, const Pending& p) {
    pending_.emplace(key, p);
    max_pending_ = std::max<std::uint64_t>(max_pending_, pending_.size());
  }

  void on_dispatch(bool is_callback, int who) {
    ++dispatched_;
    std::string why;
    if (pending_.empty()) {
      why = "nothing pending";
    } else {
      const auto [key, p] = *pending_.begin();
      if (eng_.now() != key.first) why = "time";
      if (p.is_callback != is_callback || p.who != who) why += " identity";
      if (hook_key_ != key || hook_is_callback_ != is_callback) why += " seq";
      pending_.erase(pending_.begin());
      now_ = key.first;
    }
    if (!why.empty() && mismatches_++ == 0) {
      first_mismatch_ = "dispatch " + std::to_string(dispatched_) + ": " +
                        why + " (who " + std::to_string(who) + " at " +
                        std::to_string(eng_.now()) + ")";
    }
    if (is_callback) {
      const auto it = live_.find(who);
      if (it != live_.end()) {
        dead_.push_back(it->second.id);
        live_.erase(it);
      }
    }
    // Operations from inside a dispatched event.
    const auto n = rng_.next_below(3);
    for (std::uint64_t i = 0; i < n; ++i) random_op(true);
  }

  /// A time at or after now: the current instant, shared grid instants
  /// (ties), near and far futures.
  Time pick_time() {
    const Time now = eng_.now();
    switch (rng_.next_below(6)) {
      case 0:
        return now;
      case 1:
        return now + 1e-9 * static_cast<double>(1 + rng_.next_below(4));
      case 2:
        return std::floor(now) + static_cast<double>(1 + rng_.next_below(4));
      case 3:
        return std::floor(now * 4) / 4 +
               0.25 * static_cast<double>(1 + rng_.next_below(8));
      case 4:
        return now + rng_.uniform(0.0, 0.01);
      default:
        return now + rng_.uniform(1.0, 100.0);
    }
  }

  void random_op(bool nested = false) {
    ++ops_;
    const auto r = rng_.next_below(100);
    if (r < 35) {
      const Time t = pick_time();
      const int k = static_cast<int>(rng_.next_below(kRecorders));
      expect({t, seq_++}, {false, k});
      eng_.schedule_resume(recorders_[static_cast<std::size_t>(k)], t);
    } else if (r < 75) {
      const Time t = pick_time();
      const int who = next_callback_++;
      const Key key{t, seq_++};
      expect(key, {true, who});
      live_[who] = {eng_.schedule_callback(t, [this, who] {
                      on_dispatch(true, who);
                    }),
                    key};
    } else if (r < 88) {
      if (live_.empty()) return;
      // Cancel a pending callback before it fires.
      auto it = live_.lower_bound(
          static_cast<int>(rng_.next_below(
              static_cast<std::uint64_t>(next_callback_))));
      if (it == live_.end()) it = live_.begin();
      pending_.erase(it->second.key);
      eng_.cancel(it->second.id);
      dead_.push_back(it->second.id);
      live_.erase(it);
      ++cancels_[nested ? kPendingNested : kPending];
    } else if (r < 97) {
      if (dead_.empty()) return;
      // An id that fired or was cancelled; its slot may since have been
      // reused. Must be a no-op.
      eng_.cancel(dead_[rng_.next_below(dead_.size())]);
      ++cancels_[kStale];
    } else {
      const int who = 1000000 + next_one_shot_++;
      expect({eng_.now(), seq_++}, {false, who});
      eng_.spawn(one_shot(*this, who));
    }
  }

  /// run_until to a boundary: an event's exact time, between events,
  /// the current instant, or (rarely) before it, which keeps the time.
  void run_slice() {
    Time t_end = now_;
    const auto r = rng_.next_below(100);
    if (!pending_.empty() && r < 30) {
      auto it = pending_.begin();
      for (auto n = rng_.next_below(64); n > 0 && it != pending_.end(); --n) {
        ++it;
      }
      t_end = (it == pending_.end() ? pending_.begin() : it)->first.first;
    } else if (r < 80) {
      t_end = now_ + rng_.uniform(0.0, 0.05);
    } else if (r < 98) {
      t_end = now_;
    } else {
      t_end = now_ / 2;
    }
    const Time reached = eng_.run_until(t_end);
    if (!pending_.empty()) {
      EXPECT_GT(pending_.begin()->first.first, t_end);
    }
    now_ = std::max(now_, t_end);
    EXPECT_EQ(reached, now_);
    EXPECT_EQ(eng_.now(), now_);
  }

  Engine eng_;
  Rng rng_;
  std::vector<std::coroutine_handle<>> recorders_;
  std::map<Key, Pending> pending_;
  std::map<int, Live> live_;           // pending callbacks by number
  std::vector<std::uint64_t> dead_;    // ids that fired or were cancelled
  std::uint64_t seq_ = 0;
  Time now_ = 0.0;
  int next_callback_ = 0;
  int next_one_shot_ = 0;
  std::uint64_t ops_ = 0;  // random_op calls, nested ones included
  std::uint64_t dispatched_ = 0;
  std::uint64_t max_pending_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t cancels_[kNumCancelKinds] = {};
  std::string first_mismatch_;
  Key hook_key_{};
  bool hook_is_callback_ = false;
};

TEST(Engine, DispatchOrderMatchesReferenceModel) {
  for (std::uint64_t seed : {1u, 2u}) {
    OrderModel model(seed);
    model.drive(100000);
    EXPECT_EQ(model.mismatches(), 0u)
        << "seed " << seed << ": " << model.first_mismatch();
    EXPECT_EQ(model.engine().events_processed(), model.dispatched());
    EXPECT_GE(model.max_pending(), 4000u);
    EXPECT_GT(model.cancels(OrderModel::kPending), 0u);
    EXPECT_GT(model.cancels(OrderModel::kPendingNested), 0u);
    EXPECT_GT(model.cancels(OrderModel::kStale), 0u);
  }
}

// ---------------------------------------------------------------- channel

TEST(Channel, SendThenRecv) {
  Engine eng;
  Channel<int> ch(eng);
  int got = 0;
  eng.spawn([](Engine&, Channel<int>& c, int& out) -> Process {
    out = co_await c.recv();
  }(eng, ch, got));
  ch.send(42);
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Channel, RecvBlocksUntilSend) {
  Engine eng;
  Channel<std::string> ch(eng);
  std::vector<std::string> log;
  eng.spawn([](Engine& e, Channel<std::string>& c,
               std::vector<std::string>& lg) -> Process {
    auto v = co_await c.recv();
    lg.push_back(v + "@" + std::to_string(e.now()));
  }(eng, ch, log));
  eng.spawn([](Engine& e, Channel<std::string>& c) -> Process {
    co_await e.delay(7.0);
    c.send("hello");
  }(eng, ch));
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "hello@7.000000");
}

TEST(Channel, FifoOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got;
  for (int v : {1, 2, 3}) ch.send(v);
  eng.spawn([](Engine&, Channel<int>& c, std::vector<int>& out) -> Process {
    for (int i = 0; i < 3; ++i) out.push_back(co_await c.recv());
  }(eng, ch, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, MultipleWaitersServedInOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  for (int r = 0; r < 3; ++r) {
    eng.spawn([](Engine&, Channel<int>& c, std::vector<std::pair<int, int>>& out,
                 int id) -> Process {
      int v = co_await c.recv();
      out.emplace_back(id, v);
    }(eng, ch, got, r));
  }
  eng.spawn([](Engine& e, Channel<int>& c) -> Process {
    co_await e.delay(1.0);
    c.send(10);
    c.send(20);
    c.send(30);
  }(eng, ch));
  eng.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 20}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 30}));
}

TEST(Channel, SizeAndWaiters) {
  Engine eng;
  Channel<int> ch(eng);
  EXPECT_TRUE(ch.empty());
  ch.send(1);
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_EQ(ch.waiting_receivers(), 0u);
}

// ------------------------------------------------------------------- sync

TEST(Latch, ReleasesAtZero) {
  Engine eng;
  Latch latch(eng, 3);
  double released_at = -1;
  eng.spawn([](Engine& e, Latch& l, double& out) -> Process {
    co_await l.wait();
    out = e.now();
  }(eng, latch, released_at));
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, Latch& l, int id) -> Process {
      co_await e.delay(static_cast<double>(id + 1));
      l.count_down();
    }(eng, latch, i));
  }
  eng.run();
  EXPECT_DOUBLE_EQ(released_at, 3.0);  // last count_down at t=3
}

TEST(Latch, WaitAfterZeroDoesNotBlock) {
  Engine eng;
  Latch latch(eng, 1);
  latch.count_down();
  double t = -1;
  eng.spawn([](Engine& e, Latch& l, double& out) -> Process {
    co_await l.wait();
    out = e.now();
  }(eng, latch, t));
  eng.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Engine eng;
  Barrier bar(eng, 4);
  std::vector<double> release_times;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Barrier& b, std::vector<double>& out,
                 int id) -> Process {
      co_await e.delay(static_cast<double>(id) * 2.0);  // staggered arrival
      co_await b.arrive_and_wait();
      out.push_back(e.now());
    }(eng, bar, release_times, i));
  }
  eng.run();
  ASSERT_EQ(release_times.size(), 4u);
  for (double t : release_times) EXPECT_DOUBLE_EQ(t, 6.0);
}

TEST(Barrier, IsCyclic) {
  Engine eng;
  Barrier bar(eng, 2);
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](Engine& e, Barrier& b, std::vector<double>& out,
                 int id) -> Process {
      for (int round = 0; round < 3; ++round) {
        co_await e.delay(id == 0 ? 1.0 : 2.0);
        co_await b.arrive_and_wait();
        if (id == 0) out.push_back(e.now());
      }
    }(eng, bar, times, i));
  }
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[1], 4.0);
  EXPECT_DOUBLE_EQ(times[2], 6.0);
}

// ---------------------------------------------------------- service queue

TEST(ServiceQueue, SingleRequestDuration) {
  Engine eng;
  ServiceQueue q(eng, 100.0);  // 100 B/s
  double done = -1;
  eng.spawn([](Engine& e, ServiceQueue& s, double& out) -> Process {
    co_await s.serve(250);
    out = e.now();
  }(eng, q, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 2.5);
}

TEST(ServiceQueue, FifoSerialization) {
  Engine eng;
  ServiceQueue q(eng, 100.0);
  std::vector<double> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, ServiceQueue& s, std::vector<double>& out,
                 int id) -> Process {
      co_await s.serve(100);  // each takes 1 s
      out[id] = e.now();
    }(eng, q, done, i));
  }
  eng.run();
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
}

TEST(ServiceQueue, PerOpOverhead) {
  Engine eng;
  ServiceQueue q(eng, 100.0, 0.5);
  double done = -1;
  eng.spawn([](Engine& e, ServiceQueue& s, double& out) -> Process {
    co_await s.serve(100);
    out = e.now();
  }(eng, q, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 1.5);
}

TEST(ServiceQueue, MultiplierScalesService) {
  Engine eng;
  ServiceQueue q(eng, 100.0);
  double done = -1;
  eng.spawn([](Engine& e, ServiceQueue& s, double& out) -> Process {
    co_await s.serve(100, 3.0);
    out = e.now();
  }(eng, q, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(ServiceQueue, BusyAccounting) {
  Engine eng;
  ServiceQueue q(eng, 100.0);
  eng.spawn([](Engine&, ServiceQueue& s) -> Process {
    co_await s.serve(100);
    co_await s.serve(200);
  }(eng, q));
  eng.run();
  EXPECT_DOUBLE_EQ(q.total_busy(), 3.0);
  EXPECT_EQ(q.ops(), 2u);
}

TEST(ServiceQueue, IdleGapNotCounted) {
  Engine eng;
  ServiceQueue q(eng, 100.0);
  double done = -1;
  eng.spawn([](Engine& e, ServiceQueue& s, double& out) -> Process {
    co_await s.serve(100);      // finishes at 1
    co_await e.delay(10.0);     // idle gap
    co_await s.serve(100);      // 11 -> 12
    out = e.now();
  }(eng, q, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 12.0);
  EXPECT_DOUBLE_EQ(q.total_busy(), 2.0);
}

// ------------------------------------------------------------ shared link

TEST(SharedLink, SingleTransfer) {
  Engine eng;
  SharedLink link(eng, 1000.0);
  double done = -1;
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await l.transfer(500);
    out = e.now();
  }(eng, link, done));
  eng.run();
  EXPECT_NEAR(done, 0.5, 1e-9);
  EXPECT_EQ(link.bytes_delivered(), 500u);
}

TEST(SharedLink, FairSharingTwoEqualFlows) {
  Engine eng;
  SharedLink link(eng, 1000.0);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](Engine& e, SharedLink& l, std::vector<double>& out,
                 int id) -> Process {
      co_await l.transfer(500);
      out[id] = e.now();
    }(eng, link, done, i));
  }
  eng.run();
  // Two equal flows sharing: both finish at 1.0 (each gets 500 B/s).
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(SharedLink, ShortFlowFinishesFirstThenLongSpeedsUp) {
  Engine eng;
  SharedLink link(eng, 1000.0);
  double short_done = -1, long_done = -1;
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await l.transfer(250);
    out = e.now();
  }(eng, link, short_done));
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await l.transfer(1000);
    out = e.now();
  }(eng, link, long_done));
  eng.run();
  // Shared until t=0.5 (each moved 250B). Short finishes; long has 750B
  // left at full rate: finishes at 0.5 + 0.75 = 1.25.
  EXPECT_NEAR(short_done, 0.5, 1e-9);
  EXPECT_NEAR(long_done, 1.25, 1e-9);
}

TEST(SharedLink, LateJoinerSharesRemaining) {
  Engine eng;
  SharedLink link(eng, 1000.0);
  double a_done = -1, b_done = -1;
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await l.transfer(1000);
    out = e.now();
  }(eng, link, a_done));
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await e.delay(0.5);  // join when A has 500B left
    co_await l.transfer(500);
    out = e.now();
  }(eng, link, b_done));
  eng.run();
  // From 0.5 both progress at 500 B/s; both have 500 B left -> both end 1.5.
  EXPECT_NEAR(a_done, 1.5, 1e-9);
  EXPECT_NEAR(b_done, 1.5, 1e-9);
}

TEST(SharedLink, LatencyAddsToCompletion) {
  Engine eng;
  SharedLink link(eng, 1000.0, 0.1);
  double done = -1;
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await l.transfer(1000);
    out = e.now();
  }(eng, link, done));
  eng.run();
  EXPECT_NEAR(done, 1.1, 1e-9);
}

TEST(SharedLink, ZeroByteTransferIsImmediate) {
  Engine eng;
  SharedLink link(eng, 1000.0);
  double done = -1;
  eng.spawn([](Engine& e, SharedLink& l, double& out) -> Process {
    co_await l.transfer(0);
    out = e.now();
  }(eng, link, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(SharedLink, BusyTimeTracksActiveIntervals) {
  Engine eng;
  SharedLink link(eng, 1000.0);
  eng.spawn([](Engine& e, SharedLink& l) -> Process {
    co_await l.transfer(1000);  // busy [0, 1]
    co_await e.delay(2.0);      // idle  [1, 3]
    co_await l.transfer(500);   // busy [3, 3.5]
  }(eng, link));
  eng.run();
  EXPECT_NEAR(link.total_busy(), 1.5, 1e-9);
}

TEST(SharedLink, ManyFlowsAggregate) {
  Engine eng;
  SharedLink link(eng, 1200.0);
  const int n = 12;  // 12 cores of one Kraken node hammering the NIC
  std::vector<double> done(n, -1);
  for (int i = 0; i < n; ++i) {
    eng.spawn([](Engine& e, SharedLink& l, std::vector<double>& out,
                 int id) -> Process {
      co_await l.transfer(100);
      out[id] = e.now();
    }(eng, link, done, i));
  }
  eng.run();
  // All equal: everyone finishes at 12*100/1200 = 1.0.
  for (double d : done) EXPECT_NEAR(d, 1.0, 1e-9);
  EXPECT_EQ(link.bytes_delivered(), 1200u);
}

// ------------------------------------------------------------ determinism

TEST(Determinism, SameSeedSameTimeline) {
  using ::dmr::Rng;
  using ::dmr::Bytes;
  auto run_once = [] {
    Engine eng;
    SharedLink link(eng, 1000.0);
    ServiceQueue disk(eng, 500.0, 0.01);
    Rng rng(42);
    std::vector<double> completions;
    for (int i = 0; i < 20; ++i) {
      eng.spawn([](Engine& e, SharedLink& l, ServiceQueue& d, double start,
                   Bytes sz, std::vector<double>& out) -> Process {
        co_await e.sleep_until(start);
        co_await l.transfer(sz);
        co_await d.serve(sz);
        out.push_back(e.now());
      }(eng, link, disk, rng.uniform(0, 5),
        100 + rng.next_below(400), completions));
    }
    eng.run();
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dmr::des

namespace dmr::des {
namespace {

// -------------------------------------------------------------- semaphore

TEST(Semaphore, ImmediateAcquireWhilePermitsLast) {
  Engine eng;
  Semaphore sem(eng, 2);
  std::vector<double> t(3, -1);
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, std::vector<double>& out,
                 int id) -> Process {
      co_await s.acquire();
      out[id] = e.now();
      co_await e.delay(1.0);
      s.release();
    }(eng, sem, t, i));
  }
  eng.run();
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 0.0);
  EXPECT_DOUBLE_EQ(t[2], 1.0);  // waited for a release
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, FifoHandoff) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, std::vector<int>& ord,
                 int id) -> Process {
      co_await e.delay(0.1 * id);  // staggered arrival
      co_await s.acquire();
      ord.push_back(id);
      co_await e.delay(1.0);
      s.release();
    }(eng, sem, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, BoundsConcurrency) {
  Engine eng;
  Semaphore sem(eng, 3);
  int active = 0, peak = 0;
  for (int i = 0; i < 10; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, int& act, int& pk) -> Process {
      co_await s.acquire();
      ++act;
      pk = std::max(pk, act);
      co_await e.delay(1.0);
      --act;
      s.release();
    }(eng, sem, active, peak));
  }
  eng.run();
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(active, 0);
}

}  // namespace
}  // namespace dmr::des
