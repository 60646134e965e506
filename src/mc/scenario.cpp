#include "mc/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "shm/test_hooks.hpp"

namespace dmr::mc {

namespace {

const char* close_by_name(ScenarioOptions::CloseBy c) {
  switch (c) {
    case ScenarioOptions::CloseBy::kConsumer: return "consumer";
    case ScenarioOptions::CloseBy::kProducerLast: return "last-producer";
    case ScenarioOptions::CloseBy::kNobody: return "nobody";
  }
  return "?";
}

}  // namespace

std::string ScenarioOptions::to_string() const {
  std::ostringstream os;
  os << producers << " producer(s) x " << handoffs << " handoff(s), "
     << (policy == shm::AllocPolicy::kPartitioned ? "partitioned"
                                                  : "first-fit")
     << " buffer, close by " << close_by_name(close_by)
     << (model_waiting ? ", explicit waits" : ", guarded blocking");
  if (mutate_double_release) os << " [mutation: double-release]";
  if (mutate_write_after_publish) os << " [mutation: write-after-publish]";
  if (mutate_skip_close_notify) os << " [mutation: skip-close-notify]";
  if (mutate_park_without_recheck) {
    os << " [mutation: park-without-recheck]";
  }
  return os.str();
}

ShmScenario ShmScenario::build(const ScenarioOptions& opts) {
  ShmScenario s;
  s.opts_ = opts;

  const int producers = opts.producers;
  const int handoffs = opts.handoffs;
  const Bytes block_size = opts.block_size;
  const bool partitioned = opts.policy == shm::AllocPolicy::kPartitioned;
  // Payload ops are invisible (executed without branching) only when no
  // mutation is seeded: the invisibility argument — nobody else can
  // touch an unpublished block — is exactly what the mutations break.
  const bool payload_invisible = !opts.any_mutation();
  const bool waiting = opts.model_waiting;
  // Every queue step reads or writes the queue or its handshake words.
  const auto queue_foot = [](Execution&) {
    Footprint f;
    f.queue = 0;
    return f;
  };

  for (int p = 0; p < producers; ++p) {
    VirtualThread t;
    t.id = p;
    t.name = "producer-" + std::to_string(p);
    t.lane = trace::EntityId{trace::EntityType::kShmClient,
                             static_cast<std::uint32_t>(p)};
    for (int h = 0; h < handoffs; ++h) {
      Op alloc;
      alloc.name = "alloc";
      alloc.foot = [p, partitioned](Execution&) {
        Footprint f;
        f.partition = partitioned ? p : Footprint::kAny;
        return f;
      };
      alloc.run = [p, block_size](Execution& exec) {
        auto r = exec.buffer().allocate(block_size, p);
        if (!r.is_ok()) {
          exec.error("unexpected allocation failure for producer " +
                     std::to_string(p) + ": " + r.status().to_string());
          return StepResult::finish();
        }
        exec.state(p).cur_block = r.value();
        return StepResult::advance();
      };
      t.program.push_back(std::move(alloc));

      Op write;
      write.name = "write";
      write.invisible = payload_invisible;
      write.foot = [p, h](Execution&) {
        Footprint f;
        f.payload = tag(p, h);
        f.payload_write = true;
        return f;
      };
      write.run = [p, h](Execution& exec) {
        const shm::Block& b = exec.state(p).cur_block;
        std::byte* data = exec.buffer().data(b);
        std::fill_n(data, b.size, fill_byte(p, h));
        exec.buffer().note_write(b);
        return StepResult::advance();
      };
      t.program.push_back(std::move(write));

      // Guarded mode publishes with one push(). The wait-channel mode
      // splits it into push()'s two halves: the enqueue, then the wake
      // (the fence and the read of the consumer's announcement), which
      // a dropped message skips, as push() does.
      Op publish;
      publish.name = "publish";
      publish.foot = queue_foot;
      const int after_wake = static_cast<int>(t.program.size()) + 2;
      publish.run = [p, h, waiting, after_wake](Execution& exec) {
        shm::Message m;
        m.type = shm::MessageType::kWriteNotification;
        m.client_id = p;
        m.iteration = h;
        m.block = exec.state(p).cur_block;
        if (waiting ? exec.queue().enqueue(m) : exec.queue().push(m)) {
          return StepResult::advance();
        }
        // Dropped on a closed queue: the pusher still owns the block
        // and must release it or it leaks (core::Client::write_sized
        // releases it the same way).
        exec.buffer().deallocate(exec.state(p).cur_block);
        return waiting ? StepResult::jump(after_wake) : StepResult::advance();
      };
      t.program.push_back(std::move(publish));

      if (waiting) {
        Op wake;
        wake.name = "wake";
        wake.foot = queue_foot;
        wake.run = [](Execution& exec) {
          if (exec.queue().wake_sleeper()) exec.notify_queue();
          return StepResult::advance();
        };
        t.program.push_back(std::move(wake));
      }

      if (opts.mutate_write_after_publish && p == 0 && h == 0) {
        // Seeded bug: scribble into the block *after* handing it over —
        // the race with the consumer's read the detector must flag in
        // both interleaving orders.
        Op late;
        late.name = "late-write";
        late.foot = [p, h](Execution&) {
          Footprint f;
          f.payload = tag(p, h);
          f.payload_write = true;
          return f;
        };
        late.run = [p](Execution& exec) {
          if (shm::test_hooks().write_after_publish) {
            const shm::Block& b = exec.state(p).cur_block;
            exec.buffer().data(b)[0] = std::byte{0xEE};
            exec.buffer().note_write(b);
          }
          return StepResult::advance();
        };
        t.program.push_back(std::move(late));
      }
    }
    if (opts.close_by == ScenarioOptions::CloseBy::kProducerLast &&
        p == producers - 1) {
      Op close;
      close.name = "close";
      close.foot = queue_foot;
      close.run = [](Execution& exec) {
        exec.queue().close();
        // Mirror EventQueue::close's unconditional wake (and the
        // skip-notify mutation) onto the model's wait channel.
        if (!shm::test_hooks().skip_notify_on_close) exec.notify_queue();
        return StepResult::advance();
      };
      t.program.push_back(std::move(close));
    }
    s.threads_.push_back(std::move(t));
  }

  // Consumer (the dedicated core's event-processing loop).
  VirtualThread c;
  const int ctid = producers;
  c.id = ctid;
  c.name = "consumer";
  c.lane = trace::EntityId{trace::EntityType::kShmQueue, 0};

  const int pop_pc = 0;
  // Program layout: pop(0) read(1) release(2) [close(3)] drain, then in
  // wait-channel mode announce, recheck and park, reached from pop.
  const bool consumer_closes =
      opts.close_by == ScenarioOptions::CloseBy::kConsumer;
  const int drain_pc = consumer_closes ? 4 : 3;
  const int announce_pc = drain_pc + 1;
  const int park_pc = drain_pc + 3;
  const int expected = opts.expected_messages();

  Op pop;
  pop.name = "pop";
  pop.foot = queue_foot;
  if (!waiting) {
    // Guarded blocking: the consumer is simply not schedulable while
    // the queue is not ready — sound for safety properties. A ready()
    // that lagged a push would show as a deadlock here, one that
    // outlived the last message as the guard-bug error below.
    pop.guard = [](Execution& exec) { return exec.queue().ready(); };
  }
  pop.run = [ctid, drain_pc, waiting, announce_pc](Execution& exec) {
    if (auto m = exec.queue().try_pop()) {
      auto it = exec.last_iteration.find(m->client_id);
      const std::int64_t prev =
          it == exec.last_iteration.end() ? -1 : it->second;
      if (m->iteration != prev + 1) {
        exec.error("FIFO violation: client " + std::to_string(m->client_id) +
                   " delivered iteration " + std::to_string(m->iteration) +
                   " after " + std::to_string(prev));
      }
      exec.last_iteration[m->client_id] = m->iteration;
      exec.state(ctid).cur_msg = *m;
      return StepResult::advance();
    }
    if (exec.queue().closed()) return StepResult::jump(drain_pc);
    if (waiting) return StepResult::jump(announce_pc);
    exec.error("pop scheduled while queue empty and open (guard bug)");
    return StepResult::blocked();
  };
  c.program.push_back(std::move(pop));

  Op read;
  read.name = "read";
  read.invisible = payload_invisible;
  read.foot = [](Execution&) {
    Footprint f;
    f.payload = Footprint::kAny;
    return f;
  };
  read.run = [ctid](Execution& exec) {
    const shm::Message& m = exec.state(ctid).cur_msg;
    const std::byte expect = fill_byte(m.client_id, m.iteration);
    const std::byte* data = exec.buffer().data(m.block);
    for (Bytes i = 0; i < m.block.size; ++i) {
      if (data[i] != expect) {
        exec.error("payload corruption: client " +
                   std::to_string(m.client_id) + " iteration " +
                   std::to_string(m.iteration) + " byte " + std::to_string(i));
        break;
      }
    }
    exec.buffer().note_read(m.block);
    return StepResult::advance();
  };
  c.program.push_back(std::move(read));

  Op release;
  release.name = "release";
  release.foot = [ctid, partitioned](Execution& exec) {
    Footprint f;
    f.partition = partitioned ? exec.state(ctid).cur_msg.block.client_id
                              : Footprint::kAny;
    return f;
  };
  release.run = [ctid, pop_pc, expected,
                 close_by = opts.close_by](Execution& exec) {
    exec.buffer().deallocate(exec.state(ctid).cur_msg.block);
    ++exec.received;
    if (exec.received == expected &&
        close_by != ScenarioOptions::CloseBy::kProducerLast) {
      return StepResult::advance();  // on to close (or straight to drain)
    }
    return StepResult::jump(pop_pc);
  };
  c.program.push_back(std::move(release));

  if (consumer_closes) {
    Op close;
    close.name = "close";
    close.foot = queue_foot;
    close.run = [](Execution& exec) {
      exec.queue().close();
      if (!shm::test_hooks().skip_notify_on_close) exec.notify_queue();
      return StepResult::advance();
    };
    c.program.push_back(std::move(close));
  }

  Op drain;
  drain.name = "drain";
  drain.foot = queue_foot;
  drain.run = [](Execution& exec) {
    if (auto m = exec.queue().try_pop()) {
      exec.error("message for client " + std::to_string(m->client_id) +
                 " still queued after the expected count was drained");
    }
    if (exec.queue().size() != 0) {
      exec.error("queue not empty after drain");
    }
    return StepResult::finish();
  };
  c.program.push_back(std::move(drain));

  if (waiting) {
    // The sleep handshake of EventQueue::wait_ready, one transition per
    // step, so a producer's enqueue and wake can land between any two.
    Op announce;
    announce.name = "announce";
    announce.foot = queue_foot;
    announce.run = [park_pc](Execution& exec) {
      exec.queue().announce_sleep();
      // Seeded bug: skip the re-check and park at once.
      if (shm::test_hooks().park_without_recheck) {
        return StepResult::jump(park_pc);
      }
      return StepResult::advance();
    };
    c.program.push_back(std::move(announce));

    Op recheck;
    recheck.name = "recheck";
    recheck.foot = queue_foot;
    recheck.run = [pop_pc](Execution& exec) {
      // Work arrived after the announcement: take it without parking.
      if (exec.queue().ready()) return StepResult::jump(pop_pc);
      return StepResult::advance();
    };
    c.program.push_back(std::move(recheck));

    Op park;
    park.name = "park";
    park.foot = queue_foot;
    park.run = [pop_pc](Execution& exec) {
      // EventQueue parks with asleep_.wait(1): it sleeps only while the
      // announcement stands, and a wake or close that clears it must
      // notify_queue(), or this thread never runs again (lost wakeup =>
      // deadlock, which the scheduler reports).
      if (exec.queue().asleep()) {
        exec.block_current_on_queue();
        return StepResult::blocked();
      }
      return StepResult::jump(pop_pc);
    };
    c.program.push_back(std::move(park));
  }

  s.threads_.push_back(std::move(c));
  return s;
}

Execution::Execution(const ShmScenario& scenario)
    : scenario_(&scenario),
      buffer_(std::make_unique<shm::SharedBuffer>(
          scenario.options().capacity != 0
              ? scenario.options().capacity
              : static_cast<Bytes>(scenario.options().producers) *
                    static_cast<Bytes>(scenario.options().handoffs) *
                    scenario.options().block_size,
          scenario.options().policy, scenario.options().producers)),
      mux_(checker_, detector_),
      states_(scenario.threads().size()) {
  queue_.set_observer(&mux_);
  buffer_->set_observer(&mux_);
  for (const VirtualThread& t : scenario.threads()) {
    detector_.register_thread(t.id, t.name);
  }
}

void Execution::block_current_on_queue() {
  states_[current_].blocked = true;
  queue_waiters_.push_back(current_);
}

void Execution::notify_queue() {
  for (int tid : queue_waiters_) states_[tid].blocked = false;
  queue_waiters_.clear();
}

}  // namespace dmr::mc
