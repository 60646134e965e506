#include "check/determinism.hpp"

#include <cstring>
#include <sstream>

#include "des/engine.hpp"

namespace dmr::check {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

TimelineHasher::TimelineHasher() : digest_(kFnvOffset) {
  des::set_thread_dispatch_hook(&TimelineHasher::hook, this);
}

TimelineHasher::~TimelineHasher() {
  des::set_thread_dispatch_hook(nullptr, nullptr);
}

void TimelineHasher::hook(void* ctx, double t, std::uint64_t seq,
                          bool is_callback) {
  auto* self = static_cast<TimelineHasher*>(ctx);
  std::uint64_t time_bits;
  static_assert(sizeof(time_bits) == sizeof(t));
  std::memcpy(&time_bits, &t, sizeof(time_bits));
  const unsigned char kind = is_callback ? 1 : 0;
  std::uint64_t h = self->digest_;
  h = fnv1a(h, &time_bits, sizeof(time_bits));
  h = fnv1a(h, &seq, sizeof(seq));
  h = fnv1a(h, &kind, sizeof(kind));
  self->digest_ = h;
  ++self->events_;
}

std::string DeterminismReport::to_string() const {
  std::ostringstream os;
  os << "determinism: " << (deterministic ? "OK" : "MISMATCH")
     << "\n  run A: digest=" << std::hex << digest_a << std::dec
     << " events=" << events_a << "\n  run B: digest=" << std::hex
     << digest_b << std::dec << " events=" << events_b << "\n";
  return os.str();
}

DeterminismReport verify_determinism(
    const std::function<void()>& run_once) {
  DeterminismReport rep;
  {
    TimelineHasher h;
    run_once();
    rep.digest_a = h.digest();
    rep.events_a = h.events();
  }
  {
    TimelineHasher h;
    run_once();
    rep.digest_b = h.digest();
    rep.events_b = h.events();
  }
  rep.deterministic =
      rep.digest_a == rep.digest_b && rep.events_a == rep.events_b;
  return rep;
}

}  // namespace dmr::check
