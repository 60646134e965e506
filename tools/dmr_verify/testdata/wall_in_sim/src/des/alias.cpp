// Fixture: simulated-time functions reading the wall clock through an
// alias — det-wall-in-sim must see through both spellings.
#include <chrono>

namespace demo {

using Clock = std::chrono::steady_clock;
typedef std::chrono::system_clock SysClock;

double aliased_tick() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double typedef_tick() {
  return std::chrono::duration<double>(SysClock::now().time_since_epoch())
      .count();
}

}  // namespace demo
