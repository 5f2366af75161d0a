// Virtual time for deterministic simulation.
//
// Nothing in the simulation harness reads a wall clock (ss_analyze's
// raw-clock rule confines raw clock calls to src/util/); time is an
// integer tick counter advanced only by the scheduler when it
// dispatches the next event. Ticks are abstract — the storm
// configuration decides how many ticks separate batch emissions,
// checkpoint timers and queries — so a simulated three-day event
// replays in milliseconds and every run of the same seed sees the
// exact same clock readings.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace ss {
namespace sim {

class VirtualClock {
 public:
  std::uint64_t now() const { return now_; }

  // Moves time forward; the scheduler calls this with each dispatched
  // event's tick. Time never flows backwards — a regression here means
  // the event queue's ordering invariant broke, so it throws rather
  // than silently rewinding.
  void advance_to(std::uint64_t tick) {
    if (tick < now_) {
      throw std::logic_error("VirtualClock: time moved backwards");
    }
    now_ = tick;
  }

 private:
  std::uint64_t now_ = 0;
};

}  // namespace sim
}  // namespace ss
