// Single-threaded deterministic event scheduler.
//
// The simulation owns *all* event ordering: batch arrivals, checkpoint
// timers, queries, crashes and resumes are heap entries dispatched in
// (tick, tie, id) order. `tie` is drawn from a seeded RNG when the
// event is scheduled, so two events landing on the same tick are
// ordered by the storm seed rather than by insertion accident — the
// same seed explores the same interleaving forever, a different seed
// explores a different one. `id` (insertion counter) is the last-resort
// tie so ordering is total even on a tie collision.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace ss {
namespace sim {

enum class EventKind : std::uint8_t {
  kBatchArrival = 0,  // payload = batch sequence number
  kCheckpointTimer,   // payload unused
  kQuery,             // payload unused
  kCrash,             // payload = kill index
  kResume,            // payload = kill index
};

const char* event_kind_name(EventKind kind);

struct Event {
  std::uint64_t tick = 0;
  EventKind kind = EventKind::kBatchArrival;
  std::uint64_t payload = 0;
  std::uint64_t tie = 0;
  std::uint64_t id = 0;
};

class SimScheduler {
 public:
  explicit SimScheduler(std::uint64_t seed);

  // Schedules an event at an absolute tick. A tick already in the past
  // is clamped to now(): "deliver immediately" is a legitimate request
  // (retries of a batch that found the process down), time travel is
  // not.
  void schedule(std::uint64_t tick, EventKind kind,
                std::uint64_t payload = 0);

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  // Removes and returns the next event, advancing the clock to its
  // tick. Requires !empty().
  Event pop();

  const VirtualClock& clock() const { return clock_; }
  std::uint64_t now() const { return clock_.now(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const;
  };
  VirtualClock clock_;
  Rng tie_rng_;
  std::uint64_t next_id_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace sim
}  // namespace ss
