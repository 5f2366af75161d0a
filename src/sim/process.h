// Crashable, resumable pipeline process for the simulation.
//
// SimProcess wraps the live Apollo pipeline (clusterer + streaming EM)
// behind the transport contract the storm exercises: batches arrive
// tagged with emission sequence numbers, possibly out of order,
// duplicated, or while the process is down. The process applies batch
// k only after batches 0..k-1 (ahead-of-order arrivals are buffered,
// stale ones rejected), checkpoints its entire state as one sealed
// snapshot (util/checkpoint.h), and can be crashed at any scheduled
// point — crash() drops all in-memory state including the reorder
// buffer, exactly like a killed process — then resumed from the last
// committed snapshot.
//
// State bytes are canonical (every map serialized in sorted-key
// order), so "resumed state equals the state that was committed" is a
// byte comparison, not a field-by-field tour: serialized_state() of a
// freshly resumed process must equal the payload of the last commit,
// bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apollo/live.h"

namespace ss {
namespace sim {

struct ProcessConfig {
  LiveApolloConfig live;
  // Snapshot file for checkpoint()/resume().
  std::string checkpoint_path;
  // Distinguishes this storm's snapshots from a stale file of another
  // run (part of the snapshot seal).
  std::uint64_t fingerprint = 0;
};

class SimProcess {
 public:
  // Snapshot kind tag ("SIMPROC2"). Bumped whenever the payload layout
  // changes (LiveApollo::save_state, which includes the streaming
  // estimator's state), so a snapshot of an older layout is refused,
  // never misread.
  static constexpr std::uint64_t kSnapshotKind = 0x53494d50'524f4332ULL;

  enum class DeliveryOutcome : std::uint8_t {
    kApplied = 0,  // folded in (plus any drained buffered successors)
    kBuffered,     // ahead of order; held until the gap fills
    kStale,        // duplicate of an already-applied batch; rejected
    kDown,         // process is crashed; nothing happened
  };

  // `follows` must outlive the process (the storm owns it).
  SimProcess(const Digraph* follows, ProcessConfig config);

  bool running() const { return live_ != nullptr; }
  // Sequence number of the next batch the pipeline will apply.
  std::uint64_t next_seq() const { return next_seq_; }
  std::size_t stale_deliveries() const { return stale_; }
  std::size_t buffered() const { return buffer_.size(); }

  DeliveryOutcome deliver(std::uint64_t seq, std::vector<Tweet> tweets);

  // Commits the current state as a sealed snapshot (atomic write) and
  // remembers the committed payload for bit-identity assertions.
  // Requires running().
  void checkpoint();
  bool has_committed() const { return has_committed_; }
  const std::string& last_committed_state() const {
    return last_committed_;
  }

  // Kills the process: all in-memory state (pipeline, reorder buffer)
  // is gone. Requires running().
  void crash();
  // Boots a fresh process and restores the last committed snapshot, or
  // starts empty when none was ever committed. A present-but-corrupt
  // snapshot surfaces as TaxonomyError(kCheckpointCorrupt) — resume
  // never proceeds from partial state. Requires !running().
  void resume();

  // Canonical bytes of the current state (the exact payload a
  // checkpoint would commit). Requires running().
  std::string serialized_state() const;

  const LiveApollo& live() const { return *live_; }

 private:
  void apply(std::uint64_t seq, const std::vector<Tweet>& tweets);

  const Digraph* follows_;
  ProcessConfig config_;
  std::unique_ptr<LiveApollo> live_;
  std::uint64_t next_seq_ = 0;
  std::size_t stale_ = 0;
  // Ahead-of-order batches keyed by seq; first copy wins.
  std::map<std::uint64_t, std::vector<Tweet>> buffer_;
  std::string last_committed_;
  bool has_committed_ = false;
};

}  // namespace sim
}  // namespace ss
