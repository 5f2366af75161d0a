#include "sim/process.h"

#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/checkpoint.h"
#include "util/status.h"

namespace ss {
namespace sim {

SimProcess::SimProcess(const Digraph* follows, ProcessConfig config)
    : follows_(follows), config_(std::move(config)) {
  live_ = std::make_unique<LiveApollo>(*follows_, config_.live);
}

SimProcess::DeliveryOutcome SimProcess::deliver(
    std::uint64_t seq, std::vector<Tweet> tweets) {
  if (!running()) return DeliveryOutcome::kDown;
  if (seq < next_seq_) {
    ++stale_;
    return DeliveryOutcome::kStale;
  }
  if (seq > next_seq_) {
    // Ahead of order: hold until the gap fills. emplace keeps the
    // first copy, so a duplicate of a buffered batch is a no-op.
    buffer_.emplace(seq, std::move(tweets));
    return DeliveryOutcome::kBuffered;
  }
  apply(seq, tweets);
  // The arrival may have been the gap a run of buffered batches was
  // waiting on.
  auto it = buffer_.find(next_seq_);
  while (it != buffer_.end()) {
    std::vector<Tweet> held = std::move(it->second);
    buffer_.erase(it);
    apply(next_seq_, held);
    it = buffer_.find(next_seq_);
  }
  return DeliveryOutcome::kApplied;
}

void SimProcess::apply(std::uint64_t seq,
                       const std::vector<Tweet>& tweets) {
  (void)seq;  // == next_seq_, checked by the caller
  for (const Tweet& t : tweets) live_->ingest(t);
  live_->refresh();
  ++next_seq_;
}

std::string SimProcess::serialized_state() const {
  if (!running()) {
    throw std::logic_error("SimProcess::serialized_state: process down");
  }
  BinWriter writer;
  writer.u64(next_seq_);
  writer.u64(stale_);
  live_->save_state(writer);
  return writer.take();
}

void SimProcess::checkpoint() {
  if (!running()) {
    throw std::logic_error("SimProcess::checkpoint: process down");
  }
  std::string payload = serialized_state();
  write_snapshot(config_.checkpoint_path, kSnapshotKind,
                 config_.fingerprint, payload);
  last_committed_ = std::move(payload);
  has_committed_ = true;
}

void SimProcess::crash() {
  if (!running()) {
    throw std::logic_error("SimProcess::crash: already down");
  }
  live_.reset();
  buffer_.clear();
  next_seq_ = 0;
  stale_ = 0;
}

void SimProcess::resume() {
  if (running()) {
    throw std::logic_error("SimProcess::resume: already running");
  }
  // Decode into locals and commit only once the whole payload has
  // decoded, so a failed resume leaves the process down.
  auto live = std::make_unique<LiveApollo>(*follows_, config_.live);
  std::uint64_t next_seq = 0;
  std::size_t stale = 0;
  std::error_code ec;
  if (std::filesystem::exists(config_.checkpoint_path, ec)) {
    std::string payload = read_snapshot_or_throw(
        config_.checkpoint_path, kSnapshotKind, config_.fingerprint);
    BinReader reader(payload);
    auto corrupt = [&](const std::string& why) {
      return TaxonomyError(ErrorCode::kCheckpointCorrupt,
                           config_.checkpoint_path + ": " + why);
    };
    try {
      next_seq = reader.u64();
      stale = reader.u64();
      live->load_state(reader);
    } catch (const std::exception& e) {
      throw corrupt(e.what());  // BinReader errors name the byte
    }
    if (!reader.done()) {
      throw corrupt("checkpoint: trailing bytes at byte " +
                    std::to_string(reader.position()));
    }
  }
  live_ = std::move(live);
  next_seq_ = next_seq;
  stale_ = stale;
}

}  // namespace sim
}  // namespace ss
