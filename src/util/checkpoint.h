// Binary checkpoint/resume for long-running computations.
//
// The unit of checkpointing is a *deterministic work unit*: an EM
// restart attempt or a Gibbs chain, each fully determined by (seed,
// unit index, config). A CheckpointStore holds one opaque payload per
// completed unit and rewrites the whole file atomically (temp + rename)
// on every commit, so a killed process finds either the previous or the
// new file — never a torn one. Resuming replays completed units from
// their stored payloads and recomputes only the rest; because units are
// deterministic, a resumed run reproduces the uninterrupted run
// bit-for-bit (tests/test_faults.cpp locks this down).
//
// A store's file is a sealed snapshot (write_snapshot below) whose
// payload is `u64 units | u64 count | {u64 unit, str payload}*`, and
// the store is bound to a (kind, fingerprint, unit count) triple. A file
// whose checksum, kind, fingerprint or unit count disagrees — or whose
// payload fails any bounds check — is treated as absent, so a corrupt
// or stale checkpoint can only cost recomputation, never poison a run.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/status.h"

namespace ss {

// Little-endian binary encoder for checkpoint payloads. Doubles are
// written bit-exact (memcpy through u64), so decoded values reproduce
// the originals exactly.
class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v);
  void f64(double v);
  void vec_f64(const std::vector<double>& v);
  void str(const std::string& s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Matching decoder. Any read past the end or oversized length prefix
// throws std::runtime_error naming the byte offset — callers treat that
// as a corrupt checkpoint, not a fatal error.
class BinReader {
 public:
  explicit BinReader(const std::string& bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint64_t u64();
  double f64();
  std::vector<double> vec_f64();
  std::string str();
  // Reads a u64 element count and rejects it, before the caller
  // allocates anything, when that many elements of at least
  // `min_element_bytes` bytes each cannot fit in the bytes left.
  std::size_t count(std::size_t min_element_bytes);

  bool done() const { return pos_ == bytes_.size(); }
  // Byte offset of the next read — failure messages locate the defect
  // with it ("corrupt at byte N").
  std::size_t position() const { return pos_; }

 private:
  void require(std::size_t n) const;
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

// Writes `bytes` to `path` atomically (path + ".tmp", then rename).
// Throws std::runtime_error on IO failure.
void atomic_write_file(const std::string& path, const std::string& bytes);

// FNV-1a 64-bit digest; seals snapshot files so corruption anywhere in
// the header or payload is detected, not merely out-of-range lengths.
std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

// --- Single-payload snapshots ----------------------------------------
//
// The simulation process (src/sim/process.*) checkpoints one opaque
// state blob per commit, and CheckpointStore seals its unit map the
// same way. Layout:
//
//   u64 magic | u64 kind | u64 fingerprint | u64 payload size
//   payload bytes | u64 fnv1a64(everything before the digest)
//
// Every load failure is classified and *located*: a truncated, bit
// -flipped, stale or foreign file comes back as
// Error{kCheckpointCorrupt|kIoError, "<path>: ... at byte N"} — never
// UB, never a silently partial state. tests/test_faults.cpp tortures
// read_snapshot with a truncation at every byte boundary and a flip at
// every byte position; golden corrupt files live under
// tests/fixtures/corrupt/checkpoint/.

// Atomically writes a sealed snapshot. Throws std::runtime_error on IO
// failure.
void write_snapshot(const std::string& path, std::uint64_t kind,
                    std::uint64_t fingerprint, const std::string& payload);

// Reads and verifies a snapshot. The payload is returned only when the
// magic, kind, fingerprint, declared size and checksum all agree.
[[nodiscard]] Expected<std::string> read_snapshot(const std::string& path,
                                    std::uint64_t kind,
                                    std::uint64_t fingerprint);

// Throwing form: surfaces the classified failure as a TaxonomyError
// (ErrorCode::kCheckpointCorrupt or kIoError) instead of an Expected.
std::string read_snapshot_or_throw(const std::string& path,
                                   std::uint64_t kind,
                                   std::uint64_t fingerprint);

class CheckpointStore {
 public:
  // Opens (or prepares to create) the store at `path`. An existing file
  // is loaded only when its checksum, kind, fingerprint and unit count
  // all match; otherwise the store starts empty and
  // `recovered_corrupt()` reports whether a file was present but
  // unusable.
  CheckpointStore(std::string path, std::uint64_t kind,
                  std::uint64_t fingerprint, std::uint64_t units);

  bool has(std::uint64_t unit) const SS_EXCLUDES(mu_);
  // Requires has(unit). The returned reference stays valid because
  // payloads are only ever added, never erased or overwritten by a
  // concurrent committer of a *different* unit (units are distinct work
  // items), and std::map never invalidates references on insert.
  const std::string& payload(std::uint64_t unit) const SS_EXCLUDES(mu_);

  // Stores the unit's payload and rewrites the file. Thread-safe (EM
  // restarts commit from pool workers). IO failures are swallowed after
  // updating the in-memory map: losing durability degrades resume, it
  // must not kill the computation.
  void commit(std::uint64_t unit, std::string payload) SS_EXCLUDES(mu_);

  std::size_t completed() const SS_EXCLUDES(mu_);
  bool recovered_corrupt() const { return recovered_corrupt_; }
  // Classified, located description of why the pre-existing file was
  // unusable (code kCheckpointCorrupt; kOk when recovered_corrupt() is
  // false). The store still auto-recovers — losing a checkpoint only
  // costs recomputation — but the defect is surfaced, not swallowed.
  const Error& recovered_error() const { return recovered_error_; }

  // Removes the checkpoint file (call after the run completed).
  void remove_file() SS_EXCLUDES(mu_);

 private:
  bool load_locked(std::string* why) SS_REQUIRES(mu_);
  std::string path_;
  std::uint64_t kind_;
  std::uint64_t fingerprint_;
  std::uint64_t units_;
  // Written only inside the constructor (under mu_, before the object
  // escapes), read-only afterwards — deliberately not guarded so the
  // accessors stay lock-free.
  bool recovered_corrupt_ = false;
  Error recovered_error_;
  mutable Mutex mu_;
  std::map<std::uint64_t, std::string> payloads_ SS_GUARDED_BY(mu_);
};

// Order-insensitive-free fingerprint helper: fold `value` into `acc`
// (splitmix-style) so configs/shapes hash to a stable id.
std::uint64_t fingerprint_combine(std::uint64_t acc, std::uint64_t value);
std::uint64_t fingerprint_combine(std::uint64_t acc, double value);

}  // namespace ss
