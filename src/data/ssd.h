// .ssd — the mmap-able binary dataset format for million-source runs.
//
// A packed, sealed, random-access image of one fact-finding problem
// instance (docs/MODEL.md §14):
//
//   [fixed header]   magic | version | fingerprint | n | m | claims |
//                    exposed | section count | payload digest
//   [section table]  {id, byte offset, byte size} per section
//   [header digest]  fnv1a64 over everything above (the checkpoint
//                    convention, util/checkpoint.h)
//   [sections]       8-byte aligned CSR payloads, both orientations:
//                    per-assertion claimant/exposed lists and
//                    per-source claim/exposure lists, claim times,
//                    truth labels, dataset name
//
// Opening a file costs one mmap plus an O(sections + offsets) header
// check — milliseconds at 10^6 sources, versus seconds of JSONL/CSV
// parsing (tests/test_scale_smoke.cpp gates the ratio). The header
// digest seals the metadata; the payload digest is stored but verified
// only on demand (`verify_payload`, ss_pack --verify), so corruption
// anywhere is detectable without taxing every open with a full-file
// scan.
//
// Every load failure is classified and located, never UB: kIoError for
// filesystem problems, kCheckpointCorrupt for magic/version/digest/
// truncation defects ("... at byte N"), kIndexOutOfRange for CSR
// defects. Golden corrupt files live in tests/fixtures/corrupt/ssd/.
//
// SsdWriter streams: callers emit one assertion column at a time
// (claims + exposed cells), the writer spools column sections to
// sidecar temp files and keeps only O(n + m) counters in RAM, then
// finish() assembles the final image, derives the row-oriented
// sections by a counting-sort transpose inside the mapped output, and
// commits with the atomic temp+rename convention. A 10^6-source
// cascade therefore packs without ever materializing a Dataset.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace ss {

// "ssd1" + CR LF EOF LF: like PNG's signature, the tail bytes catch
// text-mode transfer mangling before any field is trusted.
inline constexpr std::uint64_t kSsdMagic = 0x0A1A0A0D31647373ull;
inline constexpr std::uint64_t kSsdVersion = 1;

// Section ids (all required in version 1).
enum class SsdSection : std::uint64_t {
  kName = 1,          // char[...]
  kTruth = 2,         // u8[m] (Label values)
  kColClaimOff = 3,   // u64[m+1]
  kColClaimants = 4,  // u32[claims], ascending per column
  kColClaimTimes = 5, // f64[claims], aligned with kColClaimants
  kColExpOff = 6,     // u64[m+1]
  kColExposed = 7,    // u32[exposed], ascending per column
  kRowClaimOff = 8,   // u64[n+1]
  kRowClaims = 9,     // u32[claims], ascending per row
  kRowClaimTimes = 10,// f64[claims], aligned with kRowClaims
  kRowExpOff = 11,    // u64[n+1]
  kRowExposed = 12,   // u32[exposed], ascending per row
};
inline constexpr std::size_t kSsdSectionCount = 12;

struct SsdStats {
  std::size_t sources = 0;
  std::size_t assertions = 0;
  std::size_t claims = 0;
  std::size_t exposed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t bytes = 0;
};

// Read-only mmap view. Move-only; the mapping lives as long as the
// view. All spans point into the mapping — zero copies.
class SsdView {
 public:
  SsdView() = default;
  SsdView(SsdView&& other) noexcept { *this = std::move(other); }
  SsdView& operator=(SsdView&& other) noexcept;
  SsdView(const SsdView&) = delete;
  SsdView& operator=(const SsdView&) = delete;
  ~SsdView();

  // Maps and validates `path` (header digest, section table, CSR
  // offset monotonicity — not the payload digest; see verify_payload).
  [[nodiscard]] static Expected<SsdView> open(const std::string& path);
  // Throwing form (TaxonomyError carries the classified code).
  static SsdView open_or_throw(const std::string& path);

  bool valid() const { return base_ != nullptr; }
  std::size_t source_count() const { return n_; }
  std::size_t assertion_count() const { return m_; }
  std::size_t claim_count() const { return claims_; }
  std::size_t exposed_cell_count() const { return exposed_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::size_t file_size() const { return map_size_; }
  std::string name() const { return {name_.begin(), name_.end()}; }

  // Column (per-assertion) views.
  std::span<const std::uint32_t> claimants_of(std::size_t j) const {
    return slice(col_claimants_, col_claim_off_, j);
  }
  std::span<const double> claimant_times_of(std::size_t j) const {
    return slice(col_claim_times_, col_claim_off_, j);
  }
  std::span<const std::uint32_t> exposed_sources(std::size_t j) const {
    return slice(col_exposed_, col_exp_off_, j);
  }
  // Row (per-source) views.
  std::span<const std::uint32_t> claims_of(std::size_t i) const {
    return slice(row_claims_, row_claim_off_, i);
  }
  std::span<const double> claim_times_of(std::size_t i) const {
    return slice(row_claim_times_, row_claim_off_, i);
  }
  std::span<const std::uint32_t> exposed_assertions(std::size_t i) const {
    return slice(row_exposed_, row_exp_off_, i);
  }
  Label truth(std::size_t j) const {
    return static_cast<Label>(truth_[j]);
  }

  // Recomputes the payload digest over every section (full-file scan)
  // and checks it against the sealed header value. `why` receives the
  // classified mismatch when non-null.
  [[nodiscard]] bool verify_payload(Error* why = nullptr) const;

  // Expands the view into an ordinary in-memory Dataset (tests, small
  // files, tools). Costs the full materialization the view exists to
  // avoid — ShardedDataset::build(const SsdView&) is the scale path.
  Dataset materialize() const;

 private:
  template <typename T>
  std::span<const T> slice(std::span<const T> data,
                           std::span<const std::uint64_t> off,
                           std::size_t at) const {
    return data.subspan(off[at], off[at + 1] - off[at]);
  }

  void unmap();

  const char* base_ = nullptr;  // mmap base (or owned buffer fallback)
  std::size_t map_size_ = 0;
  bool mapped_ = false;  // true: munmap on destroy; false: delete[]
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t claims_ = 0;
  std::size_t exposed_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t payload_digest_ = 0;
  std::span<const char> name_;
  std::span<const std::uint8_t> truth_;
  std::span<const std::uint64_t> col_claim_off_;
  std::span<const std::uint32_t> col_claimants_;
  std::span<const double> col_claim_times_;
  std::span<const std::uint64_t> col_exp_off_;
  std::span<const std::uint32_t> col_exposed_;
  std::span<const std::uint64_t> row_claim_off_;
  std::span<const std::uint32_t> row_claims_;
  std::span<const double> row_claim_times_;
  std::span<const std::uint64_t> row_exp_off_;
  std::span<const std::uint32_t> row_exposed_;
  // Section table copy (id -> offset/size) for verify_payload.
  std::vector<std::uint64_t> table_;
};

// Streaming writer; see the file comment for the lifecycle. Claims and
// exposed cells within one assertion may arrive in any source order —
// the writer sorts each column before spooling it (columns are small;
// the file stores ascending lists). Throws std::runtime_error on IO
// failure and std::invalid_argument on misuse (source id out of range,
// claim outside begin_assertion).
class SsdWriter {
 public:
  SsdWriter(std::string path, std::size_t sources,
            std::string name = "dataset");
  ~SsdWriter();
  SsdWriter(const SsdWriter&) = delete;
  SsdWriter& operator=(const SsdWriter&) = delete;

  void begin_assertion(Label truth = Label::kUnknown);
  void claim(std::uint32_t source, double time);
  void exposed(std::uint32_t source);

  // Assembles and atomically commits the file; returns the final
  // shape. The writer is spent afterwards.
  SsdStats finish();

 private:
  void flush_column();
  struct Impl;
  Impl* impl_;
};

// Convenience one-shot.
SsdStats write_ssd(const Dataset& dataset, const std::string& path);

}  // namespace ss
