// Error taxonomy and fault-tolerant result types shared by the
// ingestion, inference and checkpoint layers.
//
// The Apollo deployment ingests live streams during breaking events,
// where malformed records and degenerate sources are the norm. Instead
// of a zoo of ad-hoc std::runtime_error strings, every recoverable
// failure is classified by an ErrorCode, reported per record through an
// IngestReport, and — where the caller wants to branch rather than
// catch — carried by Expected<T>.
//
// Ingestion modes (load_dataset / load_tweets):
//   kStrict     legacy behaviour: the first malformed record throws,
//               with file:line and taxonomy code in the message.
//   kPermissive malformed records are skipped and counted; the loader
//               returns everything that parsed.
//   kRepair     like permissive, but records whose defect has an
//               unambiguous fix (non-finite timestamp -> 0, unknown
//               truth label -> Unknown, bad retweet parent -> original)
//               are repaired and kept instead of skipped.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace ss {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kIoError,            // file missing, unreadable, or unwritable
  kBadRow,             // wrong field count / unparseable structure
  kBadNumber,          // numeric field failed to parse
  kBadLabel,           // unknown truth label
  kMissingField,       // record lacks a required key
  kIndexOutOfRange,    // id outside the declared dimensions
  kNonFinite,          // NaN/Inf where a finite number is required
  kCheckpointCorrupt,  // checkpoint file failed magic/version/fingerprint
  kFaultInjected,      // synthetic fault from the injection harness
};
inline constexpr std::size_t kErrorCodeCount = 10;

const char* error_code_name(ErrorCode code);

struct [[nodiscard]] Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
};

// Exception that keeps its taxonomy code, so a throwing API (strict
// ingestion) and the Expected-based one classify failures identically.
class TaxonomyError : public std::runtime_error {
 public:
  TaxonomyError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

// Minimal expected/either type: either a value or a classified error.
// value() on an error throws std::runtime_error carrying the message,
// so callers that do not care about taxonomy keep exception semantics.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}
  Expected(Error error) : state_(std::move(error)) {}

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(state_));
  }

  // Requires !ok().
  [[nodiscard]] const Error& error() const { return std::get<Error>(state_); }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::runtime_error(std::get<Error>(state_).message);
    }
  }
  std::variant<T, Error> state_;
};

enum class IngestMode : std::uint8_t {
  kStrict = 0,
  kPermissive,
  kRepair,
};

struct IngestOptions {
  IngestMode mode = IngestMode::kStrict;
  // Per-record error details kept in IngestReport::errors; counts stay
  // exact beyond the cap.
  std::size_t max_recorded_errors = 32;
};

// One classified defect, located to its record.
struct RecordError {
  ErrorCode code = ErrorCode::kOk;
  std::string file;
  std::size_t line = 0;  // 1-based line number within `file`
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

// Per-run ingestion accounting. rows_total counts every non-blank data
// row seen; each row ends up in exactly one of ok/repaired/skipped.
struct [[nodiscard]] IngestReport {
  std::size_t rows_total = 0;
  std::size_t rows_ok = 0;
  std::size_t rows_repaired = 0;
  std::size_t rows_skipped = 0;
  // Exact per-code defect counts (a repaired row still counts its code).
  std::array<std::size_t, kErrorCodeCount> code_counts{};
  // First max_recorded_errors defects in file order.
  std::vector<RecordError> errors;

  [[nodiscard]] std::size_t count(ErrorCode code) const {
    return code_counts[static_cast<std::size_t>(code)];
  }
  [[nodiscard]] bool clean() const { return rows_skipped == 0 && rows_repaired == 0; }

  // Records a defect (detail list capped by `cap`); the caller still
  // decides whether the row is skipped or repaired.
  void note(ErrorCode code, const std::string& file, std::size_t line,
            std::string detail, std::size_t cap);

  // One-line human summary, e.g.
  // "1000 rows: 990 ok, 6 repaired, 4 skipped (bad-number:3 bad-row:1)".
  [[nodiscard]] std::string summary() const;
};

}  // namespace ss
