#include "util/status.h"

#include "util/string_util.h"

namespace ss {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kBadRow: return "bad-row";
    case ErrorCode::kBadNumber: return "bad-number";
    case ErrorCode::kBadLabel: return "bad-label";
    case ErrorCode::kMissingField: return "missing-field";
    case ErrorCode::kIndexOutOfRange: return "index-out-of-range";
    case ErrorCode::kNonFinite: return "non-finite";
    case ErrorCode::kCheckpointCorrupt: return "checkpoint-corrupt";
    case ErrorCode::kFaultInjected: return "fault-injected";
  }
  return "unknown";
}

std::string RecordError::to_string() const {
  return strprintf("%s:%zu: %s: %s", file.c_str(), line,
                   error_code_name(code), detail.c_str());
}

void IngestReport::note(ErrorCode code, const std::string& file,
                        std::size_t line, std::string detail,
                        std::size_t cap) {
  ++code_counts[static_cast<std::size_t>(code)];
  if (errors.size() < cap) {
    errors.push_back({code, file, line, std::move(detail)});
  }
}

std::string IngestReport::summary() const {
  std::string out = strprintf(
      "%zu rows: %zu ok, %zu repaired, %zu skipped", rows_total, rows_ok,
      rows_repaired, rows_skipped);
  std::string codes;
  for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
    if (code_counts[c] == 0) continue;
    if (!codes.empty()) codes += ' ';
    codes += strprintf("%s:%zu",
                       error_code_name(static_cast<ErrorCode>(c)),
                       code_counts[c]);
  }
  if (!codes.empty()) out += " (" + codes + ")";
  return out;
}

}  // namespace ss
