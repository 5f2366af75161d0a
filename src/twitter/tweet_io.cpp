#include "twitter/tweet_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "util/string_util.h"

namespace ss {
namespace {

// Minimal targeted JSON-line parsing: the writer controls the format
// (flat object, known keys, no nesting), so a small scanner suffices and
// keeps the module dependency-free.

// The byte a `\u00XX` escape at `hex` (the four bytes after the 'u')
// stands for when XX is two hex digits below 0x20, else -1.
int control_escape(std::string_view line, std::size_t hex) {
  auto digit = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex + 4 > line.size() || line[hex] != '0' || line[hex + 1] != '0') {
    return -1;
  }
  int high = digit(line[hex + 2]);
  int low = digit(line[hex + 3]);
  if (high < 0 || high > 1 || low < 0) return -1;
  return high * 16 + low;
}

// Decodes the string value that starts at `begin` and holds its first
// escape at `escape`: `\n`, `\t` and `\r` are their control bytes,
// `\u00XX` below 0x20 is that byte, and any other escaped byte stands
// for itself. A backslash that ends the line is a plain byte. Returns
// false when no unescaped '"' closes the value.
bool decode_string(std::string_view line, std::size_t begin,
                   std::size_t escape, std::string& scratch,
                   std::string_view& out) {
  scratch.assign(line.data() + begin, escape - begin);
  for (std::size_t i = escape; i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      char next = line[++i];
      switch (next) {
        case 'n': scratch += '\n'; break;
        case 't': scratch += '\t'; break;
        case 'r': scratch += '\r'; break;
        case 'u': {
          int byte = control_escape(line, i + 1);
          if (byte < 0) {
            scratch += 'u';
          } else {
            scratch += static_cast<char>(byte);
            i += 4;
          }
          break;
        }
        default: scratch += next;
      }
    } else if (c == '"') {
      out = scratch;
      return true;
    } else {
      scratch += c;
    }
  }
  return false;
}

// The keys a record carries, and the markers that introduce them.
enum Key : std::size_t { kId, kUser, kTime, kText, kParent, kKeyCount };
constexpr std::string_view kMarkers[kKeyCount] = {
    "\"id\":", "\"user\":", "\"time\":", "\"text\":", "\"parent\":"};
constexpr std::size_t kAbsent = std::string_view::npos;

// Where each key's value starts: just past the first `"key":` in the
// line, or kAbsent. Every marker starts with '"', so one pass over the
// line's quotes (memchr) finds the first of each.
std::array<std::size_t, kKeyCount> locate_fields(std::string_view line) {
  std::array<std::size_t, kKeyCount> value;
  value.fill(kAbsent);
  std::size_t missing = kKeyCount;
  for (std::size_t quote = line.find('"'); quote != kAbsent && missing > 0;
       quote = line.find('"', quote + 1)) {
    std::string_view rest = line.substr(quote);
    if (rest.size() < 3) break;
    Key key;
    switch (rest[1]) {
      case 'i': key = kId; break;
      case 'u': key = kUser; break;
      case 't': key = rest[2] == 'i' ? kTime : kText; break;
      case 'p': key = kParent; break;
      default: continue;
    }
    if (value[key] == kAbsent && rest.starts_with(kMarkers[key])) {
      value[key] = quote + kMarkers[key].size();
      --missing;
    }
  }
  return value;
}

// Reads the value that starts at `pos` (from locate_fields). A bare
// value runs to the next ',' or '}' and comes back trimmed; a string
// value runs to its closing '"'. Both are views into the line, except a
// string holding an escape, which is decoded into `scratch`. Returns
// false when the key is absent or its value unterminated.
bool read_value(std::string_view line, std::size_t pos,
                std::string& scratch, std::string_view& out) {
  if (pos >= line.size()) return false;  // kAbsent, or nothing after ':'
  if (line[pos] == '"') {
    std::size_t close = line.find('"', pos + 1);
    if (close == kAbsent) close = line.size();
    std::size_t escape = line.substr(0, close).find('\\', pos + 1);
    if (escape != kAbsent) {
      return decode_string(line, pos + 1, escape, scratch, out);
    }
    if (close == line.size()) return false;
    out = line.substr(pos + 1, close - pos - 1);
    return true;
  }
  // A plain loop: a find_first_of over a set calls memchr per byte.
  std::size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == line.size()) return false;
  out = trim_view(line.substr(pos, end - pos));
  return true;
}

void append_u32(std::string& out, std::uint32_t value) {
  char digits[16];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

}  // namespace

std::string tweets_to_jsonl(const std::vector<Tweet>& tweets) {
  // Keys and punctuation take 44 bytes, each id at most 10 and the time
  // at most 24; escapes may still grow the string.
  constexpr std::size_t kRecordBytes = 44 + 3 * 10 + 24;
  std::size_t bytes = 0;
  for (const Tweet& t : tweets) bytes += kRecordBytes + t.text.size();
  std::string out;
  out.reserve(bytes);
  for (const Tweet& t : tweets) {
    out += "{\"id\":";
    append_u32(out, t.id);
    out += ",\"user\":";
    append_u32(out, t.user);
    out += ",\"time\":";
    // Precision 17 in the general format is "%.17g", byte for byte.
    char time[32];
    out.append(time, std::to_chars(time, time + sizeof time, t.time,
                                   std::chars_format::general, 17)
                         .ptr);
    out += ",\"text\":\"";
    json_escape_append(out, t.text);
    out += '"';
    if (t.is_retweet()) {
      out += ",\"parent\":";
      append_u32(out, t.parent);
    }
    out += "}\n";
  }
  return out;
}

void save_tweets(const std::vector<Tweet>& tweets,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_tweets: cannot write " + path);
  out << tweets_to_jsonl(tweets);
  if (!out) throw std::runtime_error("save_tweets: short write to " + path);
}

std::vector<Tweet> load_tweets(const std::string& path) {
  return load_tweets(path, IngestOptions{});
}

std::vector<Tweet> load_tweets(const std::string& path,
                               const IngestOptions& options,
                               IngestReport* report) {
  Expected<std::vector<Tweet>> loaded =
      try_load_tweets(path, options, report);
  if (!loaded.ok()) throw std::runtime_error(loaded.error().message);
  return std::move(loaded).value();
}

Expected<std::vector<Tweet>> try_load_tweets(
    const std::string& path, const IngestOptions& options,
    IngestReport* report) {
  std::ifstream in(path);
  if (!in) {
    Error error{ErrorCode::kIoError,
                "load_tweets: cannot read " + path};
    if (report != nullptr) {
      report->note(ErrorCode::kIoError, path, 0, "cannot open for read",
                   options.max_recorded_errors);
    }
    return error;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return parse_tweets_jsonl(bytes, path, options, report);
}

Expected<std::vector<Tweet>> parse_tweets_jsonl(
    const std::string& text, const std::string& origin,
    const IngestOptions& options, IngestReport* report) {
  const std::string& path = origin;  // defect locations name the origin
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;

  std::vector<Tweet> tweets;
  tweets.reserve(static_cast<std::size_t>(
                     std::count(text.begin(), text.end(), '\n')) +
                 1);
  std::size_t line_no = 0;
  // Per-record defect handling; returns true when the record may be
  // kept after repair, false when it must be skipped. Throws (with the
  // taxonomy code) in strict mode. Row-level ok/repaired/skipped
  // accounting stays with the caller so a record with several repaired
  // fields still counts as one repaired row.
  auto defect = [&](ErrorCode code, std::string detail,
                    bool repairable) {
    rep.note(code, path, line_no, detail, options.max_recorded_errors);
    if (options.mode == IngestMode::kStrict) {
      throw TaxonomyError(
          code,
          RecordError{code, path, line_no, std::move(detail)}
              .to_string());
    }
    return options.mode == IngestMode::kRepair && repairable;
  };
  auto quoting = [](const char* what, std::string_view field) {
    return std::string(what).append(field);
  };

  std::string scratch;  // an escaped string field's decoded bytes
  std::string_view field;
  try {
    // Lines as std::getline splits them: the last needs no '\n'.
    std::size_t at = 0;
    while (at < text.size()) {
      std::size_t stop = std::min(text.find('\n', at), text.size());
      std::string_view line(text.data() + at, stop - at);
      at = stop + 1;
      ++line_no;
      if (trim_view(line).empty()) continue;
      ++rep.rows_total;
      Tweet t;
      std::array<std::size_t, kKeyCount> value = locate_fields(line);

      // Identity fields: never repairable.
      if (!read_value(line, value[kId], scratch, field)) {
        defect(ErrorCode::kMissingField, "missing field \"id\"", false);
        ++rep.rows_skipped;
        continue;
      }
      if (!try_parse_u32(field, &t.id)) {
        defect(ErrorCode::kBadNumber, quoting("bad id: ", field), false);
        ++rep.rows_skipped;
        continue;
      }
      if (!read_value(line, value[kUser], scratch, field)) {
        defect(ErrorCode::kMissingField, "missing field \"user\"",
               false);
        ++rep.rows_skipped;
        continue;
      }
      if (!try_parse_u32(field, &t.user)) {
        defect(ErrorCode::kBadNumber, quoting("bad user: ", field), false);
        ++rep.rows_skipped;
        continue;
      }

      bool repaired = false;
      // Payload fields: each has an unambiguous repair.
      if (!read_value(line, value[kTime], scratch, field)) {
        if (!defect(ErrorCode::kMissingField, "missing field \"time\"",
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      } else if (!try_parse_f64(field, &t.time)) {
        if (!defect(ErrorCode::kBadNumber, quoting("bad time: ", field),
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      } else if (!std::isfinite(t.time)) {
        if (!defect(ErrorCode::kNonFinite,
                    quoting("non-finite time: ", field), true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      }
      if (read_value(line, value[kText], scratch, field)) {
        t.text = field;
      } else {
        if (!defect(ErrorCode::kMissingField, "missing field \"text\"",
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        repaired = true;
      }
      if (read_value(line, value[kParent], scratch, field)) {
        if (!try_parse_u32(field, &t.parent)) {
          if (!defect(ErrorCode::kBadNumber, quoting("bad parent: ", field),
                      true)) {
            ++rep.rows_skipped;
            continue;
          }
          t.parent = Tweet::kNoParent;  // repair: treat as original
          repaired = true;
        }
      }
      if (repaired) ++rep.rows_repaired;
      else ++rep.rows_ok;
      tweets.push_back(std::move(t));
    }
  } catch (const TaxonomyError& e) {
    return Error{e.code(), e.what()};
  }
  return tweets;
}

void save_tweet_labels(const std::vector<Tweet>& tweets,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_tweet_labels: cannot write " + path);
  }
  out << "tweet,label\n";
  for (const Tweet& t : tweets) {
    out << t.id << ',' << label_name(t.hidden_label) << '\n';
  }
}

std::unordered_map<std::uint32_t, Label> load_tweet_labels(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_tweet_labels: cannot read " + path);
  }
  std::unordered_map<std::uint32_t, Label> labels;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (trim_view(line).empty()) continue;
    auto fields = csv_parse_line(line);
    std::uint32_t id = 0;
    Label label = Label::kUnknown;
    if (fields.size() != 2 || !try_parse_u32(fields[0], &id) ||
        !try_parse_label(fields[1], &label)) {
      throw std::runtime_error("load_tweet_labels: bad row " + line);
    }
    labels[id] = label;
  }
  return labels;
}

}  // namespace ss
