#include "twitter/tweet_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace ss {
namespace {

// Minimal targeted JSON-line parsing: the writer controls the format
// (flat object, known keys, no nesting), so a small scanner suffices and
// keeps the module dependency-free.
bool extract_field(const std::string& line, const std::string& key,
                   std::string& out) {
  std::string marker = "\"" + key + "\":";
  auto pos = line.find(marker);
  if (pos == std::string::npos) return false;
  pos += marker.size();
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    // String value with escapes.
    std::string value;
    for (std::size_t i = pos + 1; i < line.size(); ++i) {
      char c = line[i];
      if (c == '\\' && i + 1 < line.size()) {
        char next = line[++i];
        switch (next) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case 'r': value += '\r'; break;
          default: value += next;
        }
      } else if (c == '"') {
        out = std::move(value);
        return true;
      } else {
        value += c;
      }
    }
    return false;
  }
  auto end = line.find_first_of(",}", pos);
  if (end == std::string::npos) return false;
  out = trim(line.substr(pos, end - pos));
  return true;
}

}  // namespace

std::string tweets_to_jsonl(const std::vector<Tweet>& tweets) {
  std::ostringstream out;
  for (const Tweet& t : tweets) {
    out << "{\"id\":" << t.id << ",\"user\":" << t.user
        << ",\"time\":" << strprintf("%.17g", t.time) << ",\"text\":\""
        << json_escape(t.text) << "\"";
    if (t.is_retweet()) out << ",\"parent\":" << t.parent;
    out << "}\n";
  }
  return out.str();
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
  std::istringstream in(text);
  const std::string& path = origin;  // defect locations name the origin
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;

  std::vector<Tweet> tweets;
  std::string line;
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

  try {
    while (std::getline(in, line)) {
      ++line_no;
      if (trim(line).empty()) continue;
      ++rep.rows_total;
      Tweet t;
      std::string field;

      // Identity fields: never repairable.
      if (!extract_field(line, "id", field)) {
        defect(ErrorCode::kMissingField, "missing field \"id\"", false);
        ++rep.rows_skipped;
        continue;
      }
      if (!try_parse_u32(field, &t.id)) {
        defect(ErrorCode::kBadNumber, "bad id: " + field, false);
        ++rep.rows_skipped;
        continue;
      }
      if (!extract_field(line, "user", field)) {
        defect(ErrorCode::kMissingField, "missing field \"user\"",
               false);
        ++rep.rows_skipped;
        continue;
      }
      if (!try_parse_u32(field, &t.user)) {
        defect(ErrorCode::kBadNumber, "bad user: " + field, false);
        ++rep.rows_skipped;
        continue;
      }

      bool repaired = false;
      // Payload fields: each has an unambiguous repair.
      if (!extract_field(line, "time", field)) {
        if (!defect(ErrorCode::kMissingField, "missing field \"time\"",
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      } else if (!try_parse_f64(field, &t.time)) {
        if (!defect(ErrorCode::kBadNumber, "bad time: " + field, true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      } else if (!std::isfinite(t.time)) {
        if (!defect(ErrorCode::kNonFinite, "non-finite time: " + field,
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      }
      if (!extract_field(line, "text", field)) {
        if (!defect(ErrorCode::kMissingField, "missing field \"text\"",
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        field.clear();
        repaired = true;
      }
      t.text = field;
      if (extract_field(line, "parent", field)) {
        if (!try_parse_u32(field, &t.parent)) {
          if (!defect(ErrorCode::kBadNumber, "bad parent: " + field,
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
    if (trim(line).empty()) continue;
    auto fields = csv_parse_line(line);
    if (fields.size() != 2) {
      throw std::runtime_error("load_tweet_labels: bad row " + line);
    }
    Label label = Label::kUnknown;
    if (fields[1] == "True") label = Label::kTrue;
    else if (fields[1] == "False") label = Label::kFalse;
    else if (fields[1] == "Opinion") label = Label::kOpinion;
    labels[static_cast<std::uint32_t>(std::stoul(fields[0]))] = label;
  }
  return labels;
}

}  // namespace ss
