#include "data/io.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/string_util.h"

namespace ss {
namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  return out;
}

// Source and assertion ids are uint32 (data/source_claim_matrix.h), so
// declared dimensions beyond that are rejected before any allocation.
bool ids_fit_u32(std::uint64_t sources, std::uint64_t assertions) {
  return sources <= UINT32_MAX && assertions <= UINT32_MAX;
}

// Shared state of one load: options, the report sink (caller's or a
// local one so counting never branches on null), and the first error
// for strict mode.
struct LoadContext {
  IngestOptions options;
  IngestReport* report;
  IngestReport local;

  IngestReport& rep() { return report != nullptr ? *report : local; }

  // Classifies one defective row. Returns true when the row may be
  // *kept* (repair mode and the caller has a fix); false when it must
  // be skipped. Throws in strict mode.
  bool defect(ErrorCode code, const std::string& file, std::size_t line,
              std::string detail, bool repairable) {
    IngestReport& r = rep();
    r.note(code, file, line, detail, options.max_recorded_errors);
    if (options.mode == IngestMode::kStrict) {
      throw TaxonomyError(
          code, RecordError{code, file, line, std::move(detail)}
                    .to_string());
    }
    if (options.mode == IngestMode::kRepair && repairable) {
      ++r.rows_repaired;
      return true;
    }
    ++r.rows_skipped;
    return false;
  }
};

// Iterates the data rows of one CSV file (header skipped, blank lines
// ignored), handing each parsed field list to `row(line_no, fields)`.
// Returns false (or throws, per mode) when the file cannot be opened.
template <typename RowFn>
bool for_each_csv_row(const std::string& path, LoadContext& ctx,
                      const RowFn& row) {
  std::ifstream in(path);
  if (!in) return false;  // the caller notes the kIoError once
  std::string line;
  std::size_t line_no = 1;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    ++ctx.rep().rows_total;
    row(line_no, csv_parse_line(line));
  }
  return true;
}

Expected<Dataset> load_dataset_impl(const std::string& directory,
                                    LoadContext& ctx) {
  auto fail = [&](ErrorCode code, const std::string& file,
                  std::size_t line,
                  const std::string& detail) -> Error {
    ctx.rep().note(code, file, line, detail,
                   ctx.options.max_recorded_errors);
    return Error{code,
                 RecordError{code, file, line, detail}.to_string()};
  };

  // meta.csv: fatal in every mode — the dimensions gate all validation.
  std::string name;
  std::uint64_t sources = 0;
  std::uint64_t assertions = 0;
  {
    std::string path = directory + "/meta.csv";
    std::ifstream in(path);
    if (!in) return fail(ErrorCode::kIoError, path, 0, "cannot open");
    std::string line;
    std::getline(in, line);  // header
    if (!std::getline(in, line)) {
      return fail(ErrorCode::kBadRow, path, 2, "missing data row");
    }
    auto fields = csv_parse_line(line);
    if (fields.size() != 3) {
      return fail(ErrorCode::kBadRow, path, 2,
                  strprintf("expected 3 fields, got %zu",
                            fields.size()));
    }
    name = fields[0];
    if (!try_parse_u64(fields[1], &sources) ||
        !try_parse_u64(fields[2], &assertions)) {
      return fail(ErrorCode::kBadNumber, path, 2,
                  "unparseable dimensions: " + fields[1] + "," +
                      fields[2]);
    }
    if (!ids_fit_u32(sources, assertions)) {
      return fail(ErrorCode::kIndexOutOfRange, path, 2,
                  "dimensions " + fields[1] + "," + fields[2] +
                      " exceed the uint32 id space");
    }
  }

  std::vector<Claim> claims;
  {
    std::string path = directory + "/claims.csv";
    bool opened = for_each_csv_row(
        path, ctx,
        [&](std::size_t line_no, const std::vector<std::string>& f) {
          if (f.size() != 3) {
            ctx.defect(ErrorCode::kBadRow, path, line_no,
                       strprintf("expected 3 fields, got %zu", f.size()),
                       /*repairable=*/false);
            return;
          }
          Claim c;
          if (!try_parse_u32(f[0], &c.source) ||
              !try_parse_u32(f[1], &c.assertion)) {
            ctx.defect(ErrorCode::kBadNumber, path, line_no,
                       "unparseable index: " + f[0] + "," + f[1],
                       /*repairable=*/false);
            return;
          }
          if (c.source >= sources || c.assertion >= assertions) {
            ctx.defect(
                ErrorCode::kIndexOutOfRange, path, line_no,
                strprintf("claim (%u,%u) outside declared %llu x %llu",
                          c.source, c.assertion,
                          static_cast<unsigned long long>(sources),
                          static_cast<unsigned long long>(assertions)),
                /*repairable=*/false);
            return;
          }
          if (!try_parse_f64(f[2], &c.time)) {
            ctx.defect(ErrorCode::kBadNumber, path, line_no,
                       "unparseable time: " + f[2],
                       /*repairable=*/false);
            return;
          }
          if (!std::isfinite(c.time)) {
            if (!ctx.defect(ErrorCode::kNonFinite, path, line_no,
                            "non-finite time: " + f[2],
                            /*repairable=*/true)) {
              return;
            }
            c.time = 0.0;  // repair: order-neutral sentinel time
          } else {
            ++ctx.rep().rows_ok;
          }
          claims.push_back(c);
        });
    if (!opened) {
      return fail(ErrorCode::kIoError, path, 0, "cannot open");
    }
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> exposed;
  {
    std::string path = directory + "/exposure.csv";
    bool opened = for_each_csv_row(
        path, ctx,
        [&](std::size_t line_no, const std::vector<std::string>& f) {
          if (f.size() != 2) {
            ctx.defect(ErrorCode::kBadRow, path, line_no,
                       strprintf("expected 2 fields, got %zu", f.size()),
                       /*repairable=*/false);
            return;
          }
          std::uint32_t s = 0, a = 0;
          if (!try_parse_u32(f[0], &s) || !try_parse_u32(f[1], &a)) {
            ctx.defect(ErrorCode::kBadNumber, path, line_no,
                       "unparseable index: " + f[0] + "," + f[1],
                       /*repairable=*/false);
            return;
          }
          if (s >= sources || a >= assertions) {
            ctx.defect(
                ErrorCode::kIndexOutOfRange, path, line_no,
                strprintf("cell (%u,%u) outside declared %llu x %llu",
                          s, a,
                          static_cast<unsigned long long>(sources),
                          static_cast<unsigned long long>(assertions)),
                /*repairable=*/false);
            return;
          }
          ++ctx.rep().rows_ok;
          exposed.emplace_back(s, a);
        });
    if (!opened) {
      return fail(ErrorCode::kIoError, path, 0, "cannot open");
    }
  }

  std::vector<Label> truth;
  {
    std::string path = directory + "/truth.csv";
    bool opened = for_each_csv_row(
        path, ctx,
        [&](std::size_t line_no, const std::vector<std::string>& f) {
          if (f.size() != 2) {
            ctx.defect(ErrorCode::kBadRow, path, line_no,
                       strprintf("expected 2 fields, got %zu", f.size()),
                       /*repairable=*/false);
            return;
          }
          std::uint64_t j = 0;
          if (!try_parse_u64(f[0], &j)) {
            ctx.defect(ErrorCode::kBadNumber, path, line_no,
                       "unparseable assertion id: " + f[0],
                       /*repairable=*/false);
            return;
          }
          // Previously a row with j >= assertions silently grew the
          // vector and was truncated again later; now it is a
          // classified per-row defect.
          if (j >= assertions) {
            ctx.defect(
                ErrorCode::kIndexOutOfRange, path, line_no,
                strprintf("assertion %llu outside declared %llu",
                          static_cast<unsigned long long>(j),
                          static_cast<unsigned long long>(assertions)),
                /*repairable=*/false);
            return;
          }
          Label label = Label::kUnknown;
          if (!try_parse_label(f[1], &label)) {
            if (!ctx.defect(ErrorCode::kBadLabel, path, line_no,
                            "bad label: " + f[1],
                            /*repairable=*/true)) {
              return;
            }
            label = Label::kUnknown;  // repair: grade as ungraded
          } else {
            ++ctx.rep().rows_ok;
          }
          if (truth.size() <= j) truth.resize(j + 1, Label::kUnknown);
          truth[j] = label;
        });
    if (!opened) {
      return fail(ErrorCode::kIoError, path, 0, "cannot open");
    }
  }
  if (!truth.empty()) truth.resize(assertions, Label::kUnknown);

  Dataset dataset;
  dataset.name = name;
  dataset.claims = SourceClaimMatrix(sources, assertions, claims);
  dataset.dependency =
      DependencyIndicators::from_cells(sources, assertions, exposed);
  dataset.truth = std::move(truth);
  dataset.validate();
  return dataset;
}

}  // namespace

void save_dataset(const Dataset& dataset, const std::string& directory) {
  dataset.validate();
  std::filesystem::create_directories(directory);

  {
    auto out = open_out(directory + "/meta.csv");
    out << "name,sources,assertions\n";
    out << csv_escape(dataset.name) << ',' << dataset.source_count() << ','
        << dataset.assertion_count() << '\n';
  }
  {
    auto out = open_out(directory + "/claims.csv");
    out << "source,assertion,time\n";
    for (const Claim& c : dataset.claims.to_claims()) {
      out << c.source << ',' << c.assertion << ','
          << strprintf("%.9g", c.time) << '\n';
    }
  }
  {
    auto out = open_out(directory + "/exposure.csv");
    out << "source,assertion\n";
    for (std::size_t i = 0; i < dataset.source_count(); ++i) {
      for (std::uint32_t j : dataset.dependency.exposed_assertions(i)) {
        out << i << ',' << j << '\n';
      }
    }
  }
  {
    auto out = open_out(directory + "/truth.csv");
    out << "assertion,label\n";
    for (std::size_t j = 0; j < dataset.truth.size(); ++j) {
      out << j << ',' << label_name(dataset.truth[j]) << '\n';
    }
  }
}

Dataset load_dataset(const std::string& directory) {
  return load_dataset(directory, IngestOptions{});
}

Dataset load_dataset(const std::string& directory,
                     const IngestOptions& options, IngestReport* report) {
  Expected<Dataset> loaded = try_load_dataset(directory, options, report);
  if (!loaded.ok()) throw std::runtime_error(loaded.error().message);
  return std::move(loaded).value();
}

Expected<Dataset> try_load_dataset(const std::string& directory,
                                   const IngestOptions& options,
                                   IngestReport* report) {
  LoadContext ctx;
  ctx.options = options;
  ctx.report = report;
  try {
    return load_dataset_impl(directory, ctx);
  } catch (const TaxonomyError& e) {
    return Error{e.code(), e.what()};  // strict-mode row defect
  } catch (const std::exception& e) {
    // Shape error surfaced by validate() or matrix construction.
    return Error{ErrorCode::kBadRow, e.what()};
  }
}

// --- JSONL stream ----------------------------------------------------

namespace {

// Targeted JSON-line scanning (the writer controls the format: flat
// objects, known keys — same approach as twitter/tweet_io).

// `"key":value` where value is a number (terminated by , } ]) or a
// quoted string with backslash escapes.
bool extract_field(const std::string& line, const std::string& key,
                   std::string& out) {
  std::string marker = "\"" + key + "\":";
  auto pos = line.find(marker);
  if (pos == std::string::npos) return false;
  pos += marker.size();
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
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
  auto end = line.find_first_of(",}]", pos);
  if (end == std::string::npos) return false;
  out = trim(line.substr(pos, end - pos));
  return true;
}

// Extracts the bracketed payload of `"key":[...]` split on commas.
bool extract_json_array(const std::string& line, const std::string& key,
                        std::vector<std::string>& out) {
  std::string marker = "\"" + key + "\":[";
  auto pos = line.find(marker);
  if (pos == std::string::npos) return false;
  pos += marker.size();
  auto end = line.find(']', pos);
  if (end == std::string::npos) return false;
  out.clear();
  std::size_t at = pos;
  while (at < end) {
    std::size_t comma = line.find(',', at);
    if (comma == std::string::npos || comma > end) comma = end;
    out.push_back(trim(line.substr(at, comma - at)));
    at = comma + 1;
  }
  return !out.empty();
}

// Strips the quotes of a JSON string element ("True" -> True). Labels
// contain no escapes, so unquoting is a slice.
bool unquote(const std::string& s, std::string& out) {
  if (s.size() < 2 || s.front() != '"' || s.back() != '"') return false;
  out = s.substr(1, s.size() - 2);
  return true;
}

[[noreturn]] void jsonl_defect(ErrorCode code, const std::string& path,
                               std::size_t line, std::string detail) {
  throw TaxonomyError(
      code,
      RecordError{code, path, line, std::move(detail)}.to_string());
}

}  // namespace

void save_dataset_jsonl(const Dataset& dataset, const std::string& path) {
  dataset.validate();
  auto out = open_out(path);
  out << "{\"meta\":{\"name\":\"" << json_escape(dataset.name)
      << "\",\"sources\":" << dataset.source_count()
      << ",\"assertions\":" << dataset.assertion_count() << "}}\n";
  for (const Claim& c : dataset.claims.to_claims()) {
    out << "{\"claim\":[" << c.source << ',' << c.assertion << ','
        << strprintf("%.17g", c.time) << "]}\n";
  }
  for (std::size_t i = 0; i < dataset.source_count(); ++i) {
    for (std::uint32_t j : dataset.dependency.exposed_assertions(i)) {
      out << "{\"exposure\":[" << i << ',' << j << "]}\n";
    }
  }
  for (std::size_t j = 0; j < dataset.truth.size(); ++j) {
    if (dataset.truth[j] == Label::kUnknown) continue;
    out << "{\"truth\":[" << j << ",\"" << label_name(dataset.truth[j])
        << "\"]}\n";
  }
  if (!out) throw std::runtime_error("short write: " + path);
}

Dataset load_dataset_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw TaxonomyError(ErrorCode::kIoError, "cannot open: " + path);
  }
  std::string line;
  std::size_t lineno = 1;
  if (!std::getline(in, line)) {
    jsonl_defect(ErrorCode::kBadRow, path, 1, "missing meta line");
  }
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  {
    std::string field;
    if (line.find("\"meta\"") == std::string::npos ||
        !extract_field(line, "name", name) ||
        !extract_field(line, "sources", field) ||
        !try_parse_u64(field, &n) ||
        !extract_field(line, "assertions", field) ||
        !try_parse_u64(field, &m)) {
      jsonl_defect(ErrorCode::kBadRow, path, 1, "malformed meta line");
    }
    if (!ids_fit_u32(n, m)) {
      jsonl_defect(ErrorCode::kIndexOutOfRange, path, 1,
                   strprintf("dimensions %llu,%llu exceed the uint32 id "
                             "space",
                             static_cast<unsigned long long>(n),
                             static_cast<unsigned long long>(m)));
    }
  }

  std::vector<Claim> claims;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> exposed;
  std::vector<Label> truth(static_cast<std::size_t>(m), Label::kUnknown);
  bool labeled = false;
  std::vector<std::string> f;
  while (std::getline(in, line)) {
    ++lineno;
    if (trim(line).empty()) continue;
    // `limit` <= UINT32_MAX (checked at the meta line), so an id below
    // it fits the cast.
    auto index = [&](const std::string& s, std::uint64_t limit,
                     const char* what) -> std::uint32_t {
      std::uint64_t v = 0;
      if (!try_parse_u64(s, &v)) {
        jsonl_defect(ErrorCode::kBadNumber, path, lineno,
                     std::string("unparseable ") + what + " '" + s + "'");
      }
      if (v >= limit) {
        jsonl_defect(ErrorCode::kIndexOutOfRange, path, lineno,
                     strprintf("%s %llu outside declared %llu", what,
                               static_cast<unsigned long long>(v),
                               static_cast<unsigned long long>(limit)));
      }
      return static_cast<std::uint32_t>(v);
    };
    if (extract_json_array(line, "claim", f)) {
      if (f.size() != 3) {
        jsonl_defect(ErrorCode::kBadRow, path, lineno,
                     strprintf("expected 3 claim fields, got %zu",
                               f.size()));
      }
      double time = 0.0;
      if (!try_parse_f64(f[2], &time)) {
        jsonl_defect(ErrorCode::kBadNumber, path, lineno,
                     "unparseable time '" + f[2] + "'");
      }
      if (!std::isfinite(time)) {
        jsonl_defect(ErrorCode::kNonFinite, path, lineno,
                     "non-finite time '" + f[2] + "'");
      }
      claims.push_back(
          {index(f[0], n, "source"), index(f[1], m, "assertion"), time});
    } else if (extract_json_array(line, "exposure", f)) {
      if (f.size() != 2) {
        jsonl_defect(ErrorCode::kBadRow, path, lineno,
                     strprintf("expected 2 exposure fields, got %zu",
                               f.size()));
      }
      exposed.emplace_back(index(f[0], n, "source"),
                           index(f[1], m, "assertion"));
    } else if (extract_json_array(line, "truth", f)) {
      std::string text;
      Label label = Label::kUnknown;
      if (f.size() != 2 || !unquote(f[1], text) ||
          !try_parse_label(text, &label)) {
        jsonl_defect(ErrorCode::kBadLabel, path, lineno,
                     "malformed truth record");
      }
      truth[index(f[0], m, "assertion")] = label;
      labeled = true;
    } else {
      jsonl_defect(ErrorCode::kBadRow, path, lineno,
                   "unrecognized record");
    }
  }

  Dataset dataset;
  dataset.name = std::move(name);
  dataset.claims = SourceClaimMatrix(static_cast<std::size_t>(n),
                                     static_cast<std::size_t>(m), claims);
  dataset.dependency = DependencyIndicators::from_cells(
      static_cast<std::size_t>(n), static_cast<std::size_t>(m), exposed);
  if (labeled) dataset.truth = std::move(truth);
  dataset.validate();
  return dataset;
}

}  // namespace ss
