// Raw tweet-stream persistence (JSONL).
//
// One JSON object per line: {"id":..,"user":..,"time":..,"text":"..",
// "parent":..}. `parent` is omitted for originals, and the time is
// written as "%.17g", so it reads back bit for bit.
//
// The escape contract, both directions. The writer escapes the text
// with json_escape (util/string_util.h): `\"`, `\\`, `\n`, `\r`, `\t`,
// `\u00xx` for every other byte below 0x20, and every other byte as
// itself. The reader inverts exactly that: `\n`, `\t` and `\r` are their
// control bytes, `\u00XX` (two hex digits, value below 0x20) is that
// byte, and a backslash before any other byte stands for that byte
// (`\u0041` reads as "u0041"). So every text of any bytes round-trips.
// A field is the value after the first `"key":` in the line: a quoted
// string up to its closing quote, or a bare value up to the next ',' or
// '}', trimmed.
//
// Ground-truth fields are intentionally NOT serialized — a stored stream
// looks exactly like crawled data, so the ingestion pipeline
// (clustering, retweet detection, dependency extraction) can be
// exercised on files the same way Apollo consumed crawler output. A
// sidecar labels file carries the hidden assertion labels for grading
// when the stream came from the simulator.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "twitter/simulator.h"
#include "util/status.h"

namespace ss {

// Writes tweets as JSONL. Throws std::runtime_error on IO failure.
void save_tweets(const std::vector<Tweet>& tweets,
                 const std::string& path);

// In-memory forms of the same format. The deterministic simulation
// (src/sim/stream.*) serializes each batch, corrupts the bytes "on the
// wire", and re-parses through the ordinary repair path — no filesystem
// involved. `origin` stands in for the path in defect locations.
std::string tweets_to_jsonl(const std::vector<Tweet>& tweets);
Expected<std::vector<Tweet>> parse_tweets_jsonl(
    const std::string& text, const std::string& origin,
    const IngestOptions& options = {}, IngestReport* report = nullptr);

// Reads a JSONL tweet stream written by save_tweets (hidden fields come
// back as kUnknown / 0). Throws std::runtime_error on parse errors
// (strict mode).
std::vector<Tweet> load_tweets(const std::string& path);

// Mode-aware load (util/status.h). Crawled streams carry truncated and
// mangled lines; kPermissive skips and counts them per line, kRepair
// additionally keeps records whose only defect has an unambiguous fix:
// non-finite or unparseable time -> 0.0, missing text -> "", bad
// "parent" value -> original (no parent). Records without a usable id
// or user are always skipped — identity cannot be invented.
std::vector<Tweet> load_tweets(const std::string& path,
                               const IngestOptions& options,
                               IngestReport* report = nullptr);

// Non-throwing variant: IO-level and strict-mode failures come back as
// a classified Error instead of an exception.
[[nodiscard]] Expected<std::vector<Tweet>> try_load_tweets(
    const std::string& path, const IngestOptions& options = {},
    IngestReport* report = nullptr);

// Per-tweet grading labels ("tweet_id,label" CSV) — the shape human
// grading takes in the paper's protocol. Keyed by tweet id so the file
// survives any reordering of the stream. A row whose id is not a u32
// or whose label is not one of label_name's four spellings throws
// std::runtime_error("load_tweet_labels: bad row <row>").
void save_tweet_labels(const std::vector<Tweet>& tweets,
                       const std::string& path);
std::unordered_map<std::uint32_t, Label> load_tweet_labels(
    const std::string& path);

}  // namespace ss
