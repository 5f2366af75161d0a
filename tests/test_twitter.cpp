// Tests for the Twitter substrate: text generation and tokenization,
// the event simulator's cascade structure, clustering quality, and the
// ingestion path into a fact-finding dataset.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel_golden.h"
#include "data/io.h"
#include "temp_dir.h"
#include "twitter/builder.h"
#include "twitter/clustering.h"
#include "twitter/retweet_detect.h"
#include "twitter/scenario.h"
#include "twitter/simulator.h"
#include "twitter/text.h"
#include "twitter/tweet_io.h"
#include "util/checkpoint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ss {
namespace {

TwitterScenario small_scenario() {
  TwitterScenario s = scenario_by_name("Kirkuk").scaled(0.05);
  return s;
}

// The tokens scan_tokens emits for `text`, in order.
std::vector<std::string> scanned(std::string_view text) {
  std::vector<std::string> tokens;
  std::string scratch;
  scan_tokens(text, scratch,
              [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

TEST(Text, TokenizerNormalizes) {
  auto tokens = scanned("RT @user12: Breaking! KIRKUK falls?");
  // "rt" and "@user12" are stripped; the rest lowercased, no punctuation.
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"breaking", "kirkuk", "falls"}));
}

TEST(Text, TokenizerKeepsHashtags) {
  auto tokens = scanned("#BREAKING news");
  EXPECT_EQ(tokens, (std::vector<std::string>{"#breaking", "news"}));
}

TEST(Text, CanonicalTextsAreDistinct) {
  TweetTextGenerator gen({"alpha", "beta", "gamma", "delta"}, 1);
  std::string a = gen.make_canonical(0, false);
  std::string b = gen.make_canonical(1, false);
  // Unique entity tokens keep assertions separable.
  EXPECT_NE(a.find("entity0a"), std::string::npos);
  EXPECT_NE(b.find("entity1a"), std::string::npos);
  EXPECT_EQ(a.find("entity1a"), std::string::npos);
}

TEST(Text, VariantPreservesEntities) {
  TweetTextGenerator gen({"alpha", "beta", "gamma", "delta"}, 2);
  Rng rng(3);
  std::string canonical = gen.make_canonical(5, false);
  for (int i = 0; i < 20; ++i) {
    std::string variant = gen.make_variant(canonical, rng);
    EXPECT_NE(variant.find("entity5a"), std::string::npos);
    EXPECT_NE(variant.find("entity5b"), std::string::npos);
  }
}

TEST(Text, RetweetFormat) {
  std::string rt = TweetTextGenerator::make_retweet("hello world", "bob");
  EXPECT_EQ(rt, "RT @bob: hello world");
  auto tokens = scanned(rt);
  EXPECT_EQ(tokens, (std::vector<std::string>{"hello", "world"}));
}

TEST(Simulator, ProducesTimeOrderedStream) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 7);
  ASSERT_GT(sim.tweets.size(), 10u);
  for (std::size_t t = 1; t < sim.tweets.size(); ++t) {
    EXPECT_LE(sim.tweets[t - 1].time, sim.tweets[t].time);
  }
}

TEST(Simulator, RetweetsFollowEdgesAndParents) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 8);
  std::unordered_map<std::uint32_t, const Tweet*> by_id;
  for (const Tweet& t : sim.tweets) by_id[t.id] = &t;
  std::size_t retweets = 0;
  for (const Tweet& t : sim.tweets) {
    if (!t.is_retweet()) continue;
    ++retweets;
    auto it = by_id.find(t.parent);
    ASSERT_NE(it, by_id.end());
    const Tweet* parent = it->second;
    // A retweeter follows the parent's author, inherits the assertion,
    // and tweets later.
    EXPECT_TRUE(sim.follows.has_edge(t.user, parent->user));
    EXPECT_EQ(t.hidden_assertion, parent->hidden_assertion);
    EXPECT_GT(t.time, parent->time);
  }
  EXPECT_GT(retweets, 0u);
}

TEST(Simulator, LabelsCoverAllThreeClasses) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 9);
  std::set<Label> seen;
  for (const Tweet& t : sim.tweets) seen.insert(t.hidden_label);
  EXPECT_TRUE(seen.count(Label::kTrue));
  EXPECT_TRUE(seen.count(Label::kFalse));
  EXPECT_TRUE(seen.count(Label::kOpinion));
}

TEST(Simulator, DeterministicForSeed) {
  TwitterScenario s = small_scenario();
  TwitterSimulation a = simulate_twitter(s, 10);
  TwitterSimulation b = simulate_twitter(s, 10);
  ASSERT_EQ(a.tweets.size(), b.tweets.size());
  for (std::size_t t = 0; t < a.tweets.size(); ++t) {
    EXPECT_EQ(a.tweets[t].text, b.tweets[t].text);
    EXPECT_EQ(a.tweets[t].user, b.tweets[t].user);
  }
}

TEST(IncrementalClusterer, MatchesBatchClustering) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 35);
  ClusteringResult batch = cluster_tweets(sim.tweets);
  IncrementalClusterer inc;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    EXPECT_EQ(inc.add(sim.tweets[t]), batch.cluster_of[t]) << t;
  }
  EXPECT_EQ(inc.cluster_count(), batch.cluster_count);
  EXPECT_EQ(inc.tweets_seen(), sim.tweets.size());
}

TEST(IncrementalClusterer, NearDuplicateTextsShareCluster) {
  IncrementalClusterer inc;
  Tweet a;
  a.id = 0;
  a.text = "bridge closed entity9a entity9b police confirm";
  Tweet b;
  b.id = 1;
  b.text = "bridge closed entity9a entity9b police";
  Tweet c;
  c.id = 2;
  c.text = "completely different entity4a entity4b words here";
  EXPECT_EQ(inc.add(a), inc.add(b));
  EXPECT_NE(inc.add(c), inc.add(a));
}

TEST(Clustering, GroupsVariantsOfSameAssertion) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 11);
  ClusteringResult clusters = cluster_tweets(sim.tweets);
  EXPECT_GT(clusters.cluster_count, 0u);
  EXPECT_LE(clusters.cluster_count, sim.tweets.size());
  // Near-duplicate texts (entity tokens shared) must cluster cleanly.
  EXPECT_GT(clusters.purity, 0.95);
}

TEST(Clustering, RetweetJoinsParentCluster) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 12);
  ClusteringResult clusters = cluster_tweets(sim.tweets);
  std::unordered_map<std::uint32_t, std::size_t> pos;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    pos[sim.tweets[t].id] = t;
  }
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    if (!sim.tweets[t].is_retweet()) continue;
    std::size_t parent_pos = pos.at(sim.tweets[t].parent);
    EXPECT_EQ(clusters.cluster_of[t], clusters.cluster_of[parent_pos]);
  }
}

TEST(Clustering, ClusterLabelsMatchHiddenLabels) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 13);
  ClusteringResult clusters = cluster_tweets(sim.tweets);
  // For every tweet whose cluster is pure, the cluster's label equals
  // the tweet's hidden label; check a global consistency ratio instead
  // of per-cluster (a few merged clusters are tolerable).
  std::size_t agree = 0;
  std::size_t total = 0;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    ++total;
    if (clusters.cluster_labels[clusters.cluster_of[t]] ==
        sim.tweets[t].hidden_label) {
      ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.9);
}

TEST(Builder, DatasetShapeAndClaims) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 14);
  BuiltDataset built = build_dataset(sim);
  built.dataset.validate();
  DatasetSummary summary = built.dataset.summary();
  EXPECT_EQ(summary.sources, built.user_of_source.size());
  EXPECT_EQ(summary.assertions, built.clustering.cluster_count);
  EXPECT_GT(summary.total_claims, 0u);
  EXPECT_LE(summary.original_claims, summary.total_claims);
  // Claims cannot exceed tweets (dedup only shrinks).
  EXPECT_LE(summary.total_claims, sim.tweets.size());
}

TEST(Builder, RetweetClaimsAreDependent) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 15);
  BuiltDataset built = build_dataset(sim);
  // Count retweet-origin claims marked dependent. A retweeter follows
  // the original author and claims later, so unless it *also* tweeted
  // the assertion first, its claim must be dependent.
  std::unordered_map<std::uint32_t, std::uint32_t> source_of_user;
  for (std::size_t s = 0; s < built.user_of_source.size(); ++s) {
    source_of_user[built.user_of_source[s]] =
        static_cast<std::uint32_t>(s);
  }
  std::unordered_map<std::uint32_t, std::size_t> pos;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    pos[sim.tweets[t].id] = t;
  }
  std::size_t dependent = 0;
  std::size_t checked = 0;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    const Tweet& tweet = sim.tweets[t];
    if (!tweet.is_retweet()) continue;
    std::uint32_t source = source_of_user.at(tweet.user);
    std::uint32_t cluster = built.clustering.cluster_of[t];
    // Only check when this retweet *is* the source's earliest claim of
    // the cluster.
    if (built.dataset.claims.claim_time(source, cluster) != tweet.time) {
      continue;
    }
    ++checked;
    dependent +=
        built.dataset.dependency.dependent(source, cluster) ? 1 : 0;
  }
  ASSERT_GT(checked, 0u);
  EXPECT_EQ(dependent, checked);
}

TEST(TweetIo, JsonlRoundtrip) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 31);
  // One more tweet holds every byte value, so every escape round-trips.
  Tweet every_byte;
  every_byte.id = 4294967294u;
  every_byte.user = 3;
  every_byte.time = 1e-300;
  for (int c = 0; c < 256; ++c) every_byte.text += static_cast<char>(c);
  sim.tweets.push_back(every_byte);
  test::TempDir dir("twitter_jsonl");
  std::string path = dir.file("tweets.jsonl");
  save_tweets(sim.tweets, path);
  auto loaded = load_tweets(path);
  ASSERT_EQ(loaded.size(), sim.tweets.size());
  for (std::size_t t = 0; t < loaded.size(); ++t) {
    EXPECT_EQ(loaded[t].id, sim.tweets[t].id);
    EXPECT_EQ(loaded[t].user, sim.tweets[t].user);
    EXPECT_EQ(loaded[t].text, sim.tweets[t].text);
    EXPECT_EQ(loaded[t].parent, sim.tweets[t].parent);
    // "%.17g" round-trips a double exactly.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[t].time),
              std::bit_cast<std::uint64_t>(sim.tweets[t].time));
    // Ground truth is deliberately not serialized.
    EXPECT_EQ(loaded[t].hidden_label, Label::kUnknown);
  }
}

TEST(TweetIo, LabelSidecars) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 32);
  test::TempDir dir("twitter_labels");
  std::string path = dir.file("tweet_labels.csv");
  save_tweet_labels(sim.tweets, path);
  auto labels = load_tweet_labels(path);
  ASSERT_EQ(labels.size(), sim.tweets.size());
  for (const Tweet& t : sim.tweets) {
    EXPECT_EQ(labels.at(t.id), t.hidden_label);
  }
}

TEST(TweetIo, LabelSidecarsRejectBadRows) {
  test::TempDir dir("twitter_bad_labels");
  std::string path = dir.file("tweet_labels.csv");
  auto load = [&](const std::string& row) {
    {
      std::ofstream out(path);
      out << "tweet,label\n7,Unknown\n" << row << "\n";
    }
    return load_tweet_labels(path);
  };
  EXPECT_EQ(load("8,Opinion").at(8), Label::kOpinion);
  EXPECT_EQ(load("8,Opinion").at(7), Label::kUnknown);
  // An id past 32 bits, a non-numeric id and an unknown label word each
  // name their row.
  for (const char* row : {"4294967297,True", "abc,True", "8,Maybe",
                          "-1,False", "8,true", "8"}) {
    SCOPED_TRACE(row);
    try {
      load(row);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("load_tweet_labels: bad row ") + row);
    }
  }
}

// Golden corrupted stream (tests/fixtures/corrupt/README.md lists the
// defect on every line).
constexpr char kCorruptTweets[] = SS_FIXTURE_DIR "/corrupt/tweets.jsonl";

TEST(TweetIo, StrictThrowsOnCorruptStreamWithTaxonomyCode) {
  EXPECT_THROW(load_tweets(kCorruptTweets), std::runtime_error);
  IngestReport report;
  Expected<std::vector<Tweet>> r =
      try_load_tweets(kCorruptTweets, IngestOptions{}, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kMissingField);  // line 3: no id
  EXPECT_NE(r.error().message.find("tweets.jsonl:3"), std::string::npos);
}

TEST(TweetIo, PermissiveSkipsAndCountsEveryDefect) {
  IngestOptions opt;
  opt.mode = IngestMode::kPermissive;
  IngestReport report;
  std::vector<Tweet> tweets = load_tweets(kCorruptTweets, opt, &report);
  ASSERT_EQ(tweets.size(), 3u);
  EXPECT_EQ(tweets[0].id, 1u);
  EXPECT_EQ(tweets[1].id, 2u);
  EXPECT_EQ(tweets[2].id, 8u);
  EXPECT_EQ(report.rows_total, 10u);
  EXPECT_EQ(report.rows_ok, 3u);
  EXPECT_EQ(report.rows_repaired, 0u);
  EXPECT_EQ(report.rows_skipped, 7u);
  EXPECT_EQ(report.count(ErrorCode::kMissingField), 3u);
  EXPECT_EQ(report.count(ErrorCode::kBadNumber), 3u);
  EXPECT_EQ(report.count(ErrorCode::kNonFinite), 1u);
}

TEST(TweetIo, RepairKeepsRecordsWithUnambiguousFixes) {
  IngestOptions opt;
  opt.mode = IngestMode::kRepair;
  IngestReport report;
  std::vector<Tweet> tweets = load_tweets(kCorruptTweets, opt, &report);
  // Identity defects (lines 3-5) stay skipped; payload defects heal.
  ASSERT_EQ(tweets.size(), 7u);
  EXPECT_EQ(report.rows_ok, 3u);
  EXPECT_EQ(report.rows_repaired, 4u);
  EXPECT_EQ(report.rows_skipped, 3u);
  EXPECT_EQ(tweets[2].id, 4u);
  EXPECT_DOUBLE_EQ(tweets[2].time, 0.0);  // nan time -> 0
  EXPECT_EQ(tweets[3].id, 5u);
  EXPECT_DOUBLE_EQ(tweets[3].time, 0.0);  // missing time -> 0
  EXPECT_EQ(tweets[4].id, 6u);
  EXPECT_EQ(tweets[4].text, "");          // missing text -> ""
  EXPECT_EQ(tweets[5].id, 7u);
  EXPECT_FALSE(tweets[5].is_retweet());   // bad parent -> original
}

TEST(TweetIo, MissingFileThrows) {
  test::TempDir dir("twitter_missing");
  EXPECT_THROW(load_tweets(dir.file("no_such_tweets.jsonl")),
               std::runtime_error);
}

TEST(RetweetDetect, ParsesRetweetForm) {
  std::string_view name;
  std::string_view body;
  EXPECT_TRUE(parse_retweet_text("RT @alice: hello world", name, body));
  EXPECT_EQ(name, "alice");
  EXPECT_EQ(body, "hello world");
  EXPECT_FALSE(parse_retweet_text("hello world", name, body));
  EXPECT_FALSE(parse_retweet_text("RT @: no name", name, body));
}

TEST(RetweetDetect, RecoversSimulatorParents) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 33);
  std::vector<Tweet> stripped = sim.tweets;
  for (Tweet& t : stripped) t.parent = Tweet::kNoParent;
  RetweetDetectionResult result = detect_retweet_parents(stripped);
  // Every simulated retweet text is exact, so detection should resolve
  // essentially all of them to the correct parent.
  std::size_t expected_retweets = 0;
  std::size_t correct = 0;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    if (!sim.tweets[t].is_retweet()) continue;
    ++expected_retweets;
    if (stripped[t].parent == sim.tweets[t].parent) ++correct;
  }
  ASSERT_GT(expected_retweets, 0u);
  EXPECT_EQ(result.retweets_seen, expected_retweets);
  // Ambiguity (two identical originals) can redirect a handful.
  EXPECT_GE(correct, expected_retweets * 9 / 10);
}

TEST(RetweetDetect, InferredNetworkEdges) {
  std::vector<Tweet> tweets;
  Tweet original;
  original.id = 0;
  original.user = 1;
  original.time = 1.0;
  original.text = "eiffel closed tonight";
  tweets.push_back(original);
  Tweet rt;
  rt.id = 1;
  rt.user = 2;
  rt.time = 2.0;
  rt.text = TweetTextGenerator::make_retweet(original.text,
                                             username_of(1));
  tweets.push_back(rt);
  detect_retweet_parents(tweets);
  ASSERT_EQ(tweets[1].parent, 0u);
  Digraph net = infer_dependency_network(tweets, 3);
  EXPECT_TRUE(net.has_edge(2, 1));
  EXPECT_EQ(net.edge_count(), 1u);
}

TEST(BuilderFromStream, ExternalIngestionMatchesShapes) {
  TwitterSimulation sim = simulate_twitter(small_scenario(), 34);
  std::vector<Tweet> raw = sim.tweets;
  for (Tweet& t : raw) t.parent = Tweet::kNoParent;
  BuiltDataset external = build_dataset_from_stream(raw);
  external.dataset.validate();
  // Sources and claims agree with the graph-based path (clusters may
  // differ slightly when orphan retweets fall back to text matching).
  BuiltDataset internal = build_dataset(sim);
  EXPECT_EQ(external.dataset.source_count(),
            internal.dataset.source_count());
  EXPECT_EQ(external.dataset.claims.claim_count(),
            internal.dataset.claims.claim_count());
  // Dependency in the external path comes from retweet behaviour only,
  // so it is a subset signal: nonzero but no larger than follow-graph
  // exposure.
  EXPECT_GT(external.dataset.dependency.exposed_cell_count(), 0u);
}

// --- References: the ingestion passes before they went flat ----------
//
// The string-keyed clusterer (with its own copy of the tokenizer), the
// concatenated-key retweet matcher and the per-cluster-map majority vote
// exactly as they were before the clusterer moved to dense token ids;
// the JSONL reader and writer as they were before they worked in place
// (std::istringstream lines, std::string fields, strtoull/strtod,
// std::ostringstream and "%.17g"), the reader with `\u00XX` decoding
// added; and build_dataset's user map as a hash map. The oracle tests
// below require the library to give the same cluster ids, counters,
// labels, purity, save_state bytes, records, reports, bytes and
// datasets on inputs built to reach their edge cases.
namespace reference {

constexpr double kJaccardThreshold = 0.5;
constexpr std::size_t kMaxCandidates = 8;
constexpr std::size_t kMaxTokenFanout = 64;

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      if (current != "rt" && current[0] != '@') {
        tokens.push_back(current);
      }
      current.clear();
    }
  };
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c) || raw == '@' || raw == '#') {
      current += static_cast<char>(std::tolower(c));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

double jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  std::size_t inter = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  std::size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) /
                              static_cast<double>(uni);
}

class Clusterer {
 public:
  std::uint32_t add(const Tweet& tweet) {
    std::uint32_t cluster;
    auto parent_pos = tweet.is_retweet()
                          ? cluster_of_id_.find(tweet.parent)
                          : cluster_of_id_.end();
    if (parent_pos != cluster_of_id_.end()) {
      cluster = parent_pos->second;
    } else {
      cluster = assign_by_text(tweet);
    }
    position_of_.emplace(tweet.id, position_of_.size());
    cluster_of_id_[tweet.id] = cluster;
    return cluster;
  }

  std::size_t cluster_count() const { return cluster_tokens_.size(); }
  std::size_t tweets_seen() const { return position_of_.size(); }

  void save_state(BinWriter& writer) const {
    writer.u64(cluster_tokens_.size());
    for (const auto& tokens : cluster_tokens_) {
      writer.u64(tokens.size());
      for (const auto& tok : tokens) writer.str(tok);
    }
    save_map(writer, cluster_of_id_);
    save_map(writer, position_of_);
  }

 private:
  template <typename Map>
  static void save_map(BinWriter& writer, const Map& map) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
    for (const auto& [k, v] : map) {
      entries.emplace_back(k, static_cast<std::uint64_t>(v));
    }
    std::sort(entries.begin(), entries.end());
    writer.u64(entries.size());
    for (const auto& [k, v] : entries) {
      writer.u64(k);
      writer.u64(v);
    }
  }

  std::uint32_t assign_by_text(const Tweet& tweet) {
    auto tokens = tokenize(tweet.text);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    std::unordered_map<std::uint32_t, std::size_t> overlap;
    for (const auto& tok : tokens) {
      auto it = index_.find(tok);
      if (it == index_.end()) continue;
      if (it->second.size() > kMaxTokenFanout) continue;
      for (std::uint32_t c : it->second) ++overlap[c];
    }
    std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
    for (const auto& [c, count] : overlap) ranked.emplace_back(count, c);
    std::sort(ranked.rbegin(), ranked.rend());
    std::uint32_t best_cluster = 0;
    double best_sim = 0.0;
    std::size_t examined = 0;
    for (const auto& [count, c] : ranked) {
      if (examined++ >= kMaxCandidates) break;
      double sim = jaccard(tokens, cluster_tokens_[c]);
      if (sim > best_sim) {
        best_sim = sim;
        best_cluster = c;
      }
    }
    if (best_sim >= kJaccardThreshold) return best_cluster;
    auto c = static_cast<std::uint32_t>(cluster_tokens_.size());
    for (const auto& tok : tokens) index_[tok].push_back(c);
    cluster_tokens_.push_back(std::move(tokens));
    return c;
  }

  std::vector<std::vector<std::string>> cluster_tokens_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> index_;
  std::unordered_map<std::uint32_t, std::uint32_t> cluster_of_id_;
  std::unordered_map<std::uint32_t, std::size_t> position_of_;
};

bool parse_retweet(const std::string& text, std::string& name,
                   std::string& body) {
  if (text.rfind("RT @", 0) != 0) return false;
  auto colon = text.find(": ", 4);
  if (colon == std::string::npos || colon == 4) return false;
  name = text.substr(4, colon - 4);
  body = text.substr(colon + 2);
  return !name.empty();
}

RetweetDetectionResult detect_retweet_parents(std::vector<Tweet>& tweets) {
  RetweetDetectionResult result;
  std::unordered_map<std::string, std::uint32_t> earliest;
  for (Tweet& t : tweets) {
    std::string name;
    std::string body;
    if (parse_retweet(t.text, name, body)) {
      ++result.retweets_seen;
      auto it = earliest.find(name + "\x1f" + body);
      if (it != earliest.end()) {
        t.parent = it->second;
        ++result.parents_resolved;
      } else {
        t.parent = Tweet::kNoParent;
      }
    } else {
      t.parent = Tweet::kNoParent;
    }
    earliest.emplace("user" + std::to_string(t.user) + "\x1f" + t.text,
                     t.id);
  }
  return result;
}

struct Votes {
  std::vector<Label> labels;
  double purity = 0.0;
};

Votes vote(const std::vector<Tweet>& tweets,
           const std::vector<std::uint32_t>& cluster_of,
           std::size_t cluster_count) {
  Votes out;
  std::vector<std::unordered_map<std::uint32_t, std::size_t>> votes(
      cluster_count);
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    ++votes[cluster_of[t]][tweets[t].hidden_assertion];
  }
  std::vector<std::uint32_t> majority(cluster_count, 0);
  out.labels.assign(cluster_count, Label::kUnknown);
  for (std::size_t c = 0; c < cluster_count; ++c) {
    std::size_t best = 0;
    for (const auto& [assertion, count] : votes[c]) {
      if (count > best) {
        best = count;
        majority[c] = assertion;
      }
    }
  }
  std::size_t agree = 0;
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    std::uint32_t c = cluster_of[t];
    if (tweets[t].hidden_assertion == majority[c]) {
      ++agree;
      out.labels[c] = tweets[t].hidden_label;
    }
  }
  out.purity = tweets.empty() ? 1.0
                              : static_cast<double>(agree) /
                                    static_cast<double>(tweets.size());
  return out;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool parse_u32(const std::string& field, std::uint32_t* out) {
  std::string s = trim(field);
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size() || v > 0xffffffffULL) {
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_f64(const std::string& field, double* out) {
  std::string s = trim(field);
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

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
        std::string hex = line.substr(i + 1, 4);
        auto is_hex = [](char h) {
          return std::isxdigit(static_cast<unsigned char>(h)) != 0;
        };
        switch (next) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case 'r': value += '\r'; break;
          case 'u':
            if (hex.size() == 4 && hex[0] == '0' && hex[1] == '0' &&
                is_hex(hex[2]) && is_hex(hex[3]) &&
                std::stoi(hex, nullptr, 16) < 0x20) {
              value += static_cast<char>(std::stoi(hex, nullptr, 16));
              i += 4;
            } else {
              value += 'u';
            }
            break;
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

Expected<std::vector<Tweet>> parse_tweets_jsonl(const std::string& text,
                                                const std::string& path,
                                                const IngestOptions& options,
                                                IngestReport* report) {
  std::istringstream in(text);
  IngestReport& rep = *report;
  std::vector<Tweet> tweets;
  std::string line;
  std::size_t line_no = 0;
  auto defect = [&](ErrorCode code, std::string detail, bool repairable) {
    rep.note(code, path, line_no, detail, options.max_recorded_errors);
    if (options.mode == IngestMode::kStrict) {
      throw TaxonomyError(
          code,
          RecordError{code, path, line_no, std::move(detail)}.to_string());
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
      if (!extract_field(line, "id", field)) {
        defect(ErrorCode::kMissingField, "missing field \"id\"", false);
        ++rep.rows_skipped;
        continue;
      }
      if (!parse_u32(field, &t.id)) {
        defect(ErrorCode::kBadNumber, "bad id: " + field, false);
        ++rep.rows_skipped;
        continue;
      }
      if (!extract_field(line, "user", field)) {
        defect(ErrorCode::kMissingField, "missing field \"user\"", false);
        ++rep.rows_skipped;
        continue;
      }
      if (!parse_u32(field, &t.user)) {
        defect(ErrorCode::kBadNumber, "bad user: " + field, false);
        ++rep.rows_skipped;
        continue;
      }
      bool repaired = false;
      if (!extract_field(line, "time", field)) {
        if (!defect(ErrorCode::kMissingField, "missing field \"time\"",
                    true)) {
          ++rep.rows_skipped;
          continue;
        }
        t.time = 0.0;
        repaired = true;
      } else if (!parse_f64(field, &t.time)) {
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
        if (!parse_u32(field, &t.parent)) {
          if (!defect(ErrorCode::kBadNumber, "bad parent: " + field, true)) {
            ++rep.rows_skipped;
            continue;
          }
          t.parent = Tweet::kNoParent;
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

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

BuiltDataset build_dataset(const TwitterSimulation& sim) {
  BuiltDataset out;
  out.clustering = cluster_tweets(sim.tweets);
  std::unordered_map<std::uint32_t, std::uint32_t> source_of_user;
  for (const Tweet& t : sim.tweets) {
    if (source_of_user.emplace(t.user, 0).second) {
      out.user_of_source.push_back(t.user);
    }
  }
  std::sort(out.user_of_source.begin(), out.user_of_source.end());
  for (std::size_t s = 0; s < out.user_of_source.size(); ++s) {
    source_of_user[out.user_of_source[s]] = static_cast<std::uint32_t>(s);
  }
  std::size_t n = out.user_of_source.size();
  std::size_t m = out.clustering.cluster_count;
  std::vector<Claim> claims;
  for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
    const Tweet& tweet = sim.tweets[t];
    claims.push_back({source_of_user.at(tweet.user),
                      out.clustering.cluster_of[t], tweet.time});
  }
  out.follows = Digraph(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t followee : sim.follows.following(out.user_of_source[s])) {
      auto it = source_of_user.find(static_cast<std::uint32_t>(followee));
      if (it != source_of_user.end()) out.follows.add_edge(s, it->second);
    }
  }
  out.dataset.name = sim.scenario.name;
  out.dataset.claims = SourceClaimMatrix(n, m, claims);
  out.dataset.dependency =
      DependencyIndicators::from_graph(out.dataset.claims, out.follows);
  out.dataset.truth = out.clustering.cluster_labels;
  return out;
}

}  // namespace reference

template <typename Clusterer>
std::string state_bytes(const Clusterer& clusterer) {
  BinWriter writer;
  clusterer.save_state(writer);
  return writer.take();
}

Tweet make_tweet(std::uint32_t id, std::uint32_t user, std::string text) {
  Tweet t;
  t.id = id;
  t.user = user;
  t.time = static_cast<double>(id);
  t.text = std::move(text);
  return t;
}

// A stream built to reach the clusterer's edge cases: a dozen-word
// vocabulary (so overlap counts tie and postings lists pass the fan-out
// cap), mixed case and punctuation, empty texts, texts of only "rt" and
// @mentions, duplicate tweet ids, retweets of seen ids and orphan
// retweets whose parent never arrives.
std::vector<Tweet> edge_case_stream(std::uint64_t seed, std::size_t count) {
  static const char* const kWords[] = {
      "Alpha", "beta", "GAMMA", "delta", "Eps", "zeta",
      "eta",   "THETA", "iota", "kappa", "#lam", "mu",
  };
  static const char* const kJoins[] = {" ", "  ", ", ", "! ",
                                       "...", " - ", "?", "\t"};
  Rng rng(seed);
  std::vector<Tweet> tweets;
  for (std::size_t k = 0; k < count; ++k) {
    auto id = static_cast<std::uint32_t>(k);
    if (k > 0 && rng.bernoulli(0.03)) {
      id = tweets[rng.uniform_u32(static_cast<std::uint32_t>(k))].id;
    }
    Tweet t = make_tweet(id, rng.uniform_u32(20), "");
    t.time = static_cast<double>(k);
    t.hidden_assertion = rng.uniform_u32(4);
    t.hidden_label = static_cast<Label>(t.hidden_assertion % 3);
    std::uint32_t kind = rng.uniform_u32(12);
    if (kind == 0) {
      // empty text
    } else if (kind == 1) {
      t.text = rng.bernoulli(0.5) ? "RT @user3: rt" : "rt @Bob RT @x";
    } else if (kind == 2 && k > 0) {
      const Tweet& parent =
          tweets[rng.uniform_u32(static_cast<std::uint32_t>(k))];
      t.parent = parent.id;
      t.text = "RT @user" + std::to_string(parent.user) + ": " + parent.text;
    } else if (kind == 3) {
      t.parent = 1'000'000 + static_cast<std::uint32_t>(k);  // never seen
      t.text = "RT @user9: beta Gamma delta";
    } else {
      std::size_t words = 1 + rng.uniform_u32(6);
      for (std::size_t w = 0; w < words; ++w) {
        if (w > 0) t.text += kJoins[rng.uniform_u32(8)];
        t.text += kWords[rng.uniform_u32(12)];
      }
      if (rng.bernoulli(0.2)) t.text += " w" + std::to_string(k);
    }
    tweets.push_back(std::move(t));
  }
  return tweets;
}

void expect_same_clustering(const std::vector<Tweet>& tweets) {
  reference::Clusterer ref;
  IncrementalClusterer inc;
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    ASSERT_EQ(inc.add(tweets[t]), ref.add(tweets[t])) << "tweet " << t;
    if (t == tweets.size() / 2) {
      ASSERT_EQ(state_bytes(inc), state_bytes(ref)) << "mid-stream";
    }
  }
  EXPECT_EQ(inc.cluster_count(), ref.cluster_count());
  EXPECT_EQ(inc.tweets_seen(), ref.tweets_seen());
  EXPECT_EQ(state_bytes(inc), state_bytes(ref));

  ClusteringResult batch = cluster_tweets(tweets);
  reference::Votes want =
      reference::vote(tweets, batch.cluster_of, batch.cluster_count);
  EXPECT_EQ(batch.cluster_count, ref.cluster_count());
  EXPECT_EQ(batch.cluster_labels, want.labels);
  EXPECT_EQ(batch.purity, want.purity);
}

TEST(ClusteringOracle, EdgeCaseStreamsMatchStringKeyedReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    expect_same_clustering(edge_case_stream(seed, 3000));
  }
}

TEST(ClusteringOracle, PostingsListsOfSixtyFourAndSixtyFive) {
  // Each "hub u<i>" tweet founds its own cluster (Jaccard 1/3 with every
  // other). A "hub" query reaches them only through the hub's postings
  // list and ties at Jaccard 1/2 with each: while the list holds 64
  // clusters it is read and the query joins the highest-ranked one; at
  // 65 it is skipped and the query founds a new cluster.
  std::vector<Tweet> tweets;
  auto add = [&](std::uint32_t user, std::string text) {
    tweets.push_back(make_tweet(static_cast<std::uint32_t>(tweets.size()),
                                user, std::move(text)));
  };
  for (std::uint32_t i = 0; i < 64; ++i) add(i, "hub u" + std::to_string(i));
  add(99, "HUB");
  add(64, "hub u64");
  add(99, "Hub!");
  add(65, "hub u65");
  add(99, "#x hub");
  ClusteringResult got = cluster_tweets(tweets);
  EXPECT_EQ(got.cluster_of[64], 63u);  // ties go to the highest id
  EXPECT_EQ(got.cluster_of[66], 65u);  // past the cap: a new cluster
  expect_same_clustering(tweets);
}

TEST(ClusteringOracle, ForcedVoteTiesMatchPerClusterMapVote) {
  // Each group shares one text, so it forms one cluster; its hidden
  // assertions force ties of two and three, a cluster whose many
  // assertions all tie, and one with a unique top among many.
  std::vector<std::vector<std::uint32_t>> groups = {
      {1, 2}, {3, 4, 4, 3}, {5, 6, 7}, {8, 8, 9}, {10}, {11, 12, 12, 11, 13},
  };
  std::vector<std::uint32_t> many_tied;
  for (std::uint32_t a = 100; a < 140; ++a) many_tied.push_back(a);
  groups.push_back(many_tied);
  std::vector<std::uint32_t> many_top = {200, 200, 200};
  for (std::uint32_t a = 201; a < 221; ++a) many_top.push_back(a);
  groups.push_back(many_top);
  Rng rng(77);
  for (std::size_t g = 0; g < 300; ++g) {
    std::vector<std::uint32_t> random_group;
    std::size_t size = 2 + rng.uniform_u32(6);
    for (std::size_t k = 0; k < size; ++k) {
      random_group.push_back(300 + rng.uniform_u32(4));
    }
    groups.push_back(random_group);
  }
  struct Pending {
    std::size_t group;
    std::uint32_t assertion;
  };
  std::vector<Pending> order;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::uint32_t a : groups[g]) order.push_back({g, a});
  }
  rng.shuffle(order);
  std::vector<Tweet> tweets;
  for (const Pending& p : order) {
    std::string g = "g" + std::to_string(p.group);
    Tweet t = make_tweet(static_cast<std::uint32_t>(tweets.size()), 1,
                         g + "x " + g + "y " + g + "z");
    t.hidden_assertion = p.assertion;
    t.hidden_label = static_cast<Label>(p.assertion % 3);
    tweets.push_back(std::move(t));
  }
  ClusteringResult got = cluster_tweets(tweets);
  ASSERT_EQ(got.cluster_count, groups.size());
  reference::Votes want =
      reference::vote(tweets, got.cluster_of, got.cluster_count);
  EXPECT_EQ(got.cluster_labels, want.labels);
  EXPECT_EQ(got.purity, want.purity);
  expect_same_clustering(tweets);
}

void expect_same_parents(const std::vector<Tweet>& tweets) {
  std::vector<Tweet> want = tweets;
  std::vector<Tweet> got = tweets;
  RetweetDetectionResult ref = reference::detect_retweet_parents(want);
  RetweetDetectionResult res = detect_retweet_parents(got);
  EXPECT_EQ(res.retweets_seen, ref.retweets_seen);
  EXPECT_EQ(res.parents_resolved, ref.parents_resolved);
  for (std::size_t t = 0; t < tweets.size(); ++t) {
    EXPECT_EQ(got[t].parent, want[t].parent) << "tweet " << t;
  }
}

TEST(RetweetOracle, CraftedNamesMatchConcatenatedKeyReference) {
  std::vector<Tweet> tweets;
  auto post = [&](std::uint32_t user, std::string text) {
    tweets.push_back(make_tweet(static_cast<std::uint32_t>(tweets.size()),
                                user, std::move(text)));
  };
  post(7, "bridge closed");
  post(0, "zero speaks");
  post(4294967295u, "max speaks");
  post(3, "breaking: bridge closed");
  post(7, "a\x1f" "b");
  post(7, "bridge closed");            // repeated content
  post(1, "RT @user7: bridge closed");  // resolves to tweet 0
  post(2, "RT @user007: bridge closed");
  post(2, "RT @user: bridge closed");
  post(2, "RT @user0: zero speaks");
  post(2, "RT @user00: zero speaks");
  post(2, "RT @user4294967295: max speaks");
  post(2, "RT @user4294967296: max speaks");
  post(2, "RT @user+7: bridge closed");
  post(2, "RT @user7 : bridge closed");
  post(2, "RT @user7\x1f" "a: b");        // the key split at 0x1F
  post(2, "RT @user7\x1f" "a: c");
  post(2, "RT @user8\x1f" "a: b");
  post(5, "RT @user3: breaking: bridge closed");
  post(6, "RT @user5: RT @user3: breaking: bridge closed");  // chained
  post(8, "RT @user6: RT @user5: RT @user3: breaking: bridge closed");
  post(2, "RT @user3:x: breaking");
  post(2, "RT @: no name");
  post(2, "RT @user3:");
  post(2, "RT @user9: posted later");   // the original comes after
  post(9, "posted later");
  post(2, "RT @user9: posted later");
  post(2, "RT @user1: RT @user7: bridge closed");
  expect_same_parents(tweets);
}

TEST(RetweetOracle, RandomStreamsMatchConcatenatedKeyReference) {
  static const char* const kNames[] = {
      "user0", "user1", "user2", "user3", "user01", "user",
      "bob",   "user1\x1f" "x", "user4294967295", "user10",
  };
  static const char* const kBodies[] = {
      "hello", "x\x1fhello", "hello: world", "", "RT @user1: hello",
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<Tweet> tweets;
    for (std::uint32_t k = 0; k < 2000; ++k) {
      std::uint32_t user = rng.bernoulli(0.05) ? 4294967295u
                                               : rng.uniform_u32(4);
      std::string text = kBodies[rng.uniform_u32(5)];
      std::size_t depth = rng.uniform_u32(3);
      for (std::size_t d = 0; d < depth; ++d) {
        text = std::string("RT @") + kNames[rng.uniform_u32(10)] + ": " +
               text;
      }
      tweets.push_back(make_tweet(k, user, text));
    }
    SCOPED_TRACE(seed);
    expect_same_parents(tweets);
  }
  // The simulator's own retweet texts, parents stripped.
  TwitterSimulation sim = simulate_twitter(small_scenario(), 36);
  for (Tweet& t : sim.tweets) t.parent = Tweet::kNoParent;
  expect_same_parents(sim.tweets);
}

TEST(RetweetOracle, EdgeCaseStreamsMatchConcatenatedKeyReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    expect_same_parents(edge_case_stream(seed, 3000));
  }
}

// --- The JSONL reader and writer against their references -------------

std::uint64_t time_bits(double time) {
  return std::bit_cast<std::uint64_t>(time);
}

// The library's reader and the reference give the same records (time as
// bits), or the same Error, and the same report.
void expect_same_parse(const std::string& text, const IngestOptions& options) {
  IngestReport want_report;
  IngestReport got_report;
  Expected<std::vector<Tweet>> want =
      reference::parse_tweets_jsonl(text, "stream", options, &want_report);
  Expected<std::vector<Tweet>> got =
      parse_tweets_jsonl(text, "stream", options, &got_report);
  ASSERT_EQ(got.ok(), want.ok());
  if (want.ok()) {
    const std::vector<Tweet>& a = got.value();
    const std::vector<Tweet>& b = want.value();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t].id, b[t].id) << "record " << t;
      EXPECT_EQ(a[t].user, b[t].user) << "record " << t;
      EXPECT_EQ(time_bits(a[t].time), time_bits(b[t].time)) << "record " << t;
      EXPECT_EQ(a[t].text, b[t].text) << "record " << t;
      EXPECT_EQ(a[t].parent, b[t].parent) << "record " << t;
    }
  } else {
    EXPECT_EQ(got.error().code, want.error().code);
    EXPECT_EQ(got.error().message, want.error().message);
  }
  EXPECT_EQ(got_report.rows_total, want_report.rows_total);
  EXPECT_EQ(got_report.rows_ok, want_report.rows_ok);
  EXPECT_EQ(got_report.rows_repaired, want_report.rows_repaired);
  EXPECT_EQ(got_report.rows_skipped, want_report.rows_skipped);
  EXPECT_EQ(got_report.code_counts, want_report.code_counts);
  ASSERT_EQ(got_report.errors.size(), want_report.errors.size());
  for (std::size_t e = 0; e < got_report.errors.size(); ++e) {
    EXPECT_EQ(got_report.errors[e].to_string(),
              want_report.errors[e].to_string());
  }
}

TEST(JsonlOracle, ByteFlipsParseLikeTheReference) {
  // Retweets, every escape the writer emits, a `\u00XX` above 0x1F and a
  // cut one, times with exponents, a quoted time, padded numbers, a
  // blank line, and no newline after the last record.
  Tweet escapes = make_tweet(1, 2, "say \"hi\" \\ back\nslash\t\r\x01\x1f!");
  escapes.time = 2.5e-7;  // written as 2.4999999999999999e-07
  Tweet retweet = make_tweet(2, 3, "RT @user2: say \"hi\"");
  retweet.time = -1e300;
  retweet.parent = 1;
  std::string text = tweets_to_jsonl({escapes, retweet});
  text += "   \n";
  text += "{\"id\": 3 ,\"user\":4,\"time\":1E21,"
          "\"text\":\"a\\u0041b\\u00\",\"parent\":x}\n";
  text += "{\"id\":4,\"user\":2,\"time\":\" 7 \",\"text\":\"x\\u001F\"}\n";
  text += "{\"id\":5,\"user\":5,\"time\":0.1,\"text\":\"last\"}";
  for (IngestMode mode : {IngestMode::kStrict, IngestMode::kPermissive,
                          IngestMode::kRepair}) {
    IngestOptions options;
    options.mode = mode;
    options.max_recorded_errors = 4;
    SCOPED_TRACE(static_cast<int>(mode));
    expect_same_parse(text, options);
    for (std::size_t at = 0; at < text.size(); ++at) {
      std::string flipped = text;
      flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
      SCOPED_TRACE(at);
      expect_same_parse(flipped, options);
    }
  }
}

TEST(JsonlOracle, WriterMatchesTheReferenceByteForByte) {
  const double times[] = {0.0,
                          -0.0,
                          1e-300,
                          std::numeric_limits<double>::denorm_min(),
                          DBL_MIN / 3,
                          1e21,
                          0.1,
                          DBL_MAX,
                          -DBL_MAX,
                          1.0 / 3,
                          123456789012345678.0,
                          1e16,
                          1e17,
                          1e-4,
                          1e-5,
                          -2.5,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN()};
  std::vector<Tweet> tweets;
  std::string every_byte;
  for (int c = 0; c < 256; ++c) {
    every_byte += static_cast<char>(c);
    Tweet t = make_tweet(static_cast<std::uint32_t>(c), 7, "x");
    t.text[0] = static_cast<char>(c);
    t.time = times[static_cast<std::size_t>(c) % std::size(times)];
    if (c % 3 == 0) t.parent = static_cast<std::uint32_t>(c / 3);
    tweets.push_back(t);
  }
  tweets.push_back(make_tweet(4294967295u, 4294967295u, every_byte));
  tweets.back().parent = 4294967294u;
  tweets.push_back(make_tweet(0, 0, ""));
  EXPECT_EQ(tweets_to_jsonl(tweets), reference::tweets_to_jsonl(tweets));
  EXPECT_EQ(tweets_to_jsonl({}), "");
}

TEST(Text, TokenByteTableIsTheCLocaleRule) {
  for (int c = 0; c < 256; ++c) {
    char want = 0;
    if (std::isalnum(c)) want = static_cast<char>(std::tolower(c));
    if (c == '@' || c == '#') want = static_cast<char>(c);
    EXPECT_EQ(kTokenBytes[static_cast<std::size_t>(c)], want) << c;
  }
}

TEST(ClusteringOracle, DictionaryKeepsFirstSeenIdsAcrossGrowths) {
  TokenDictionary dictionary;
  std::unordered_map<std::string, std::uint32_t> want;
  std::size_t capacity = dictionary.capacity();
  std::size_t growths = 0;
  Rng rng(5);
  for (std::size_t k = 0; k < 20000; ++k) {
    std::string token = "t";
    token += std::to_string(rng.uniform_u32(6000));
    if (rng.bernoulli(0.1)) token += std::string(rng.uniform_u32(20), 'z');
    auto expected = static_cast<std::uint32_t>(want.size());
    expected = want.emplace(token, expected).first->second;
    ASSERT_EQ(dictionary.intern(token), expected) << token;
    growths += dictionary.capacity() != capacity;
    capacity = dictionary.capacity();
  }
  EXPECT_GE(growths, 3u);
  ASSERT_EQ(dictionary.size(), want.size());
  for (const auto& [token, id] : want) EXPECT_EQ(dictionary.token(id), token);
  TokenDictionary copy = dictionary;
  EXPECT_EQ(copy.intern("t17"), dictionary.intern("t17"));
  EXPECT_EQ(copy.intern("fresh"), dictionary.size());
  // Values are 32-bit, so a table for more keys is refused up front.
  EXPECT_THROW(FlatIndex(std::size_t{FlatIndex::kMissing}),
               std::length_error);
}

TEST(ClusteringOracle, ManyDistinctTokensMatchStringKeyedReference) {
  // Thousands of distinct tokens grow the dictionary's table many times
  // (it doubles past every power of two from 16); every tweet also
  // shares a topic word, so overlap counts keep tying.
  std::vector<Tweet> tweets;
  Rng rng(11);
  std::set<std::string> distinct;
  for (std::uint32_t k = 0; k < 4000; ++k) {
    std::string text = "Topic";
    for (std::size_t w = 0; w < 3; ++w) {
      text += " e";
      text += std::to_string(rng.uniform_u32(3000));
    }
    for (const std::string& token : reference::tokenize(text)) {
      distinct.insert(token);
    }
    tweets.push_back(make_tweet(k, rng.uniform_u32(50), text));
  }
  ASSERT_GT(distinct.size(), 16u << 3);
  expect_same_clustering(tweets);
}

// build_dataset and its reference write the same dataset bytes and map
// the same users and follow edges.
void expect_same_dataset(const TwitterSimulation& sim) {
  BuiltDataset got = build_dataset(sim);
  BuiltDataset want = reference::build_dataset(sim);
  EXPECT_EQ(got.user_of_source, want.user_of_source);
  ASSERT_EQ(got.follows.node_count(), want.follows.node_count());
  EXPECT_EQ(got.follows.edge_count(), want.follows.edge_count());
  for (std::size_t u = 0; u < got.follows.node_count(); ++u) {
    EXPECT_EQ(got.follows.following(u), want.follows.following(u)) << u;
  }
  test::TempDir dir("twitter_builder_oracle");
  save_dataset_jsonl(got.dataset, dir.file("got.jsonl"));
  save_dataset_jsonl(want.dataset, dir.file("want.jsonl"));
  std::ifstream a(dir.file("got.jsonl"));
  std::ifstream b(dir.file("want.jsonl"));
  std::stringstream got_bytes;
  std::stringstream want_bytes;
  got_bytes << a.rdbuf();
  want_bytes << b.rdbuf();
  EXPECT_EQ(got_bytes.str(), want_bytes.str());
}

TEST(BuilderOracle, EdgeCaseStreamsMatchHashMapReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    TwitterSimulation sim;
    sim.scenario.name = "edge";
    // Users 0-19 tweet; 20-24 exist only in the graph.
    sim.follows = Digraph(25);
    Rng rng(seed + 100);
    for (std::size_t e = 0; e < 120; ++e) {
      sim.follows.add_edge(rng.uniform_u32(25), rng.uniform_u32(25));
    }
    sim.tweets = edge_case_stream(seed, 3000);
    expect_same_dataset(sim);
    sim.tweets.resize(1);
    expect_same_dataset(sim);
  }
  TwitterSimulation sim = simulate_twitter(small_scenario(), 37);
  expect_same_dataset(sim);
}

TEST(BuilderOracle, UserOutsideTheFollowerGraphThrows) {
  TwitterSimulation sim;
  sim.follows = Digraph(3);
  sim.tweets = {make_tweet(0, 2, "in the graph"),
                make_tweet(1, 3, "outside it")};
  EXPECT_THROW(build_dataset(sim), std::invalid_argument);
  sim.tweets.pop_back();
  EXPECT_EQ(build_dataset(sim).user_of_source,
            std::vector<std::uint32_t>{2});
}

// --- Goldens recorded before the clusterer interned its tokens --------

struct ClusterDigests {
  std::uint64_t ids;
  std::uint64_t state;
  std::uint64_t votes;
};

ClusterDigests digest_scenario(std::size_t i) {
  TwitterSimulation sim =
      simulate_twitter(paper_scenarios()[i], 7 + i);
  ClusterDigests out{};
  IncrementalClusterer inc;
  golden::Hash ids;
  ids.u64(sim.tweets.size());
  for (const Tweet& t : sim.tweets) ids.u64(inc.add(t));
  ids.u64(inc.cluster_count());
  out.ids = ids.value();
  std::string bytes = state_bytes(inc);
  golden::Hash state;
  state.bytes(bytes.data(), bytes.size());
  out.state = state.value();
  ClusteringResult batch = cluster_tweets(sim.tweets);
  golden::Hash votes;
  for (Label label : batch.cluster_labels) {
    votes.u64(static_cast<std::uint64_t>(label));
  }
  votes.f64(batch.purity);
  out.votes = votes.value();
  return out;
}

TEST(ClusteringGolden, PaperScenariosKeepIdsStateBytesAndVotes) {
  // The five Table III scenarios at x1, seeds 7-11: {cluster ids,
  // save_state bytes, cluster_tweets labels and purity}.
  constexpr ClusterDigests kGolden[5] = {
      {0x4840ba6587e5d810ull, 0xb415857f953d5f0eull, 0xa0e555bfeb9ff3cfull},
      {0x71392eddffc5a2afull, 0x6c866231c6b47e78ull, 0xbaad1f16eb50d129ull},
      {0xf82e7714c2e9ae69ull, 0x02a7582d62b9f8feull, 0x5da63f6b1f2cda57ull},
      {0x21842459ac01058cull, 0x64c395469f23ae24ull, 0xeb18e559c65e4f65ull},
      {0x3dd949a21bcb5ed6ull, 0x700910a4a2a30848ull, 0x028d7585cc8cebbdull},
  };
  for (std::size_t i = 0; i < 5; ++i) {
    ClusterDigests got = digest_scenario(i);
    EXPECT_EQ(got.ids, kGolden[i].ids) << paper_scenarios()[i].name;
    EXPECT_EQ(got.state, kGolden[i].state) << paper_scenarios()[i].name;
    EXPECT_EQ(got.votes, kGolden[i].votes) << paper_scenarios()[i].name;
  }
}

TEST(ClusteringGolden, StateRoundTripAndMidStreamResumeAreExact) {
  TwitterSimulation sim = simulate_twitter(paper_scenarios()[1], 8);
  IncrementalClusterer whole;
  std::vector<std::uint32_t> ids;
  for (const Tweet& t : sim.tweets) ids.push_back(whole.add(t));
  std::string bytes = state_bytes(whole);

  IncrementalClusterer copy;
  BinReader reader(bytes);
  copy.load_state(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(state_bytes(copy), bytes);

  std::size_t half = sim.tweets.size() / 2;
  IncrementalClusterer first;
  for (std::size_t t = 0; t < half; ++t) first.add(sim.tweets[t]);
  std::string mid = state_bytes(first);
  IncrementalClusterer resumed;
  BinReader mid_reader(mid);
  resumed.load_state(mid_reader);
  EXPECT_EQ(state_bytes(resumed), mid);
  for (std::size_t t = half; t < sim.tweets.size(); ++t) {
    ASSERT_EQ(resumed.add(sim.tweets[t]), ids[t]) << "tweet " << t;
  }
  EXPECT_EQ(resumed.cluster_count(), whole.cluster_count());
  EXPECT_EQ(resumed.tweets_seen(), whole.tweets_seen());
  EXPECT_EQ(state_bytes(resumed), bytes);
}

TEST(ClusteringState, LoadRejectsWhatSaveCannotWrite) {
  using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  auto state = [](const std::vector<std::string>& tokens,
                  const Entries& clusters, const Entries& positions) {
    BinWriter w;
    w.u64(1);
    w.u64(tokens.size());
    for (const std::string& token : tokens) w.str(token);
    for (const Entries* map : {&clusters, &positions}) {
      w.u64(map->size());
      for (const auto& [k, v] : *map) {
        w.u64(k);
        w.u64(v);
      }
    }
    return w.take();
  };
  auto loads = [](const std::string& bytes) {
    IncrementalClusterer clusterer;
    BinReader reader(bytes);
    clusterer.load_state(reader);
    return state_bytes(clusterer) == bytes;
  };
  EXPECT_TRUE(loads(state({"a", "b"}, {{5, 0}, {9, 0}}, {{5, 1}, {9, 0}})));
  EXPECT_THROW(loads(state({"b", "a"}, {{5, 0}}, {{5, 0}})),
               std::runtime_error);
  EXPECT_THROW(loads(state({"a", "a"}, {{5, 0}}, {{5, 0}})),
               std::runtime_error);
  EXPECT_THROW(loads(state({"a"}, {{5, 1}}, {{5, 0}})), std::runtime_error);
  EXPECT_THROW(loads(state({"a"}, {{5, 0}, {5, 0}}, {{5, 0}, {5, 1}})),
               std::runtime_error);
  EXPECT_THROW(loads(state({"a"}, {{5, 0}}, {{6, 0}})), std::runtime_error);
  EXPECT_THROW(loads(state({"a"}, {{5, 0}}, {})), std::runtime_error);
  EXPECT_THROW(loads(state({"a"}, {{5, 0}}, {{5, 1ull << 32}})),
               std::runtime_error);
  EXPECT_THROW(loads(state({"a"}, {{1ull << 32, 0}}, {{1ull << 32, 0}})),
               std::runtime_error);
}

TEST(Scenario, FivePresetsMatchPaperOrder) {
  auto scenarios = paper_scenarios();
  ASSERT_EQ(scenarios.size(), 5u);
  EXPECT_EQ(scenarios[0].name, "Ukraine");
  EXPECT_EQ(scenarios[1].name, "Kirkuk");
  EXPECT_EQ(scenarios[2].name, "Superbug");
  EXPECT_EQ(scenarios[3].name, "LA Marathon");
  EXPECT_EQ(scenarios[4].name, "Paris Attack");
  EXPECT_THROW(scenario_by_name("MarsLanding"), std::invalid_argument);
}

TEST(Scenario, ScalingAdjustsCountsButNotRates) {
  TwitterScenario s = scenario_by_name("Ukraine");
  TwitterScenario half = s.scaled(0.5);
  EXPECT_NEAR(half.users, s.users / 2, 1);
  EXPECT_NEAR(half.seed_tweets, s.seed_tweets / 2, 1);
  EXPECT_DOUBLE_EQ(half.retweet_rate, s.retweet_rate);
  EXPECT_EQ(half.graph.nodes, half.users);
}

}  // namespace
}  // namespace ss
