// Synthetic tweet text.
//
// The empirical pipeline must demonstrate the full ingestion path the
// paper's Apollo tool implements: free-text tweets arrive, near-duplicate
// texts are clustered into assertions, and the clusters become the
// columns of the source-claim matrix. To exercise that path without the
// (unavailable) 2015 crawls, each hidden assertion gets a canonical
// token sequence built from event-specific vocabulary plus two unique
// entity tokens; individual tweets emit noisy variants (dropped/extra
// filler tokens) and retweets copy their parent verbatim with an
// "RT @user:" prefix — the signal the dependency extractor keys on.
#pragma once

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace ss {

// The one token rule of the pipeline. A token is a maximal run of
// alphanumeric, '@' and '#' bytes, lowercased; the "rt" marker and
// @mentions are dropped. Calls `emit(std::string_view)` once per token,
// in text order. `scratch` holds the token being built, so a caller
// scanning many texts reuses one buffer; each view is valid only during
// its `emit` call.
template <typename Emit>
void scan_tokens(std::string_view text, std::string& scratch, Emit&& emit) {
  scratch.clear();
  auto flush = [&] {
    if (scratch.empty()) return;
    if (scratch != "rt" && scratch[0] != '@') {
      emit(std::string_view(scratch));
    }
    scratch.clear();
  };
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c) || raw == '@' || raw == '#') {
      scratch += static_cast<char>(std::tolower(c));
    } else {
      flush();
    }
  }
  flush();
}

class TweetTextGenerator {
 public:
  // `topic_words`: event-specific vocabulary (e.g. {"kirkuk","isis",...}).
  TweetTextGenerator(std::vector<std::string> topic_words,
                     std::uint64_t seed);

  // Canonical text for a new hidden assertion; successive calls create
  // distinct assertions (unique entity tokens keep clusters separable).
  std::string make_canonical(std::size_t assertion_id, bool opinion);

  // A noisy restatement of a canonical text: drops up to one content
  // token and appends 0-2 filler tokens.
  std::string make_variant(const std::string& canonical, Rng& rng) const;

  // The verbatim retweet form.
  static std::string make_retweet(const std::string& original,
                                  const std::string& username);

 private:
  std::vector<std::string> topic_words_;
  Rng rng_;
};

}  // namespace ss
