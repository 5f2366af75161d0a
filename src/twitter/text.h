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

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace ss {

// The token byte of each input byte: ASCII letters lowercased, ASCII
// digits, '@' and '#' as themselves, and 0 for every separator. These
// are the "C" locale's isalnum/tolower, whatever the process locale.
inline constexpr std::array<char, 256> kTokenBytes = [] {
  std::array<char, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) {
    table[c] = static_cast<char>(c);
    table[c - 'a' + 'A'] = static_cast<char>(c);
  }
  table['@'] = '@';
  table['#'] = '#';
  return table;
}();

// The one token rule of the pipeline. A token is a maximal run of
// token bytes (kTokenBytes), lowercased; the "rt" marker and @mentions
// are dropped. Calls `emit(std::string_view)` once per token, in text
// order. `scratch` holds the token being built, so a caller scanning
// many texts reuses one buffer; each view is valid only during its
// `emit` call.
template <typename Emit>
void scan_tokens(std::string_view text, std::string& scratch, Emit&& emit) {
  std::size_t i = 0;
  while (i < text.size()) {
    scratch.clear();
    for (; i < text.size(); ++i) {
      char mapped = kTokenBytes[static_cast<unsigned char>(text[i])];
      if (mapped == 0) break;
      scratch += mapped;
    }
    ++i;  // past the separator
    if (!scratch.empty() && scratch != "rt" && scratch[0] != '@') {
      emit(std::string_view(scratch));
    }
  }
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
