#include "twitter/text.h"

#include <algorithm>

#include "util/string_util.h"

namespace ss {
namespace {

const char* const kFillerWords[] = {
    "breaking", "just",  "now",   "report", "update", "confirmed",
    "witness",  "photo", "video", "live",   "alert",  "developing",
};
constexpr std::size_t kFillerCount =
    sizeof(kFillerWords) / sizeof(kFillerWords[0]);

const char* const kOpinionWords[] = {
    "think", "believe", "hope", "pray", "feel", "should", "must",
};
constexpr std::size_t kOpinionCount =
    sizeof(kOpinionWords) / sizeof(kOpinionWords[0]);

}  // namespace

TweetTextGenerator::TweetTextGenerator(std::vector<std::string> topic_words,
                                       std::uint64_t seed)
    : topic_words_(std::move(topic_words)), rng_(seed, /*stream=*/0x7e7) {}

std::string TweetTextGenerator::make_canonical(std::size_t assertion_id,
                                               bool opinion) {
  // 4-6 topic words + 2 unique entity tokens guarantee every canonical
  // text shares < 50% of its tokens with any other assertion's text.
  std::vector<std::string> words;
  std::size_t topic_count = 4 + rng_.uniform_u32(3);
  for (std::size_t k = 0; k < topic_count; ++k) {
    words.push_back(topic_words_[rng_.uniform_u32(
        static_cast<std::uint32_t>(topic_words_.size()))]);
  }
  if (opinion) {
    words.push_back(kOpinionWords[rng_.uniform_u32(kOpinionCount)]);
  }
  words.push_back(strprintf("entity%zua", assertion_id));
  words.push_back(strprintf("entity%zub", assertion_id));
  rng_.shuffle(words);
  return join(words, " ");
}

std::string TweetTextGenerator::make_variant(const std::string& canonical,
                                             Rng& rng) const {
  std::vector<std::string> tokens = split(canonical, ' ');
  // Drop one non-entity token half the time.
  if (tokens.size() > 4 && rng.bernoulli(0.5)) {
    std::size_t idx = rng.uniform_u32(
        static_cast<std::uint32_t>(tokens.size()));
    if (!starts_with(tokens[idx], "entity")) {
      tokens.erase(tokens.begin() + static_cast<long>(idx));
    }
  }
  std::size_t extra = rng.uniform_u32(3);
  for (std::size_t k = 0; k < extra; ++k) {
    tokens.push_back(kFillerWords[rng.uniform_u32(kFillerCount)]);
  }
  return join(tokens, " ");
}

std::string TweetTextGenerator::make_retweet(const std::string& original,
                                             const std::string& username) {
  return "RT @" + username + ": " + original;
}

}  // namespace ss
