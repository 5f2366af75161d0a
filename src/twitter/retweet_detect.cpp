#include "twitter/retweet_detect.h"

#include <charconv>
#include <stdexcept>

#include "twitter/flat_index.h"
#include "util/string_util.h"

namespace ss {

bool parse_retweet_text(std::string_view text, std::string_view& name,
                        std::string_view& body) {
  if (!starts_with(text, "RT @")) return false;
  auto colon = text.find(": ", 4);
  if (colon == std::string_view::npos || colon == 4) return false;
  name = text.substr(4, colon - 4);
  body = text.substr(colon + 2);
  return true;
}

std::string username_of(std::uint32_t user) {
  return strprintf("user%u", user);
}

std::optional<std::uint32_t> parse_username(std::string_view name) {
  constexpr std::string_view kPrefix = "user";
  if (!starts_with(name, kPrefix)) return std::nullopt;
  std::string_view digits = name.substr(kPrefix.size());
  if (digits.empty() || (digits[0] == '0' && digits.size() > 1)) {
    return std::nullopt;
  }
  std::uint32_t user = 0;
  const char* end = digits.data() + digits.size();
  auto [stop, error] = std::from_chars(digits.data(), end, user);
  if (error != std::errc() || stop != end) return std::nullopt;
  return user;
}

RetweetDetectionResult detect_retweet_parents(
    std::vector<Tweet>& tweets) {
  RetweetDetectionResult result;
  // (author, exact text) -> position of the earliest tweet with that
  // content. Keys are registered as tweets arrive, so only earlier
  // tweets are candidates — timestamps enforce causality for free.
  FlatIndex earliest(tweets.size());
  auto hash = [](std::uint32_t user, std::string_view text) {
    return text_hash(text) ^ id_hash(user);
  };
  auto same = [&tweets](std::uint32_t user, std::string_view text) {
    return [&tweets, user, text](std::uint32_t at) {
      return tweets[at].user == user && tweets[at].text == text;
    };
  };
  std::string joined;  // the 0x1F slow path's text
  for (std::size_t position = 0; position < tweets.size(); ++position) {
    Tweet& t = tweets[position];
    t.parent = Tweet::kNoParent;
    std::string_view name;
    std::string_view body;
    if (parse_retweet_text(t.text, name, body)) {
      ++result.retweets_seen;
      // The earliest tweet "RT @name: body" repeats (see the header).
      std::size_t split = name.find('\x1f');
      std::optional<std::uint32_t> user =
          parse_username(name.substr(0, split));
      if (user && split != std::string_view::npos) {
        joined.assign(name.substr(split + 1));
        joined += '\x1f';
        joined.append(body);
        body = joined;
      }
      std::uint32_t original =
          user ? earliest.find(hash(*user, body), same(*user, body))
               : FlatIndex::kMissing;
      if (original != FlatIndex::kMissing) {
        t.parent = tweets[original].id;
        ++result.parents_resolved;
      }
    }
    // Register this tweet's own content (retweets too: a retweet can be
    // re-retweeted with the RT prefix chained by this tweet's author).
    earliest.find_or_insert(hash(t.user, t.text),
                            static_cast<std::uint32_t>(position),
                            same(t.user, t.text));
  }
  return result;
}

Digraph infer_dependency_network(const std::vector<Tweet>& tweets,
                                 std::size_t user_count) {
  // Tweet id -> position of its first tweet, whose user is the author.
  FlatIndex first(tweets.size());
  for (std::size_t position = 0; position < tweets.size(); ++position) {
    const Tweet& t = tweets[position];
    if (t.user >= user_count) {
      throw std::invalid_argument(
          "infer_dependency_network: user id out of range");
    }
    first.find_or_insert(
        id_hash(t.id), static_cast<std::uint32_t>(position),
        [&](std::uint32_t at) { return tweets[at].id == t.id; });
  }
  Digraph follows(user_count);
  for (const Tweet& t : tweets) {
    if (!t.is_retweet()) continue;
    std::uint32_t parent = first.find(
        id_hash(t.parent),
        [&](std::uint32_t at) { return tweets[at].id == t.parent; });
    if (parent == FlatIndex::kMissing) continue;
    follows.add_edge(t.user, tweets[parent].user);
  }
  return follows;
}

}  // namespace ss
