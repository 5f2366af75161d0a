#include "twitter/retweet_detect.h"

#include <charconv>
#include <functional>
#include <stdexcept>
#include <unordered_map>

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

namespace {

// A tweet's content key: its author and its exact text.
struct AuthoredText {
  std::uint32_t user;
  std::string_view text;
  bool operator==(const AuthoredText&) const = default;
};

struct AuthoredTextHash {
  std::size_t operator()(const AuthoredText& key) const {
    return std::hash<std::string_view>{}(key.text) ^
           (std::size_t{key.user} * 0x9e3779b97f4a7c15ull);
  }
};

using EarliestMap =
    std::unordered_map<AuthoredText, std::uint32_t, AuthoredTextHash>;

// The earliest tweet that "RT @name: body" repeats (see the header).
EarliestMap::const_iterator find_original(const EarliestMap& earliest,
                                          std::string_view name,
                                          std::string_view body) {
  std::size_t split = name.find('\x1f');
  std::optional<std::uint32_t> user = parse_username(name.substr(0, split));
  if (!user) return earliest.end();
  if (split == std::string_view::npos) return earliest.find({*user, body});
  std::string text(name.substr(split + 1));
  text += '\x1f';
  text.append(body);
  return earliest.find({*user, text});
}

}  // namespace

RetweetDetectionResult detect_retweet_parents(
    std::vector<Tweet>& tweets) {
  RetweetDetectionResult result;
  // (author, exact text) -> id of the earliest tweet with that content.
  // Keys are registered as tweets arrive, so only earlier tweets are
  // candidates — timestamps enforce causality for free.
  EarliestMap earliest;
  earliest.reserve(tweets.size());
  for (Tweet& t : tweets) {
    t.parent = Tweet::kNoParent;
    std::string_view name;
    std::string_view body;
    if (parse_retweet_text(t.text, name, body)) {
      ++result.retweets_seen;
      auto it = find_original(earliest, name, body);
      if (it != earliest.end()) {
        t.parent = it->second;
        ++result.parents_resolved;
      }
    }
    // Register this tweet's own content (retweets too: a retweet can be
    // re-retweeted with the RT prefix chained by this tweet's author).
    earliest.try_emplace(AuthoredText{t.user, t.text}, t.id);
  }
  return result;
}

Digraph infer_dependency_network(const std::vector<Tweet>& tweets,
                                 std::size_t user_count) {
  std::unordered_map<std::uint32_t, std::uint32_t> author_of;
  for (const Tweet& t : tweets) {
    if (t.user >= user_count) {
      throw std::invalid_argument(
          "infer_dependency_network: user id out of range");
    }
    author_of.emplace(t.id, t.user);
  }
  Digraph follows(user_count);
  for (const Tweet& t : tweets) {
    if (!t.is_retweet()) continue;
    auto it = author_of.find(t.parent);
    if (it == author_of.end()) continue;
    follows.add_edge(t.user, it->second);
  }
  return follows;
}

}  // namespace ss
