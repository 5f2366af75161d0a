// Retweet detection and dependency-network inference from raw text.
//
// External tweet streams carry no parent pointers and no follower graph.
// The paper's empirical pipeline derives both from behaviour: a tweet of
// the form "RT @name: body" repeats an earlier tweet by `name` with the
// same body, and a source that retweets another is taken to depend on it
// ("a link indicated that a source tends to repeat claims of another",
// Section I). These helpers reconstruct exactly that: parent resolution
// by (author, body) matching with timestamps, and a follows-graph whose
// edge u -> v means "u retweeted v at least once".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/digraph.h"
#include "twitter/simulator.h"

namespace ss {

// Splits "RT @name: body" into (name, body), views into `text`: `name`
// runs up to the first ": " after the prefix and is never empty.
// Returns false when the text is not a retweet form.
bool parse_retweet_text(std::string_view text, std::string_view& name,
                        std::string_view& body);

// The username convention of the simulator's retweet texts: "user"
// followed by the decimal user id.
std::string username_of(std::uint32_t user);
// Its inverse: the user id whose username_of is `name` — "user" and the
// canonical decimal of a u32, with no sign, no leading zero and no
// overflow — or nullopt.
std::optional<std::uint32_t> parse_username(std::string_view name);

struct RetweetDetectionResult {
  std::size_t retweets_seen = 0;      // texts in RT form
  std::size_t parents_resolved = 0;   // matched to an earlier tweet
};

// Fills Tweet::parent for every tweet whose text matches an earlier
// tweet "RT @name: body" (earliest matching original wins). Existing
// parent pointers are overwritten; unresolved retweets keep kNoParent.
// Tweets must be time-sorted.
//
// Every tweet is registered under the key (author id, view of its
// text); the views point into the tweets' own texts, which this
// function never edits or reallocates. A retweet looks up
// (parse_username(name), body), so a name that is not a username
// matches nothing, with one exception: a name holding 0x1F splits at
// its first 0x1F, the part before it must be a username, and the part
// after it, a 0x1F and the body are looked up as the text. That is the
// match a string key of name + 0x1F + text gives, which parents
// resolved from such streams depend on.
RetweetDetectionResult detect_retweet_parents(std::vector<Tweet>& tweets);

// Dependency network from retweet behaviour: edge u -> v ("u depends on
// v") for every resolved retweet by u of a tweet authored by v.
// `user_count` sizes the graph (user ids must be < user_count).
Digraph infer_dependency_network(const std::vector<Tweet>& tweets,
                                 std::size_t user_count);

}  // namespace ss
