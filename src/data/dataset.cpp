#include "data/dataset.h"

#include <stdexcept>

namespace ss {

const char* label_name(Label label) {
  switch (label) {
    case Label::kFalse: return "False";
    case Label::kTrue: return "True";
    case Label::kOpinion: return "Opinion";
    case Label::kUnknown: return "Unknown";
  }
  return "?";
}

bool try_parse_label(std::string_view name, Label* out) {
  for (Label label : {Label::kFalse, Label::kTrue, Label::kOpinion,
                      Label::kUnknown}) {
    if (name == label_name(label)) {
      *out = label;
      return true;
    }
  }
  return false;
}

DatasetSummary Dataset::summary() const {
  DatasetSummary s;
  s.assertions = claims.assertion_count();
  s.sources = claims.source_count();
  s.total_claims = claims.claim_count();
  s.original_claims = count_original_claims(claims, dependency);
  for (Label l : truth) {
    switch (l) {
      case Label::kTrue: ++s.true_assertions; break;
      case Label::kFalse: ++s.false_assertions; break;
      case Label::kOpinion: ++s.opinion_assertions; break;
      case Label::kUnknown: break;
    }
  }
  return s;
}

void Dataset::validate() const {
  if (dependency.source_count() != claims.source_count() ||
      dependency.assertion_count() != claims.assertion_count()) {
    throw std::invalid_argument(
        "Dataset: dependency indicator shape does not match claim matrix");
  }
  if (!truth.empty() && truth.size() != claims.assertion_count()) {
    throw std::invalid_argument(
        "Dataset: truth label count does not match assertion count");
  }
}

}  // namespace ss
