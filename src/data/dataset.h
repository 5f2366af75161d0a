// A complete fact-finding problem instance: the source-claim matrix, its
// dependency indicators, and (when known) ground-truth assertion labels.
// A plain value: both matrices are flat CSR (data/source_claim_matrix.h),
// and nothing is cached beside them, so copies and edits need no care.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dependency.h"
#include "data/source_claim_matrix.h"

namespace ss {

// Assertion ground truth. The empirical protocol (Section V-C) grades
// assertions as True, False or Opinion; Opinion counts against an
// algorithm's top-k accuracy exactly like False.
enum class Label : std::uint8_t {
  kFalse = 0,
  kTrue = 1,
  kOpinion = 2,
  kUnknown = 3,
};

const char* label_name(Label label);
// The inverse of label_name: false for any other spelling.
[[nodiscard]] bool try_parse_label(std::string_view name, Label* out);

struct DatasetSummary {
  std::size_t assertions = 0;
  std::size_t sources = 0;
  std::size_t total_claims = 0;
  std::size_t original_claims = 0;  // claims with D_ij == 0
  std::size_t true_assertions = 0;
  std::size_t false_assertions = 0;
  std::size_t opinion_assertions = 0;
};

struct Dataset {
  std::string name;
  SourceClaimMatrix claims;
  DependencyIndicators dependency;
  // One label per assertion; empty when ground truth is unavailable.
  std::vector<Label> truth;

  std::size_t source_count() const { return claims.source_count(); }
  std::size_t assertion_count() const { return claims.assertion_count(); }

  // Table-III style statistics.
  DatasetSummary summary() const;

  // Throws std::invalid_argument when shapes disagree (claims vs
  // dependency vs truth sizes).
  void validate() const;
};

}  // namespace ss
