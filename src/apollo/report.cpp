#include "apollo/report.h"

#include <algorithm>

#include "util/string_util.h"

namespace ss {
namespace {

constexpr std::size_t kTopCredible = 10;
constexpr std::size_t kTopRumours = 10;
constexpr std::size_t kTopSources = 10;
// Minimum support for the suspected-rumour list (a belief of 0.1 on a
// single-claim assertion is unremarkable; on a 30-claim cascade it is
// the story).
constexpr std::size_t kRumourMinSupport = 3;

void append_assertion_row(std::string& out, const Dataset& dataset,
                          const RankedAssertion& ra, bool graded) {
  out += strprintf("| %u | %.4f | %zu |", ra.assertion, ra.belief,
                   ra.support);
  if (graded) {
    out += strprintf(" %s |", label_name(ra.truth));
  }
  out += '\n';
  (void)dataset;
}

}  // namespace

std::string render_markdown_report(const Dataset& dataset,
                                   const PipelineReport& report,
                                   const EmExtResult& em_result) {
  bool graded = dataset.truth.size() == dataset.assertion_count() &&
                !dataset.truth.empty();
  DatasetSummary summary = dataset.summary();

  std::string out;
  out += strprintf("# Fact-finding report — %s\n\n",
                   dataset.name.c_str());
  out += strprintf(
      "%zu assertions from %zu sources (%zu claims, %zu original). "
      "Estimator: %s.\n\n",
      summary.assertions, summary.sources, summary.total_claims,
      summary.original_claims, report.estimator.c_str());

  out += "## Most credible assertions\n\n";
  out += graded ? "| assertion | belief | support | grade |\n|---|---|---|---|\n"
                : "| assertion | belief | support |\n|---|---|---|\n";
  for (const RankedAssertion& ra : report.top(kTopCredible)) {
    append_assertion_row(out, dataset, ra, graded);
  }

  out += "\n## Suspected rumours (well-supported, low belief)\n\n";
  out += graded ? "| assertion | belief | support | grade |\n|---|---|---|---|\n"
                : "| assertion | belief | support |\n|---|---|---|\n";
  std::vector<RankedAssertion> rumours;
  for (auto it = report.ranked.rbegin(); it != report.ranked.rend();
       ++it) {
    if (it->support >= kRumourMinSupport) {
      rumours.push_back(*it);
      if (rumours.size() >= kTopRumours) break;
    }
  }
  for (const RankedAssertion& ra : rumours) {
    append_assertion_row(out, dataset, ra, graded);
  }

  out += "\n## Most reliable sources (learned behaviour)\n\n";
  out += "| source | a (indep true-claim) | b (indep false-claim) | "
         "claims |\n|---|---|---|---|\n";
  // Rank sources by discrimination a - b among those with enough claims
  // for the estimate to mean something.
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(dataset.source_count()); ++i) {
    if (dataset.claims.claims_of(i).size() >= 3) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     const auto& sx = em_result.params.source[x];
                     const auto& sy = em_result.params.source[y];
                     return sx.a - sx.b > sy.a - sy.b;
                   });
  std::size_t shown =
      std::min<std::size_t>(kTopSources, order.size());
  for (std::size_t r = 0; r < shown; ++r) {
    const SourceParams& s = em_result.params.source[order[r]];
    out += strprintf("| %u | %.4f | %.4f | %zu |\n", order[r], s.a, s.b,
                     dataset.claims.claims_of(order[r]).size());
  }
  return out;
}

}  // namespace ss
