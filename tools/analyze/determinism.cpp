#include "analyze/determinism.h"

#include <deque>
#include <regex>
#include <set>

namespace analyze {
namespace {

// Identifiers declared with a floating-point type anywhere in the
// file: `double x`, `float* p`, `std::vector<double> v`,
// `std::array<double, N> a`. File-local resolution is deliberate —
// cross-TU type inference is a compiler's job; the suppression escape
// covers the rest.
void collect_float_decls(const SourceFile& file,
                         std::set<std::string>* out) {
  static const std::regex plain_re(
      R"(\b(?:double|float)\s*[*&]?\s*([A-Za-z_]\w*))");
  static const std::regex container_re(
      R"(\bstd::(?:vector|array)\s*<\s*(?:double|float)[^>]*>\s*[*&]?\s*([A-Za-z_]\w*))");
  for (const std::string& code : file.code) {
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        plain_re);
         it != std::sregex_iterator(); ++it) {
      out->insert((*it)[1].str());
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        container_re);
         it != std::sregex_iterator(); ++it) {
      out->insert((*it)[1].str());
    }
  }
}

struct Region {
  bool checked = false;  // parallel_*/for_each_chunk body vs tree_reduce
  int depth = 0;
};

}  // namespace

void DeterminismChecker::scan_file(
    const SourceFile& file, std::vector<scan::Diagnostic>* sink) const {
  // src/math/ is the sanctioned home for accumulation kernels; their
  // call sites are ordered by the engine (§10).
  if (scan::in_dir(scan::normalize(file.path), "math")) return;

  static const std::regex dispatch_re(
      R"(\b(parallel_for_chunks|parallel_for|for_each_chunk|tree_reduce)\s*\()");
  static const std::regex compound_re(
      R"(([A-Za-z_]\w*)\s*((?:\[[^\]]*\]|\.[A-Za-z_]\w*)*)\s*(\+=|-=))");
  static const std::regex helper_re(
      R"(\bstd::(accumulate|reduce|transform_reduce|inner_product)\s*\()");
  static const std::regex local_decl_re(
      R"(\b(?:double|float)\s*[*&]?\s*([A-Za-z_]\w*))");
  // A single-statement range-for fold over floats:
  //   for (double v : xs) acc += v;
  static const std::regex serial_fold_re(
      R"(\bfor\s*\(\s*(?:const\s+)?(?:double|float)\s+([A-Za-z_]\w*)\s*:[^)]*\)\s*[A-Za-z_][\w.\[\]]*\s*\+=\s*([A-Za-z_]\w*)\b)");
  static const std::regex tree_api_re(
      R"(\b(?:tree_sum|tree_reduce)\s*\()");

  std::set<std::string> float_ids;
  collect_float_decls(file, &float_ids);

  // Files already on the canonical-reduction discipline (they call the
  // tree primitives) must not also carry hand-rolled serial float
  // folds: the fold's left-to-right shape diverges from the fixed tree
  // shape the rest of the file commits to, so the same data reduced
  // twice can disagree bit-for-bit.
  bool uses_tree_api = false;
  for (const std::string& code : file.code) {
    if (std::regex_search(code, tree_api_re)) {
      uses_tree_api = true;
      break;
    }
  }

  std::vector<Region> stack;
  std::deque<bool> pending;  // armed dispatches awaiting their '{'
  std::set<std::string> region_locals;

  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& code = file.code[li];

    // Dispatch-call positions on this line.
    std::vector<std::pair<std::size_t, bool>> arms;
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        dispatch_re);
         it != std::sregex_iterator(); ++it) {
      // parallel_* and for_each_chunk bodies are checked regions;
      // tree_reduce bodies are sanctioned (their partials combine in a
      // fixed order by construction).
      arms.emplace_back(static_cast<std::size_t>(it->position(0)),
                        (*it)[1].str() != "tree_reduce");
    }

    // Per-character region state: 0 outside, 1 checked, 2 sanctioned.
    std::vector<int> state(code.size() + 1, 0);
    std::size_t next_arm = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
      while (next_arm < arms.size() && arms[next_arm].first == i) {
        pending.push_back(arms[next_arm].second);
        ++next_arm;
      }
      char c = code[i];
      if (c == '{') {
        if (!pending.empty()) {
          stack.push_back({pending.front(), 1});
          pending.pop_front();
        } else if (!stack.empty()) {
          ++stack.back().depth;
        }
      } else if (c == '}') {
        if (!stack.empty() && --stack.back().depth == 0) {
          stack.pop_back();
          if (stack.empty()) region_locals.clear();
        }
      } else if (c == ';' && stack.empty()) {
        // A dispatch whose statement ended without any brace (e.g. a
        // function-pointer argument) never opened a region.
        pending.clear();
      }
      state[i + 1] =
          stack.empty() ? 0 : (stack.back().checked ? 1 : 2);
    }

    if (state.empty()) continue;

    // Declarations inside any region are thread-private accumulators.
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        local_decl_re);
         it != std::sregex_iterator(); ++it) {
      if (state[static_cast<std::size_t>(it->position(0)) + 1] != 0) {
        region_locals.insert((*it)[1].str());
      }
    }

    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        compound_re);
         it != std::sregex_iterator(); ++it) {
      std::size_t at = static_cast<std::size_t>(it->position(0));
      if (state[at + 1] != 1) continue;
      // The accumulated lvalue: the trailing member wins for
      // `s.total += ...` (its declared type is what matters).
      std::string base = (*it)[1].str();
      std::string members = (*it)[2].str();
      std::string id = base;
      std::size_t dot = members.find_last_of('.');
      if (dot != std::string::npos) id = members.substr(dot + 1);
      if (float_ids.count(id) == 0 && float_ids.count(base) == 0) {
        continue;
      }
      if (region_locals.count(base) > 0 || region_locals.count(id) > 0) {
        continue;
      }
      sink->push_back(
          {file.path, li + 1, "unordered-reduction",
           "`" + it->str() + "` on a floating-point lvalue captured by "
           "reference inside a parallel worker body; accumulation order "
           "would depend on scheduling — write per-chunk partials and "
           "reduce serially in canonical order (or use "
           "kernels::tree_reduce)"});
    }

    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        helper_re);
         it != std::sregex_iterator(); ++it) {
      std::size_t at = static_cast<std::size_t>(it->position(0));
      if (state[at + 1] != 1) continue;
      sink->push_back(
          {file.path, li + 1, "unordered-reduction",
           "std::" + (*it)[1].str() + " inside a parallel worker body; "
           "reductions go through kernels::tree_reduce or the canonical "
           "serial epilogues (src/math/ kernels)"});
    }

    if (!uses_tree_api) continue;
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        serial_fold_re);
         it != std::sregex_iterator(); ++it) {
      std::size_t at = static_cast<std::size_t>(it->position(0));
      // Inside a region the compound-assignment rule already governs;
      // this rule covers the plain serial fold at top level.
      if (state[at + 1] != 0) continue;
      if ((*it)[1].str() != (*it)[2].str()) continue;
      sink->push_back(
          {file.path, li + 1, "unordered-reduction",
           "hand-rolled serial float fold in a file that uses the "
           "canonical tree primitives; its left-to-right shape diverges "
           "from the fixed tree shape — reduce through "
           "kernels::tree_sum / kernels::tree_reduce instead"});
    }
  }
}

}  // namespace analyze
