// Unit tests for the graph substrate: the follows-digraph, level-two
// dependency forests, and the preferential-attachment generator.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/digraph.h"
#include "graph/forest.h"
#include "graph/pref_attach.h"

namespace ss {
namespace {

TEST(Digraph, EdgesAndDegrees) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 0);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.followers(0).size(), 1u);
  EXPECT_EQ(g.followers(0)[0], 3u);
}

TEST(Digraph, IgnoresSelfLoopsAndDuplicates) {
  Digraph g(3);
  g.add_edge(1, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, TransitiveAncestors) {
  // 0 follows 1 follows 2; 3 isolated.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto anc = g.ancestors(0);
  EXPECT_EQ(anc, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(g.ancestors(2).empty());
  EXPECT_TRUE(g.ancestors(3).empty());
}

TEST(Digraph, AncestorsOnCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  auto anc = g.ancestors(0);
  // 1 and 2 are ancestors; 0 itself is excluded.
  EXPECT_EQ(anc, (std::vector<std::size_t>{1, 2}));
}

class ForestParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestParamTest, StructureInvariants) {
  std::size_t tau = GetParam();
  const std::size_t n = 30;
  Rng rng(tau * 17 + 1);
  DependencyForest forest = make_level_two_forest(n, tau, rng);

  EXPECT_EQ(forest.roots.size(), tau);
  EXPECT_EQ(forest.source_count(), n);
  std::set<std::size_t> roots(forest.roots.begin(), forest.roots.end());
  EXPECT_EQ(roots.size(), tau);
  std::size_t root_nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (forest.is_root(i)) {
      ++root_nodes;
      EXPECT_TRUE(roots.count(i));
    } else {
      // Every leaf points at an actual root (level-two: no chains).
      EXPECT_TRUE(roots.count(forest.root_of[i]));
    }
  }
  EXPECT_EQ(root_nodes, tau);
}

TEST_P(ForestParamTest, DigraphMatchesForest) {
  std::size_t tau = GetParam();
  const std::size_t n = 30;
  Rng rng(tau * 31 + 5);
  DependencyForest forest = make_level_two_forest(n, tau, rng);
  Digraph g = forest.to_digraph();
  EXPECT_EQ(g.edge_count(), n - tau);
  for (std::size_t i = 0; i < n; ++i) {
    if (forest.is_root(i)) {
      EXPECT_EQ(g.out_degree(i), 0u);
    } else {
      ASSERT_EQ(g.out_degree(i), 1u);
      EXPECT_EQ(g.following(i)[0], forest.root_of[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TauSweep, ForestParamTest,
                         ::testing::Values(1, 2, 5, 8, 15, 29, 30));

TEST(Forest, InvalidTauThrows) {
  Rng rng(1);
  EXPECT_THROW(make_level_two_forest(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(make_level_two_forest(10, 11, rng), std::invalid_argument);
}

TEST(Forest, RoundRobinDeterministic) {
  DependencyForest f = make_level_two_forest_round_robin(10, 3);
  EXPECT_EQ(f.roots, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(f.root_of[3], 0u);
  EXPECT_EQ(f.root_of[4], 1u);
  EXPECT_EQ(f.root_of[5], 2u);
  EXPECT_EQ(f.root_of[6], 0u);
}

TEST(Forest, TauEqualsNMeansAllIndependent) {
  Rng rng(2);
  DependencyForest f = make_level_two_forest(12, 12, rng);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_TRUE(f.is_root(i));
  EXPECT_EQ(f.to_digraph().edge_count(), 0u);
}

TEST(PrefAttach, EdgeBudgetAndValidity) {
  Rng rng(3);
  PrefAttachConfig config{200, 3, 0.1};
  Digraph g = make_preferential_attachment(config, rng);
  EXPECT_EQ(g.node_count(), 200u);
  // Every non-seed node follows up to 3 earlier nodes.
  for (std::size_t u = 1; u < 200; ++u) {
    EXPECT_LE(g.out_degree(u), 3u);
    EXPECT_GE(g.out_degree(u), 1u);
    for (std::size_t v : g.following(u)) EXPECT_LT(v, u);
  }
  EXPECT_EQ(g.out_degree(0), 0u);
}

TEST(PrefAttach, HeavyTailedInDegrees) {
  Rng rng(4);
  PrefAttachConfig config{2000, 3, 0.1};
  Digraph g = make_preferential_attachment(config, rng);
  std::vector<std::size_t> in(g.node_count());
  for (std::size_t u = 0; u < g.node_count(); ++u) in[u] = g.in_degree(u);
  std::sort(in.rbegin(), in.rend());
  // The most-followed node dwarfs the median — the "celebrity" effect.
  EXPECT_GT(in[0], 20u);
  EXPECT_LE(in[in.size() / 2], 3u);
}

TEST(PrefAttach, SingleNodeGraph) {
  Rng rng(5);
  PrefAttachConfig config{1, 3, 0.0};
  Digraph g = make_preferential_attachment(config, rng);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

}  // namespace
}  // namespace ss
