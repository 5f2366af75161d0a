// Unit tests for the data layer: source-claim matrix, dependency
// indicators (including the paper's Figure-1 example), their CSR builder
// against std::map references, dataset summary and CSV/JSONL
// persistence.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "csr_check.h"
#include "data/dataset.h"
#include "data/io.h"
#include "temp_dir.h"
#include "util/rng.h"

namespace ss {
namespace {

std::vector<std::uint32_t> ids(std::span<const std::uint32_t> list) {
  return {list.begin(), list.end()};
}

SourceClaimMatrix small_matrix() {
  // 3 sources x 4 assertions.
  std::vector<Claim> claims = {
      {0, 0, 1.0}, {0, 2, 2.0}, {1, 0, 3.0}, {2, 3, 0.5},
  };
  return SourceClaimMatrix(3, 4, claims);
}

TEST(SourceClaimMatrix, BasicAccessors) {
  SourceClaimMatrix sc = small_matrix();
  EXPECT_EQ(sc.source_count(), 3u);
  EXPECT_EQ(sc.assertion_count(), 4u);
  EXPECT_EQ(sc.claim_count(), 4u);
  EXPECT_TRUE(sc.has_claim(0, 0));
  EXPECT_TRUE(sc.has_claim(0, 2));
  EXPECT_FALSE(sc.has_claim(0, 1));
  EXPECT_EQ(ids(sc.claims_of(0)), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(ids(sc.claimants_of(0)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(sc.support(0), 2u);
  EXPECT_EQ(sc.support(1), 0u);
  EXPECT_DOUBLE_EQ(sc.claim_time(1, 0), 3.0);
}

TEST(SourceClaimMatrix, DeduplicatesKeepingEarliest) {
  std::vector<Claim> claims = {
      {0, 0, 5.0}, {0, 0, 2.0}, {0, 0, 9.0},
  };
  SourceClaimMatrix sc(1, 1, claims);
  EXPECT_EQ(sc.claim_count(), 1u);
  EXPECT_DOUBLE_EQ(sc.claim_time(0, 0), 2.0);
}

TEST(SourceClaimMatrix, ColumnsSortedBySource) {
  std::vector<Claim> claims = {
      {2, 0, 1.0}, {0, 0, 2.0}, {1, 0, 3.0},
  };
  SourceClaimMatrix sc(3, 1, claims);
  EXPECT_EQ(ids(sc.claimants_of(0)), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(SourceClaimMatrix, OutOfRangeThrows) {
  std::vector<Claim> claims = {{5, 0, 0.0}};
  EXPECT_THROW(SourceClaimMatrix(3, 4, claims), std::out_of_range);
  std::vector<Claim> claims2 = {{0, 9, 0.0}};
  EXPECT_THROW(SourceClaimMatrix(3, 4, claims2), std::out_of_range);
}

TEST(SourceClaimMatrix, ClaimTimeMissingThrows) {
  SourceClaimMatrix sc = small_matrix();
  EXPECT_THROW(sc.claim_time(0, 1), std::out_of_range);
}

TEST(SourceClaimMatrix, ToClaimsRoundtrip) {
  SourceClaimMatrix sc = small_matrix();
  auto claims = sc.to_claims();
  SourceClaimMatrix copy(3, 4, claims);
  EXPECT_EQ(copy.claim_count(), sc.claim_count());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ids(copy.claims_of(i)), ids(sc.claims_of(i)));
  }
}

// Random inputs for the CSR builder: unsorted claims, repeated cells at
// different (and equal) times, an unused last row and column so empty
// lists always occur, and zero-sized dimensions.
struct RandomShape {
  std::size_t n, m, claims;
};
constexpr RandomShape kRandomShapes[] = {
    {0, 0, 0},   {0, 5, 0},    {7, 0, 0},    {1, 1, 9},
    {12, 9, 40}, {40, 25, 300}, {200, 3, 500},
};

std::vector<Claim> random_claims(const RandomShape& shape, Rng& rng) {
  std::vector<Claim> claims;
  if (shape.n == 0 || shape.m == 0) return claims;
  auto used = [](std::size_t dim) {
    return static_cast<std::uint32_t>(dim > 1 ? dim - 1 : dim);
  };
  for (std::size_t k = 0; k < shape.claims; ++k) {
    Claim c{rng.uniform_u32(used(shape.n)), rng.uniform_u32(used(shape.m)),
            static_cast<double>(rng.uniform_int(0, 20))};
    claims.push_back(c);
    if (rng.bernoulli(0.3)) {
      c.time = static_cast<double>(rng.uniform_int(0, 20));
      claims.push_back(c);
    }
  }
  rng.shuffle(claims);
  return claims;
}

// (source, assertion) -> earliest time.
CsrCells earliest_cells(const std::vector<Claim>& claims) {
  CsrCells cells;
  for (const Claim& c : claims) {
    auto [it, fresh] = cells.emplace(std::make_pair(c.source, c.assertion),
                                     c.time);
    if (!fresh) it->second = std::min(it->second, c.time);
  }
  return cells;
}

CsrCells cells_of(const DependencyIndicators& dep) {
  CsrCells cells;
  for (std::size_t i = 0; i < dep.source_count(); ++i) {
    for (std::uint32_t j : dep.exposed_assertions(i)) {
      cells[{static_cast<std::uint32_t>(i), j}] = 0.0;
    }
  }
  return cells;
}

TEST(SourceClaimMatrix, RandomClaimsMatchMapReference) {
  Rng rng(2024);
  for (const RandomShape& shape : kRandomShapes) {
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE(std::to_string(shape.n) + "x" + std::to_string(shape.m) +
                   " rep " + std::to_string(rep));
      std::vector<Claim> claims = random_claims(shape, rng);
      CsrCells expected = earliest_cells(claims);
      SourceClaimMatrix sc(shape.n, shape.m, claims);
      EXPECT_EQ(sc.source_count(), shape.n);
      EXPECT_EQ(sc.assertion_count(), shape.m);
      EXPECT_EQ(csr_defect(sc), "");
      EXPECT_EQ(earliest_cells(sc.to_claims()), expected);
      for (const auto& [cell, time] : expected) {
        EXPECT_TRUE(sc.has_claim(cell.first, cell.second));
        EXPECT_EQ(sc.claim_time(cell.first, cell.second), time);
      }
      if (shape.n > 1 && shape.m > 1) {
        EXPECT_TRUE(sc.claims_of(shape.n - 1).empty());
        EXPECT_TRUE(sc.claimants_of(shape.m - 1).empty());
        EXPECT_FALSE(sc.has_claim(shape.n - 1, 0));
      }
    }
  }
}

TEST(SourceClaimMatrix, RejectsDimensionsBeyondUint32) {
  const std::size_t too_big = std::size_t{UINT32_MAX} + 1;
  EXPECT_THROW(SourceClaimMatrix(too_big, 1, {}), std::invalid_argument);
  EXPECT_THROW(SourceClaimMatrix(1, too_big, {}), std::invalid_argument);
  EXPECT_THROW(DependencyIndicators::from_cells(too_big, 1, {}),
               std::invalid_argument);
  EXPECT_THROW(DependencyIndicators::from_cells(1, too_big, {}),
               std::invalid_argument);
}

TEST(Dependency, Figure1Example) {
  // John(0) follows Sally(1); Heather(2) independent.
  Digraph follows(3);
  follows.add_edge(0, 1);
  std::vector<Claim> claims = {
      {1, 0, 1.0},  // Sally tweets "Main St" at t1
      {2, 1, 1.0},  // Heather tweets "University Ave" at t1
      {0, 0, 2.0},  // John repeats Main St at t2 -> dependent
      {0, 1, 3.0},  // John repeats University Ave -> independent
  };
  SourceClaimMatrix sc(3, 2, claims);
  auto dep = DependencyIndicators::from_graph(sc, follows);
  EXPECT_TRUE(dep.dependent(0, 0));    // D_11 = 1 in the paper
  EXPECT_FALSE(dep.dependent(0, 1));   // D_12 = 0
  EXPECT_FALSE(dep.dependent(1, 0));   // D_21 = 0
  EXPECT_FALSE(dep.dependent(2, 1));   // D_32 = 0
}

TEST(Dependency, EarlierClaimIsIndependent) {
  // u follows v but u claimed BEFORE v: u's claim is original.
  Digraph follows(2);
  follows.add_edge(0, 1);
  std::vector<Claim> claims = {{0, 0, 1.0}, {1, 0, 2.0}};
  SourceClaimMatrix sc(2, 1, claims);
  auto dep = DependencyIndicators::from_graph(sc, follows);
  EXPECT_FALSE(dep.dependent(0, 0));
  EXPECT_FALSE(dep.dependent(1, 0));  // v follows nobody
}

TEST(Dependency, UnclaimedCellExposure) {
  // u follows v; v claims assertion 0. u never claims it, but the cell
  // (u, 0) is exposed: D_u0 = 1 (the M-step denominators need this).
  Digraph follows(2);
  follows.add_edge(0, 1);
  std::vector<Claim> claims = {{1, 0, 1.0}};
  SourceClaimMatrix sc(2, 2, claims);
  auto dep = DependencyIndicators::from_graph(sc, follows);
  EXPECT_TRUE(dep.dependent(0, 0));
  EXPECT_FALSE(dep.dependent(0, 1));
  EXPECT_EQ(dep.exposed_cell_count(), 1u);
  EXPECT_EQ(ids(dep.exposed_assertions(0)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(ids(dep.exposed_sources(0)), (std::vector<std::uint32_t>{0}));
}

TEST(Dependency, TransitiveScopeReachesGrandparents) {
  // Chain: 0 follows 1 follows 2. Source 2 claims assertion 0.
  Digraph follows(3);
  follows.add_edge(0, 1);
  follows.add_edge(1, 2);
  std::vector<Claim> claims = {{2, 0, 1.0}};
  SourceClaimMatrix sc(3, 1, claims);
  auto direct = DependencyIndicators::from_graph(sc, follows,
                                                 ExposureScope::kDirect);
  auto transitive = DependencyIndicators::from_graph(
      sc, follows, ExposureScope::kTransitive);
  // Direct: only source 1 (follows 2) is exposed.
  EXPECT_TRUE(direct.dependent(1, 0));
  EXPECT_FALSE(direct.dependent(0, 0));
  // Transitive: source 0 reaches 2 through 1.
  EXPECT_TRUE(transitive.dependent(1, 0));
  EXPECT_TRUE(transitive.dependent(0, 0));
}

TEST(Dependency, TransitiveMatchesDirectOnDepthOneGraphs) {
  // On a level-two forest the two scopes coincide (no chains).
  DependencyForest forest = make_level_two_forest_round_robin(8, 3);
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {1, 1, 0.0}, {3, 0, 1.0}, {4, 2, 1.0},
  };
  SourceClaimMatrix sc(8, 3, claims);
  Digraph g = forest.to_digraph();
  auto direct =
      DependencyIndicators::from_graph(sc, g, ExposureScope::kDirect);
  auto transitive = DependencyIndicators::from_graph(
      sc, g, ExposureScope::kTransitive);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ids(direct.exposed_assertions(i)),
              ids(transitive.exposed_assertions(i)))
        << i;
  }
}

TEST(Dependency, FromForestMatchesFromGraph) {
  // Level-two forest: roots claim at t=0, leaves at t=1, so from_graph
  // over the equivalent digraph must agree with from_forest.
  DependencyForest forest = make_level_two_forest_round_robin(6, 2);
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {0, 1, 0.0}, {1, 2, 0.0},  // roots
      {2, 0, 1.0}, {3, 2, 1.0}, {4, 3, 1.0},  // leaves
  };
  SourceClaimMatrix sc(6, 4, claims);
  auto from_forest = DependencyIndicators::from_forest(sc, forest);
  auto from_graph =
      DependencyIndicators::from_graph(sc, forest.to_digraph());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ids(from_forest.exposed_assertions(i)),
              ids(from_graph.exposed_assertions(i)))
        << "source " << i;
  }
}

TEST(Dependency, FromCellsAndQueries) {
  auto dep = DependencyIndicators::from_cells(3, 3, {{0, 1}, {2, 0}});
  EXPECT_TRUE(dep.dependent(0, 1));
  EXPECT_TRUE(dep.dependent(2, 0));
  EXPECT_FALSE(dep.dependent(1, 1));
  EXPECT_EQ(dep.exposed_cell_count(), 2u);
  EXPECT_THROW(
      DependencyIndicators::from_cells(2, 2, {{5, 0}}),
      std::out_of_range);
}

TEST(Dependency, CountOriginalClaims) {
  Digraph follows(2);
  follows.add_edge(1, 0);
  std::vector<Claim> claims = {{0, 0, 1.0}, {1, 0, 2.0}, {1, 1, 3.0}};
  SourceClaimMatrix sc(2, 2, claims);
  auto dep = DependencyIndicators::from_graph(sc, follows);
  // Source 1's claim of assertion 0 is a repeat; the rest are original.
  EXPECT_EQ(count_original_claims(sc, dep), 2u);
}

TEST(Dependency, RandomCellsMatchSetReference) {
  Rng rng(77);
  for (const RandomShape& shape : kRandomShapes) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
      for (const Claim& c : random_claims(shape, rng)) {
        cells.emplace_back(c.source, c.assertion);
      }
      CsrCells expected;
      for (const auto& cell : cells) expected[cell] = 0.0;
      auto dep = DependencyIndicators::from_cells(shape.n, shape.m, cells);
      EXPECT_EQ(dep.source_count(), shape.n);
      EXPECT_EQ(dep.assertion_count(), shape.m);
      EXPECT_EQ(csr_defect(dep), "");
      EXPECT_EQ(cells_of(dep), expected);
    }
  }
}

TEST(Dependency, RandomForestMatchesReference) {
  Rng rng(78);
  for (const RandomShape& shape : kRandomShapes) {
    for (int rep = 0; rep < 4; ++rep) {
      // Source 0 is a root; every later source is a root or follows a
      // random earlier root.
      DependencyForest forest;
      for (std::size_t i = 0; i < shape.n; ++i) {
        bool root = forest.roots.empty() || rng.bernoulli(0.3);
        forest.root_of.push_back(
            root ? i
                 : forest.roots[rng.uniform_u32(static_cast<std::uint32_t>(
                       forest.roots.size()))]);
        if (root) forest.roots.push_back(i);
      }
      std::vector<Claim> claims = random_claims(shape, rng);
      SourceClaimMatrix sc(shape.n, shape.m, claims);
      CsrCells claimed = earliest_cells(claims);
      CsrCells expected;
      for (std::size_t i = 0; i < shape.n; ++i) {
        if (forest.is_root(i)) continue;
        for (const auto& [cell, time] : claimed) {
          if (cell.first == forest.root_of[i]) {
            expected[{static_cast<std::uint32_t>(i), cell.second}] = 0.0;
          }
        }
      }
      auto dep = DependencyIndicators::from_forest(sc, forest);
      EXPECT_EQ(csr_defect(dep), "");
      EXPECT_EQ(cells_of(dep), expected);
    }
  }
}

TEST(Dependency, RandomGraphMatchesReference) {
  Rng rng(79);
  for (const RandomShape& shape : kRandomShapes) {
    for (int rep = 0; rep < 4; ++rep) {
      Digraph follows(shape.n);
      for (std::size_t e = 0; e < 2 * shape.n; ++e) {
        auto n = static_cast<std::uint32_t>(shape.n);
        follows.add_edge(rng.uniform_u32(n), rng.uniform_u32(n));
      }
      std::vector<Claim> claims = random_claims(shape, rng);
      SourceClaimMatrix sc(shape.n, shape.m, claims);
      CsrCells claimed = earliest_cells(claims);
      for (ExposureScope scope :
           {ExposureScope::kDirect, ExposureScope::kTransitive}) {
        // u is exposed to j when an influencer v claimed j, and u either
        // never claimed j or claimed it strictly later.
        CsrCells expected;
        for (std::size_t u = 0; u < shape.n; ++u) {
          std::vector<char> influencer(shape.n, 0);
          if (scope == ExposureScope::kDirect) {
            for (std::size_t v : follows.following(u)) influencer[v] = 1;
          } else {
            influencer = follows.ancestor_mask(u);
          }
          for (const auto& [cell, tv] : claimed) {
            if (!influencer[cell.first]) continue;
            auto own = claimed.find({static_cast<std::uint32_t>(u),
                                     cell.second});
            if (own == claimed.end() || tv < own->second) {
              expected[{static_cast<std::uint32_t>(u), cell.second}] = 0.0;
            }
          }
        }
        auto dep = DependencyIndicators::from_graph(sc, follows, scope);
        EXPECT_EQ(csr_defect(dep), "");
        EXPECT_EQ(cells_of(dep), expected);
      }
    }
  }
}

TEST(Dataset, SummaryCounts) {
  Dataset d;
  d.name = "t";
  d.claims = small_matrix();
  d.dependency = DependencyIndicators::from_cells(3, 4, {{1, 0}});
  d.truth = {Label::kTrue, Label::kFalse, Label::kOpinion, Label::kTrue};
  DatasetSummary s = d.summary();
  EXPECT_EQ(s.sources, 3u);
  EXPECT_EQ(s.assertions, 4u);
  EXPECT_EQ(s.total_claims, 4u);
  EXPECT_EQ(s.original_claims, 3u);  // (1,0) is dependent
  EXPECT_EQ(s.true_assertions, 2u);
  EXPECT_EQ(s.false_assertions, 1u);
  EXPECT_EQ(s.opinion_assertions, 1u);
}

TEST(Dataset, ValidateRejectsShapeMismatch) {
  Dataset d;
  d.claims = small_matrix();
  d.dependency = DependencyIndicators::from_cells(2, 4, {});
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.dependency = DependencyIndicators::from_cells(3, 4, {});
  d.truth = {Label::kTrue};  // wrong length
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.truth.clear();
  EXPECT_NO_THROW(d.validate());
}

TEST(DatasetIo, RoundtripPreservesEverything) {
  Dataset d;
  d.name = "roundtrip, with \"quotes\"";
  d.claims = small_matrix();
  d.dependency = DependencyIndicators::from_cells(3, 4, {{1, 0}, {2, 2}});
  d.truth = {Label::kTrue, Label::kFalse, Label::kOpinion,
             Label::kUnknown};

  test::TempDir tmp("data_io_roundtrip");
  std::string dir = tmp.file("dataset");
  save_dataset(d, dir);
  Dataset r = load_dataset(dir);

  EXPECT_EQ(r.name, d.name);
  EXPECT_EQ(r.source_count(), d.source_count());
  EXPECT_EQ(r.assertion_count(), d.assertion_count());
  EXPECT_EQ(r.claims.claim_count(), d.claims.claim_count());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ids(r.claims.claims_of(i)), ids(d.claims.claims_of(i)));
    EXPECT_EQ(ids(r.dependency.exposed_assertions(i)),
              ids(d.dependency.exposed_assertions(i)));
  }
  EXPECT_DOUBLE_EQ(r.claims.claim_time(2, 3), 0.5);
  EXPECT_EQ(r.truth, d.truth);
}

TEST(DatasetIo, LoadMissingDirectoryThrows) {
  EXPECT_THROW(load_dataset("/tmp/ss_definitely_missing_dir_42"),
               std::runtime_error);
}

TEST(Labels, Names) {
  EXPECT_STREQ(label_name(Label::kTrue), "True");
  EXPECT_STREQ(label_name(Label::kFalse), "False");
  EXPECT_STREQ(label_name(Label::kOpinion), "Opinion");
  EXPECT_STREQ(label_name(Label::kUnknown), "Unknown");
}

// Golden corrupted dataset (tests/fixtures/corrupt/README.md lists the
// defect on every line). The exact per-code counts are asserted so any
// change to classification or repair semantics shows up here.
constexpr char kCorruptDataset[] = SS_FIXTURE_DIR "/corrupt/dataset";

TEST(DatasetIngest, StrictThrowsOnFirstDefectWithTaxonomyCode) {
  EXPECT_THROW(load_dataset(kCorruptDataset), std::runtime_error);
  IngestReport report;
  Expected<Dataset> r =
      try_load_dataset(kCorruptDataset, IngestOptions{}, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kBadRow);  // claims.csv line 4
  EXPECT_NE(r.error().message.find("claims.csv:4"), std::string::npos);
}

TEST(DatasetIngest, PermissiveSkipsAndCountsEveryTaxonomyCode) {
  IngestOptions opt;
  opt.mode = IngestMode::kPermissive;
  IngestReport report;
  Dataset d = load_dataset(kCorruptDataset, opt, &report);
  EXPECT_EQ(report.rows_total, 19u);
  EXPECT_EQ(report.rows_ok, 8u);
  EXPECT_EQ(report.rows_repaired, 0u);
  EXPECT_EQ(report.rows_skipped, 11u);
  EXPECT_EQ(report.count(ErrorCode::kBadRow), 2u);
  EXPECT_EQ(report.count(ErrorCode::kBadNumber), 3u);
  EXPECT_EQ(report.count(ErrorCode::kIndexOutOfRange), 4u);
  EXPECT_EQ(report.count(ErrorCode::kNonFinite), 1u);
  EXPECT_EQ(report.count(ErrorCode::kBadLabel), 1u);
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.errors.empty());
  // Everything that parsed survives with the declared shape intact.
  EXPECT_EQ(d.source_count(), 3u);
  EXPECT_EQ(d.assertion_count(), 4u);
  EXPECT_EQ(d.claims.claim_count(), 3u);
  ASSERT_EQ(d.truth.size(), 4u);
  EXPECT_EQ(d.truth[0], Label::kTrue);
  EXPECT_EQ(d.truth[1], Label::kFalse);
  EXPECT_EQ(d.truth[2], Label::kUnknown);  // bad label was skipped
  EXPECT_EQ(d.truth[3], Label::kOpinion);
}

TEST(DatasetIngest, RepairFixesUnambiguousDefects) {
  IngestOptions opt;
  opt.mode = IngestMode::kRepair;
  IngestReport report;
  Dataset d = load_dataset(kCorruptDataset, opt, &report);
  EXPECT_EQ(report.rows_repaired, 2u);  // inf time, unknown label
  EXPECT_EQ(report.rows_skipped, 9u);
  EXPECT_EQ(d.claims.claim_count(), 4u);
  EXPECT_TRUE(d.claims.has_claim(2, 2));
  EXPECT_DOUBLE_EQ(d.claims.claim_time(2, 2), 0.0);  // inf -> 0
  EXPECT_EQ(d.truth[2], Label::kUnknown);            // Maybe -> Unknown
}

TEST(DatasetIngest, MissingDirectoryIsClassifiedIoError) {
  Expected<Dataset> r =
      try_load_dataset("/tmp/ss_definitely_missing_dir_42");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
}

// A meta line declaring more sources or assertions than the uint32 id
// space holds is rejected before anything is allocated.
TEST(DatasetIngest, CsvMetaBeyondUint32IsIndexOutOfRange) {
  test::TempDir tmp("data_io_huge_meta");
  const std::string dir = tmp.path();
  for (const char* dims : {"4294967306,3", "3,4294967306"}) {
    SCOPED_TRACE(dims);
    std::ofstream(dir + "/meta.csv")
        << "name,sources,assertions\nhuge," << dims << "\n";
    std::ofstream(dir + "/claims.csv") << "source,assertion,time\n";
    std::ofstream(dir + "/exposure.csv") << "source,assertion\n";
    std::ofstream(dir + "/truth.csv") << "assertion,label\n";
    for (IngestMode mode : {IngestMode::kStrict, IngestMode::kPermissive}) {
      IngestOptions opt;
      opt.mode = mode;
      Expected<Dataset> r = try_load_dataset(dir, opt);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.error().code, ErrorCode::kIndexOutOfRange);
      EXPECT_NE(r.error().message.find("meta.csv:2"), std::string::npos)
          << r.error().message;
    }
  }
}

TEST(DatasetIngest, JsonlMetaBeyondUint32IsIndexOutOfRange) {
  test::TempDir tmp("data_io_huge_meta_jsonl");
  const std::string path = tmp.file("huge_meta.jsonl");
  for (const char* dims : {"\"sources\":4294967306,\"assertions\":3",
                           "\"sources\":3,\"assertions\":4294967306"}) {
    SCOPED_TRACE(dims);
    std::ofstream(path) << "{\"meta\":{\"name\":\"huge\"," << dims
                        << "}}\n{\"claim\":[0,1,0.5]}\n";
    try {
      load_dataset_jsonl(path);
      ADD_FAILURE() << "huge meta loaded";
    } catch (const TaxonomyError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIndexOutOfRange) << e.what();
    }
  }
}

TEST(DatasetIngest, ReportSummaryIsHumanReadable) {
  IngestOptions opt;
  opt.mode = IngestMode::kPermissive;
  IngestReport report;
  load_dataset(kCorruptDataset, opt, &report);
  std::string s = report.summary();
  EXPECT_NE(s.find("19 rows"), std::string::npos);
  EXPECT_NE(s.find("index-out-of-range:4"), std::string::npos);
}

}  // namespace
}  // namespace ss
