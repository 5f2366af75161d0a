// .ssd binary dataset format (src/data/ssd.h).
//
// Three layers of guarantees:
//   * fidelity — a written image reproduces the source Dataset exactly,
//     both through the zero-copy views and through materialize(), and
//     byte-identical files come out of byte-identical inputs;
//   * fault taxonomy — the golden corrupt fixtures in
//     tests/fixtures/corrupt/ssd/ each map to their documented
//     classified code and located byte (README table there);
//   * sealing — no single-byte corruption anywhere in the sealed header
//     region [0, 368) opens successfully (flip-at-every-byte torture),
//     and payload corruption is caught by the on-demand full scan.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "data/io.h"
#include "data/ssd.h"
#include "simgen/parametric_gen.h"
#include "simgen/scale_gen.h"
#include "temp_dir.h"
#include "util/rng.h"
#include "util/status.h"

namespace ss {
namespace {

std::string fixture(const std::string& name) {
  return std::string(SS_FIXTURE_DIR) + "/corrupt/ssd/" + name;
}

// Every file goes into one directory of this process's own, removed
// when the process exits.
std::string temp_path(const std::string& name) {
  static const test::TempDir dir("ssd");
  return dir.file(name);
}

Dataset small_dataset(std::uint64_t seed = 11, std::size_t n = 30,
                      std::size_t m = 80) {
  Rng rng(seed);
  return generate_parametric(SimKnobs::paper_defaults(n, m), rng).dataset;
}

template <typename A, typename B>
void expect_same_list(const A& a, const B& b, const char* what,
                      std::size_t at) {
  ASSERT_EQ(a.size(), b.size()) << what << " length at " << at;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], b[k]) << what << "[" << k << "] at " << at;
  }
}

void expect_view_matches(const SsdView& view, const Dataset& d) {
  ASSERT_EQ(view.source_count(), d.source_count());
  ASSERT_EQ(view.assertion_count(), d.assertion_count());
  ASSERT_EQ(view.claim_count(), d.claims.to_claims().size());
  ASSERT_EQ(view.exposed_cell_count(), d.dependency.exposed_cell_count());
  EXPECT_EQ(view.name(), d.name);
  for (std::size_t j = 0; j < d.assertion_count(); ++j) {
    expect_same_list(view.claimants_of(j), d.claims.claimants_of(j),
                     "claimants", j);
    expect_same_list(view.claimant_times_of(j),
                     d.claims.claimant_times_of(j), "claimant times", j);
    expect_same_list(view.exposed_sources(j),
                     d.dependency.exposed_sources(j), "exposed sources",
                     j);
    Label want = j < d.truth.size() ? d.truth[j] : Label::kUnknown;
    EXPECT_EQ(view.truth(j), want) << "truth at " << j;
  }
  for (std::size_t i = 0; i < d.source_count(); ++i) {
    expect_same_list(view.claims_of(i), d.claims.claims_of(i), "claims",
                     i);
    expect_same_list(view.claim_times_of(i), d.claims.claim_times_of(i),
                     "claim times", i);
    expect_same_list(view.exposed_assertions(i),
                     d.dependency.exposed_assertions(i),
                     "exposed assertions", i);
  }
}

TEST(Ssd, RoundTripMatchesDatasetExactly) {
  Dataset d = small_dataset();
  std::string path = temp_path("roundtrip.ssd");
  SsdStats stats = write_ssd(d, path);
  EXPECT_EQ(stats.sources, d.source_count());
  EXPECT_EQ(stats.assertions, d.assertion_count());

  SsdView view = SsdView::open_or_throw(path);
  expect_view_matches(view, d);
  EXPECT_TRUE(view.verify_payload());

  Dataset back = view.materialize();
  back.validate();
  std::string again = temp_path("roundtrip2.ssd");
  // materialize -> re-pack reproduces the identical sealed image.
  SsdStats stats2 = write_ssd(back, again);
  EXPECT_EQ(stats.fingerprint, stats2.fingerprint);
  std::ifstream a(path, std::ios::binary), b(again, std::ios::binary);
  std::string abytes((std::istreambuf_iterator<char>(a)), {});
  std::string bbytes((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(abytes, bbytes);
}

TEST(Ssd, JsonlRoundTripAndPackEquivalence) {
  Dataset d = small_dataset(23);
  std::string jsonl = temp_path("dataset.jsonl");
  save_dataset_jsonl(d, jsonl);
  Dataset back = load_dataset_jsonl(jsonl);
  back.validate();
  // Equality through the packed representation: both routes must seal
  // to the same image.
  std::string direct = temp_path("direct.ssd");
  std::string via_jsonl = temp_path("via_jsonl.ssd");
  EXPECT_EQ(write_ssd(d, direct).fingerprint,
            write_ssd(back, via_jsonl).fingerprint);
  expect_view_matches(SsdView::open_or_throw(via_jsonl), d);
}

TEST(Ssd, JsonlRejectsDefectiveLines) {
  std::string path = temp_path("defect.jsonl");
  auto load_with = [&](const std::string& body) {
    std::ofstream out(path);
    out << body;
    out.close();
    return load_dataset_jsonl(path);
  };
  const std::string meta =
      "{\"meta\":{\"name\":\"x\",\"sources\":2,\"assertions\":2}}\n";
  EXPECT_THROW(load_with(""), TaxonomyError);                  // no meta
  EXPECT_THROW(load_with("{\"claim\":[0,0,1]}\n"), TaxonomyError);
  EXPECT_THROW(load_with(meta + "{\"claim\":[0,0]}\n"), TaxonomyError);
  EXPECT_THROW(load_with(meta + "{\"claim\":[0,7,1.0]}\n"),
               TaxonomyError);                                 // range
  EXPECT_THROW(load_with(meta + "{\"claim\":[0,0,inf]}\n"),
               TaxonomyError);                                 // finite
  EXPECT_THROW(load_with(meta + "{\"truth\":[0,\"Maybe\"]}\n"),
               TaxonomyError);                                 // label
  EXPECT_THROW(load_with(meta + "{\"bogus\":[1]}\n"), TaxonomyError);
  EXPECT_NO_THROW(load_with(meta + "{\"claim\":[0,0,1.0]}\n"));
}

struct CorruptCase {
  const char* file;
  ErrorCode code;
  const char* fragment;  // must appear in the classified message
};

TEST(Ssd, GoldenCorruptFixturesClassify) {
  const CorruptCase cases[] = {
      {"truncated.ssd", ErrorCode::kCheckpointCorrupt,
       "truncated header at byte 40"},
      {"bad_magic.ssd", ErrorCode::kCheckpointCorrupt,
       "bad magic at byte 0"},
      {"bad_version.ssd", ErrorCode::kCheckpointCorrupt,
       "unsupported version at byte 8"},
      {"bad_section_count.ssd", ErrorCode::kCheckpointCorrupt,
       "bad section count at byte 56"},
      {"bad_header_digest.ssd", ErrorCode::kCheckpointCorrupt,
       "header checksum mismatch at byte 360"},
      {"bad_csr.ssd", ErrorCode::kIndexOutOfRange,
       "CSR offsets not monotonic"},
  };
  for (const CorruptCase& c : cases) {
    Expected<SsdView> r = SsdView::open(fixture(c.file));
    ASSERT_FALSE(r.ok()) << c.file;
    EXPECT_EQ(r.error().code, c.code) << c.file;
    EXPECT_NE(r.error().message.find(c.fragment), std::string::npos)
        << c.file << ": " << r.error().message;
    EXPECT_THROW(SsdView::open_or_throw(fixture(c.file)), TaxonomyError)
        << c.file;
  }
  EXPECT_EQ(SsdView::open(fixture("does_not_exist.ssd")).error().code,
            ErrorCode::kIoError);
}

TEST(Ssd, ValidFixtureRoundTrips) {
  SsdView view = SsdView::open_or_throw(fixture("valid.ssd"));
  EXPECT_TRUE(view.verify_payload());
  EXPECT_EQ(view.name(), "corrupt-fixture");
  ASSERT_EQ(view.source_count(), 4u);
  ASSERT_EQ(view.assertion_count(), 3u);
  EXPECT_EQ(view.claim_count(), 6u);
  EXPECT_EQ(view.exposed_cell_count(), 4u);
  EXPECT_EQ(view.truth(0), Label::kTrue);
  EXPECT_EQ(view.truth(1), Label::kFalse);
  EXPECT_EQ(view.truth(2), Label::kTrue);
  Dataset d = view.materialize();
  d.validate();
  ASSERT_EQ(d.claims.claimants_of(2).size(), 3u);
  EXPECT_EQ(d.claims.claimants_of(2)[2], 3u);
  EXPECT_EQ(d.claims.claimant_times_of(2)[2], 1.5);
}

TEST(Ssd, PayloadCorruptionInvisibleToOpenCaughtByVerify) {
  SsdView view = SsdView::open_or_throw(fixture("bad_payload.ssd"));
  Error why;
  EXPECT_FALSE(view.verify_payload(&why));
  EXPECT_EQ(why.code, ErrorCode::kCheckpointCorrupt);
  EXPECT_NE(why.message.find("payload checksum mismatch"),
            std::string::npos)
      << why.message;
}

TEST(Ssd, EveryHeaderByteFlipFailsToOpen) {
  std::ifstream in(fixture("valid.ssd"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  ASSERT_GE(bytes.size(), 368u);
  std::string path = temp_path("flip.ssd");
  // The sealed region: fixed header [0,72), section table [72,360),
  // header digest [360,368). One flipped bit anywhere must classify as
  // corrupt — nothing in it is trusted unchecked.
  for (std::size_t at = 0; at < 368; ++at) {
    std::string mutant = bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0x40);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(),
                static_cast<std::streamsize>(mutant.size()));
    }
    Expected<SsdView> r = SsdView::open(path);
    EXPECT_FALSE(r.ok()) << "byte " << at << " flip opened";
    if (!r.ok()) {
      EXPECT_TRUE(r.error().code == ErrorCode::kCheckpointCorrupt ||
                  r.error().code == ErrorCode::kIndexOutOfRange)
          << "byte " << at << ": " << r.error().message;
    }
  }
}

TEST(Ssd, WriterRejectsMisuse) {
  {
    SsdWriter w(temp_path("misuse1.ssd"), 4);
    EXPECT_THROW(w.claim(0, 0.0), std::invalid_argument);  // no column
  }
  {
    SsdWriter w(temp_path("misuse2.ssd"), 4);
    w.begin_assertion();
    EXPECT_THROW(w.claim(4, 0.0), std::invalid_argument);  // id >= n
    EXPECT_THROW(w.exposed(9), std::invalid_argument);
  }
  {
    SsdWriter w(temp_path("misuse3.ssd"), 4);
    w.begin_assertion();
    w.claim(1, 0.0);
    w.finish();
    EXPECT_THROW(w.begin_assertion(), std::invalid_argument);  // spent
  }
}

TEST(Ssd, ScaleGeneratorStreamsValidDeterministicImages) {
  ScaleKnobs knobs;
  knobs.sources = 3000;
  knobs.assertions = 600;
  knobs.community_lo = 40;
  knobs.community_hi = 120;
  std::string a = temp_path("scale_a.ssd");
  std::string b = temp_path("scale_b.ssd");
  ScaleStats sa = generate_scale_ssd(knobs, 99, a);
  ScaleStats sb = generate_scale_ssd(knobs, 99, b);
  EXPECT_GT(sa.communities, 10u);
  EXPECT_EQ(sa.communities, sb.communities);
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), {});
  };
  EXPECT_EQ(slurp(a), slurp(b));  // same seed -> byte-identical image
  SsdView view = SsdView::open_or_throw(a);
  EXPECT_TRUE(view.verify_payload());
  Dataset d = view.materialize();
  d.validate();
  EXPECT_EQ(d.source_count(), knobs.sources);
  EXPECT_EQ(d.assertion_count(), knobs.assertions);
  // A different seed must not reproduce the same image.
  std::string c = temp_path("scale_c.ssd");
  generate_scale_ssd(knobs, 100, c);
  EXPECT_NE(slurp(a), slurp(c));
}

}  // namespace
}  // namespace ss
