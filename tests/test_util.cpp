// Unit tests for the util substrate: RNG, strings, env, CLI plumbing,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/env.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ss {
namespace {

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(123, 7);
  Pcg32 b(123, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(123, 1);
  Pcg32 b(123, 2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Pcg32, AdvanceMatchesStepping) {
  Pcg32 a(99, 3);
  Pcg32 b(99, 3);
  for (int i = 0; i < 137; ++i) a();
  b.advance(137);
  EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(6);
  double acc = 0.0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(Rng, UniformU32Unbiased) {
  Rng rng(7);
  std::vector<int> counts(7, 0);
  const int kN = 70000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_u32(7)];
  for (int c : counts) EXPECT_NEAR(c, kN / 7, 500);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(8);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int kN = 100000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kN, 1.0, 0.03);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(12);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, CategoricalThrowsOnZeroWeights) {
  Rng rng(13);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(w), std::invalid_argument);
}

TEST(Rng, SplitIndependence) {
  Rng parent(42);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += (a.engine()() == b.engine()()) ? 1 : 0;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  Rng parent(42);
  Rng a = parent.split(7);
  Rng b = Rng(42).split(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(14);
  auto idx = rng.sample_indices(100, 30);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, ZipfHeavyHead) {
  Rng rng(15);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(100, 1.0)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, JoinRoundtrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, "-"), "x-y-z");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, CaseAndAffixes) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("h", "he"));
  EXPECT_TRUE(ends_with("hello", "lo"));
  EXPECT_FALSE(ends_with("o", "lo"));
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(StringUtil, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StringUtil, CsvEscapeAndParse) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  auto fields = csv_parse_line("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(Env, IntDoubleFlagString) {
  setenv("SS_TEST_INT", "42", 1);
  setenv("SS_TEST_DBL", "2.5", 1);
  setenv("SS_TEST_FLAG", "1", 1);
  setenv("SS_TEST_STR", "abc", 1);
  EXPECT_EQ(env_int("SS_TEST_INT", 0), 42);
  EXPECT_DOUBLE_EQ(env_double("SS_TEST_DBL", 0.0), 2.5);
  EXPECT_TRUE(env_flag("SS_TEST_FLAG"));
  EXPECT_EQ(env_string("SS_TEST_STR", ""), "abc");
  EXPECT_EQ(env_int("SS_TEST_MISSING", 5), 5);
  setenv("SS_TEST_INT", "notanumber", 1);
  EXPECT_EQ(env_int("SS_TEST_INT", 5), 5);
  unsetenv("SS_TEST_INT");
  unsetenv("SS_TEST_DBL");
  unsetenv("SS_TEST_FLAG");
  unsetenv("SS_TEST_STR");
}

namespace {
// argv helper: builds a mutable char*v from string literals.
std::vector<char*> make_argv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}
}  // namespace

TEST(Cli, ParsesAllValueKinds) {
  Cli cli("prog", "test");
  auto& count = cli.add_int("count", 1, "int flag");
  auto& rate = cli.add_double("rate", 0.5, "double flag");
  auto& name = cli.add_string("name", "x", "string flag");
  auto& verbose = cli.add_flag("verbose", "bool flag");
  std::vector<std::string> args = {"prog",  "--count=7", "--rate", "2.5",
                                   "--name=abc", "--verbose"};
  auto argv = make_argv(args);
  std::string error;
  ASSERT_TRUE(cli.try_parse(static_cast<int>(argv.size()), argv.data(),
                            &error))
      << error;
  EXPECT_EQ(count, 7);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_EQ(name, "abc");
  EXPECT_TRUE(verbose);
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  Cli cli("prog", "test");
  auto& count = cli.add_int("count", 42, "int flag");
  std::vector<std::string> args = {"prog"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.try_parse(1, argv.data(), nullptr));
  EXPECT_EQ(count, 42);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli("prog", "test");
  cli.add_int("count", 1, "int flag");
  cli.add_flag("fast", "bool flag");
  std::string error;

  std::vector<std::string> unknown = {"prog", "--nope=1"};
  auto argv1 = make_argv(unknown);
  EXPECT_FALSE(cli.try_parse(2, argv1.data(), &error));
  EXPECT_NE(error.find("unknown flag"), std::string::npos);

  std::vector<std::string> bad_value = {"prog", "--count=abc"};
  auto argv2 = make_argv(bad_value);
  EXPECT_FALSE(cli.try_parse(2, argv2.data(), &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);

  std::vector<std::string> missing = {"prog", "--count"};
  auto argv3 = make_argv(missing);
  EXPECT_FALSE(cli.try_parse(2, argv3.data(), &error));
  EXPECT_NE(error.find("requires a value"), std::string::npos);

  std::vector<std::string> flag_value = {"prog", "--fast=1"};
  auto argv4 = make_argv(flag_value);
  EXPECT_FALSE(cli.try_parse(2, argv4.data(), &error));
  EXPECT_NE(error.find("takes no value"), std::string::npos);

  std::vector<std::string> positional = {"prog", "stray"};
  auto argv5 = make_argv(positional);
  EXPECT_FALSE(cli.try_parse(2, argv5.data(), &error));
  EXPECT_NE(error.find("unexpected argument"), std::string::npos);
}

TEST(Cli, UsageListsFlagsAndDefaults) {
  Cli cli("prog", "demo description");
  cli.add_int("count", 42, "how many");
  std::string usage = cli.usage();
  EXPECT_NE(usage.find("demo description"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ChunkCountMatchesCeilDivision) {
  EXPECT_EQ(ThreadPool::chunk_count(0, 16), 0u);
  EXPECT_EQ(ThreadPool::chunk_count(1, 16), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(16, 16), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(17, 16), 2u);
  EXPECT_EQ(ThreadPool::chunk_count(100, 7), 15u);
  EXPECT_EQ(ThreadPool::chunk_count(5, 0), 5u);  // grain 0 behaves as 1
}

TEST(ThreadPool, ParallelForChunksCoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::size_t count : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}, std::size_t{64},
                              std::size_t{103}, std::size_t{257}}) {
      for (std::size_t grain : {std::size_t{1}, std::size_t{16}}) {
        std::vector<std::atomic<int>> hits(count);
        std::vector<std::atomic<int>> chunk_runs(
            ThreadPool::chunk_count(count, grain));
        pool.parallel_for_chunks(
            count, grain,
            [&](std::size_t chunk, std::size_t begin, std::size_t end) {
              ++chunk_runs[chunk];
              EXPECT_EQ(begin, chunk * grain);
              EXPECT_EQ(end, std::min(count, begin + grain));
              for (std::size_t i = begin; i < end; ++i) ++hits[i];
            });
        for (std::size_t c = 0; c < chunk_runs.size(); ++c) {
          EXPECT_EQ(chunk_runs[c].load(), 1)
              << "chunk " << c << ", " << threads << " threads, count "
              << count << ", grain " << grain;
        }
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 1)
              << "index " << i << ", " << threads << " threads, count "
              << count << ", grain " << grain;
        }
      }
    }
  }
}

TEST(ThreadPool, ParallelForChunksEmptyAndSingleItem) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for_chunks(
      0, 8, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for_chunks(
      1, 8, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ++calls;
        EXPECT_EQ(chunk, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1u);
      });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForChunksPropagatesLowestChunkError) {
  ThreadPool pool(4);
  // All chunks still run; the lowest-indexed failure is rethrown.
  std::atomic<int> ran{0};
  try {
    pool.parallel_for_chunks(
        64, 8, [&](std::size_t chunk, std::size_t, std::size_t) {
          ++ran;
          if (chunk == 2 || chunk == 5) {
            throw std::runtime_error("chunk " + std::to_string(chunk));
          }
        });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForChunksNestedDoesNotDeadlock) {
  // A pool task that itself issues parallel_for_chunks on the same pool
  // must not deadlock: the caller participates in draining chunks.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for_chunks(
      4, 1, [&](std::size_t, std::size_t, std::size_t) {
        pool.parallel_for_chunks(
            8, 2, [&](std::size_t, std::size_t begin, std::size_t end) {
              inner_total += static_cast<int>(end - begin);
            });
      });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  // global_pool() is already constructed, so mutating SS_THREADS here
  // only affects default_thread_count(), which reads it per call.
  const char* saved = std::getenv("SS_THREADS");
  std::string saved_value = saved ? saved : "";
  setenv("SS_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  setenv("SS_THREADS", "0", 1);  // invalid -> hardware fallback
  EXPECT_GE(default_thread_count(), 1u);
  if (saved) {
    setenv("SS_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("SS_THREADS");
  }
}

TEST(Log, LevelRoundtripAndThreshold) {
  LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // A suppressed level must not evaluate its stream arguments.
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "x";
  };
  SS_DEBUG << count();
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kDebug);
  SS_DEBUG << count();
  EXPECT_EQ(evaluations, 1);
  set_log_level(before);
}

TEST(WallTimer, MeasuresElapsed) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.millis(), 15.0);
  timer.reset();
  EXPECT_LT(timer.millis(), 15.0);
}

}  // namespace
}  // namespace ss
