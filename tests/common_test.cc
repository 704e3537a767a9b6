#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "pdm.h"  // umbrella header must stay self-contained
#include "rng/rng.h"

namespace pdm {
namespace {

// ---------------------------------------------------------------- strings

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, SplitTrailingSeparator) {
  auto parts = Split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello \t"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringUtil, ToLower) { EXPECT_EQ(ToLower("TrUe"), "true"); }

TEST(StringUtil, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").value(), -1000.0);
}

TEST(StringUtil, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(StringUtil, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_FALSE(ParseInt64("4.2").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
}

TEST(StringUtil, ParseBool) {
  EXPECT_TRUE(ParseBool("true").value());
  EXPECT_TRUE(ParseBool("YES").value());
  EXPECT_TRUE(ParseBool("1").value());
  EXPECT_FALSE(ParseBool("off").value());
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVariance) {
  RunningStats s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double v = 0.37 * i - 3.0;
    (i < 20 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeIntoEmpty) {
  RunningStats a, b;
  b.Add(5.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

// ---------------------------------------------------------------- glob

TEST(GlobMatch, LiteralAndWildcards) {
  EXPECT_TRUE(GlobMatch("fig4", "fig4"));
  EXPECT_FALSE(GlobMatch("fig4", "fig5"));
  EXPECT_TRUE(GlobMatch("fig4/*", "fig4/b/reserve"));
  EXPECT_FALSE(GlobMatch("fig4/*", "fig5a/pure"));
  EXPECT_TRUE(GlobMatch("*", "anything at all"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("throughput/*/n=2?", "throughput/pure/n=20"));
  EXPECT_FALSE(GlobMatch("throughput/*/n=2?", "throughput/pure/n=2"));
  EXPECT_TRUE(GlobMatch("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(GlobMatch("a*b*c", "a-x-b-y"));
  EXPECT_TRUE(GlobMatch("?", "x"));
  EXPECT_FALSE(GlobMatch("?", ""));
  // '*' must be able to match across '/' (selecting whole families).
  EXPECT_TRUE(GlobMatch("lemma8/*", "lemma8/unsafe/T=3200"));
}

TEST(GlobMatch, BacktracksThroughRepeatedPrefixes) {
  EXPECT_TRUE(GlobMatch("*abc", "ababc"));
  EXPECT_TRUE(GlobMatch("a*bc", "abbc"));
  EXPECT_FALSE(GlobMatch("*abc", "ababd"));
}

TEST(EditDistance, KnownDistances) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("scenario", "scnario"), 1u);
}

// ---------------------------------------------------------------- flags

TEST(FlagSet, ParsesAllTypes) {
  int64_t rounds = 10;
  double eps = 0.5;
  bool verbose = false;
  std::string out = "a.csv";
  FlagSet flags("test");
  flags.AddInt64("rounds", &rounds, "rounds");
  flags.AddDouble("eps", &eps, "epsilon");
  flags.AddBool("verbose", &verbose, "verbosity");
  flags.AddString("out", &out, "output");
  const char* argv[] = {"test", "--rounds=100", "--eps", "0.25", "--verbose",
                        "--out=b.csv"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(rounds, 100);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(out, "b.csv");
}

TEST(FlagSet, RejectsUnknownFlag) {
  FlagSet flags("test");
  const char* argv[] = {"test", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, BareUnknownFlagIsReportedAsUnknown) {
  // A trailing unknown flag with no value used to be misreported as
  // "missing a value"; it must fail as unknown (and must not consume the
  // next argument as its value when one follows).
  int64_t rounds = 5;
  FlagSet flags("test");
  flags.AddInt64("rounds", &rounds, "rounds");
  const char* bare[] = {"test", "--nope"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(bare)));
  const char* with_next[] = {"test", "--nope", "--rounds=9"};
  EXPECT_FALSE(flags.Parse(3, const_cast<char**>(with_next)));
  EXPECT_EQ(rounds, 5);  // nothing was assigned on the error path
}

TEST(FlagSet, ParsesUint64) {
  uint64_t seed = 7;
  FlagSet flags("test");
  flags.AddUint64("seed", &seed, "seed");
  // The upper half of the uint64 range (> INT64_MAX) must parse.
  const char* argv[] = {"test", "--seed=18446744073709551615"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(seed, 18446744073709551615ull);

  const char* negative[] = {"test", "--seed=-3"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(negative)));
}

TEST(StringUtil, ParseUint64) {
  EXPECT_EQ(ParseUint64("0"), 0ull);
  EXPECT_EQ(ParseUint64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());  // overflow
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("12x").has_value());
  EXPECT_FALSE(ParseUint64("").has_value());
}

TEST(FlagSet, KnownFlagListNamesEveryFlag) {
  int64_t rounds = 1;
  double eps = 0.1;
  FlagSet flags("test");
  flags.AddInt64("rounds", &rounds, "rounds");
  flags.AddDouble("eps", &eps, "epsilon");
  std::string known = flags.KnownFlagList();
  EXPECT_EQ(known, "--rounds, --eps");
  EXPECT_EQ(FlagSet("empty").KnownFlagList(), "(none; only --help)");
}

TEST(FlagSet, RejectsBadValue) {
  int64_t rounds = 10;
  FlagSet flags("test");
  flags.AddInt64("rounds", &rounds, "rounds");
  const char* argv[] = {"test", "--rounds=ten"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, HelpReturnsFalse) {
  FlagSet flags("test");
  const char* argv[] = {"test", "--help"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, DefaultsSurviveEmptyArgv) {
  int64_t rounds = 7;
  FlagSet flags("test");
  flags.AddInt64("rounds", &rounds, "rounds");
  const char* argv[] = {"test"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(rounds, 7);
}

TEST(FlagSet, UsageListsFlagsAndDefaults) {
  int64_t rounds = 7;
  FlagSet flags("prog");
  flags.AddInt64("rounds", &rounds, "number of rounds");
  std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--rounds"), std::string::npos);
  EXPECT_NE(usage.find("7"), std::string::npos);
  EXPECT_NE(usage.find("number of rounds"), std::string::npos);
}

// ---------------------------------------------------------------- printer

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "2.5"});
  std::ostringstream os;
  table.Print(os);
  std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

// ---------------------------------------------------------------- csv

TEST(CsvWriter, WritesHeaderAndEscapes) {
  std::string path = testing::TempDir() + "/pdm_csv_test.csv";
  {
    CsvWriter writer(path, {"a", "b"});
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"1", "has,comma"});
    writer.WriteRow({"2", "has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, EmptyPathIsInactive) {
  CsvWriter writer("", {"a"});
  EXPECT_FALSE(writer.ok());
  writer.WriteRow({"1"});  // must not crash
}

// ---------------------------------------------------------------- memory

TEST(Memory, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0);
  EXPECT_GT(CurrentRssMiB(), 0.0);
}

// --------------------------------------------------------------- histogram

TEST(LatencyHistogram, EmptyReportsZeros) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.Quantile(0.5), 0u);
  EXPECT_EQ(hist.Quantile(1.0), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Below 2^kSubBucketBits every bucket is one nanosecond wide: the
  // histogram is lossless there and quantiles are exact order statistics.
  LatencyHistogram hist;
  for (uint64_t v : {5u, 1u, 9u, 3u, 7u}) hist.Record(v);
  EXPECT_EQ(hist.count(), 5);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 9u);
  EXPECT_EQ(hist.mean(), 5.0);
  EXPECT_EQ(hist.Quantile(0.0), 1u);
  EXPECT_EQ(hist.Quantile(0.2), 1u);
  EXPECT_EQ(hist.Quantile(0.5), 5u);
  EXPECT_EQ(hist.Quantile(1.0), 9u);
}

TEST(LatencyHistogram, QuantileRelativeErrorIsBounded) {
  // Across magnitudes the bucket floor may undershoot the true value, but
  // never by more than 2^-kSubBucketBits of it (the log-linear contract).
  const double kResolution =
      1.0 / static_cast<double>(LatencyHistogram::kSubBuckets);
  for (uint64_t value : {100u, 1000u, 123456u, 7654321u, 987654321u}) {
    LatencyHistogram hist;
    hist.Record(value);
    uint64_t reported = hist.Quantile(0.5);
    EXPECT_LE(reported, value);
    EXPECT_GE(static_cast<double>(reported),
              static_cast<double>(value) * (1.0 - kResolution))
        << "value " << value;
    // min/max stay exact even when the bucket floor truncates.
    EXPECT_EQ(hist.min(), value);
    EXPECT_EQ(hist.max(), value);
  }
}

TEST(LatencyHistogram, OversizedSamplesClampToTopBucket) {
  LatencyHistogram hist;
  hist.Record(LatencyHistogram::kMaxValue);
  hist.Record(~uint64_t{0});  // clamps into the top bucket
  EXPECT_EQ(hist.count(), 2);
  // Interior quantiles come from the (clamped) top bucket; the extremes
  // report the exact tracked values, clamping notwithstanding.
  EXPECT_LE(hist.Quantile(0.5), LatencyHistogram::kMaxValue);
  EXPECT_GT(hist.Quantile(0.5), LatencyHistogram::kMaxValue / 2);
  EXPECT_EQ(hist.Quantile(1.0), ~uint64_t{0});
  EXPECT_EQ(hist.min(), LatencyHistogram::kMaxValue);
  EXPECT_EQ(hist.max(), ~uint64_t{0});
}

TEST(LatencyHistogram, MergeMatchesRecordingEverythingInOne) {
  LatencyHistogram a, b, whole;
  for (uint64_t v = 1; v <= 2000; ++v) {
    (v % 3 == 0 ? a : b).Record(v * 17);
    whole.Record(v * 17);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  EXPECT_EQ(a.mean(), whole.mean());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------- parallel

TEST(ParallelFor, RunsEveryIndexOnceOnEveryThreadCount) {
  for (int threads : {1, 2, 3, 8}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{5}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(count);
      ParallelFor(count, threads, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, EachWorkerOwnsOneState) {
  // Every index records the state object it ran with: at most `threads`
  // distinct states, and a state is never shared by two workers at once.
  struct State {
    std::atomic<int> busy{0};
  };
  const size_t count = 64;
  std::vector<const State*> used(count, nullptr);
  std::atomic<bool> overlapped{false};
  ParallelFor<State>(count, 3, [&](size_t i, State* state) {
    if (state->busy.fetch_add(1) != 0) overlapped = true;
    used[i] = state;
    state->busy.fetch_sub(1);
  });
  EXPECT_FALSE(overlapped.load());
  std::sort(used.begin(), used.end());
  EXPECT_NE(used.front(), nullptr);
  EXPECT_LE(std::unique(used.begin(), used.end()) - used.begin(), 3);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexAfterTheRest) {
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(40);
    try {
      ParallelFor(hits.size(), threads, [&](size_t i) {
        hits[i].fetch_add(1);
        if (i == 7 || i == 31) throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "no exception, threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 7") << "threads=" << threads;
    }
    // With several workers the indices after the failure still ran.
    if (threads > 1) {
      for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
    }
  }
}

// ---------------------------------------------------------------- crc32

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), independent of the
/// library's tables.
uint32_t BitwiseCrc32(const unsigned char* p, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.NextUint64(256));
  return bytes;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32, MatchesABitwiseReferenceAtEveryLengthAndAlignment) {
  // 8671 bytes is a dim-32 cold-tier spill; the start offsets put the
  // 8-byte steps on every alignment and the lengths cover every tail.
  const std::vector<unsigned char> bytes = RandomBytes(8671 + 8, 5);
  std::vector<size_t> lengths(65);
  for (size_t len = 0; len < lengths.size(); ++len) lengths[len] = len;
  lengths.push_back(8671);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len : lengths) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(0, p, len), BitwiseCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalRandomSplitsMatchOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(8671, 9);
  const uint32_t whole = BitwiseCrc32(bytes.data(), bytes.size());
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t crc = 0;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t chunk =
          std::min<size_t>(bytes.size() - at, rng.NextUint64(trial % 2 == 0 ? 24 : 2048));
      crc = Crc32(crc, bytes.data() + at, chunk);
      at += chunk;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

// ---------------------------------------------------------------- umbrella

TEST(Umbrella, VersionIsCoherent) {
  EXPECT_EQ(std::string(kVersionString),
            std::to_string(kVersionMajor) + "." + std::to_string(kVersionMinor) + "." +
                std::to_string(kVersionPatch));
}

}  // namespace
}  // namespace pdm
