// Unit tests for the support substrate: RNG, statistics, tables, options,
// deadlines.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "support/deadline.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace speckle::support;

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, Mix64MatchesSplitMixFirstDraw) {
  SplitMix64 sm(123456);
  EXPECT_EQ(mix64(123456), sm.next());
}

TEST(Rng, XoshiroDeterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Xoshiro256 rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NextRangeInclusive) {
  Xoshiro256 rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, RandomPermutationIsPermutation) {
  const auto perm = random_permutation(257, 99);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257U);
  EXPECT_EQ(*seen.begin(), 0U);
  EXPECT_EQ(*seen.rbegin(), 256U);
}

TEST(Rng, ShuffleKeepsMultiset) {
  std::vector<int> values = {1, 2, 2, 3, 5, 8};
  auto sorted = values;
  Xoshiro256 rng(1);
  shuffle(values, rng);
  std::sort(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(values, sorted);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> values = {1, 2, 3, 4};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 4U);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.variance, 1.25);  // population variance
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, WelfordMatchesDirect) {
  Xoshiro256 rng(21);
  std::vector<double> values;
  Accumulator acc;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100;
    values.push_back(v);
    acc.add(v);
  }
  const Summary direct = summarize(values);
  const Summary streaming = acc.summary();
  EXPECT_NEAR(direct.mean, streaming.mean, 1e-9);
  EXPECT_NEAR(direct.variance, streaming.variance, 1e-6);
}

TEST(Stats, GeomeanOfRatios) {
  const std::vector<double> values = {2.0, 8.0};
  EXPECT_NEAR(geomean(values), 4.0, 1e-12);
  EXPECT_NEAR(geomean(std::vector<double>{5.0}), 5.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 25.0);
}

TEST(Table, AlignsColumnsAndCounts) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell_u64(10);
  t.row().cell("b").cell_f(1.5, 1);
  EXPECT_EQ(t.row_count(), 2U);
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell("x").cell_ratio(2.0, 1);
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b\nx,2.0x\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_si(1500.0, 1), "1.5K");
  EXPECT_EQ(format_si(2.5e6, 1), "2.5M");
  EXPECT_EQ(format_si(3.0e9, 0), "3G");
}

TEST(Options, ParsesKeysFlagsPositional) {
  const char* argv[] = {"prog", "--n=42", "--flag", "pos1", "--rate=2.5"};
  Options opts(5, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("n", 0), 42);
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(opts.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(opts.positional().size(), 1U);
  EXPECT_EQ(opts.positional()[0], "pos1");
  EXPECT_EQ(opts.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(opts.has("n"));
  EXPECT_FALSE(opts.has("missing"));
}

TEST(OptionsDeathTest, RejectsUnknownKeyOnValidate) {
  const char* argv[] = {"prog", "--typo=1"};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_DEATH(opts.validate({"n"}), "unknown option");
}

TEST(OptionsDeathTest, UnknownKeyExitsTwoListingAccepted) {
  const char* argv[] = {"prog", "--help"};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_EXIT(opts.validate({"n", "rate"}), ::testing::ExitedWithCode(2),
              "unknown option --help; accepted: --n --rate");
}

TEST(OptionsDeathTest, RejectsNonIntegerValue) {
  const char* argv[] = {"prog", "--n=abc"};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_EXIT(opts.get_int("n", 0), ::testing::ExitedWithCode(2),
              "option --n: expects an integer, got 'abc'");
  EXPECT_EXIT(opts.get_uint<std::uint32_t>("n", 0), ::testing::ExitedWithCode(2),
              "option --n: expects an integer in \\[0, 4294967295\\], got 'abc'");
}

TEST(Options, UnsignedGetterReadsInRangeValues) {
  const char* argv[] = {"prog", "--n=4294967295", "--seed=18446744073709551615",
                        "--parts=1,4"};
  Options opts(4, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_uint<std::uint32_t>("n", 0), 4294967295U);
  EXPECT_EQ(opts.get_uint<std::uint64_t>("seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(opts.get_uint<std::uint32_t>("missing", 7), 7U);
  EXPECT_EQ(opts.get_uint_list("parts", "2"), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(opts.get_uint_list("missing", "1,2,4"),
            (std::vector<std::uint32_t>{1, 2, 4}));
}

// A negative value must not wrap to a huge unsigned one (--threads=-1 once
// meant 4294967295 host threads).
TEST(OptionsDeathTest, UnsignedRejectsNegativeValue) {
  const char* argv[] = {"prog", "--threads=-1", "--parts=1,-4"};
  Options opts(3, const_cast<char**>(argv));
  EXPECT_EXIT(opts.get_uint<std::uint32_t>("threads", 0), ::testing::ExitedWithCode(2),
              "option --threads: expects an integer in \\[0, 4294967295\\], got '-1'");
  EXPECT_EXIT(opts.get_uint_list("parts", "1"), ::testing::ExitedWithCode(2),
              "option --parts: .* got '-4'");
}

TEST(OptionsDeathTest, UnsignedRejectsOverRangeValue) {
  const char* argv[] = {"prog", "--threads=1025", "--denom=4294967296",
                        "--seed=18446744073709551616"};
  Options opts(4, const_cast<char**>(argv));
  EXPECT_EXIT(opts.get_uint<std::uint32_t>("threads", 0, 1024),
              ::testing::ExitedWithCode(2),
              "option --threads: expects an integer in \\[0, 1024\\], got '1025'");
  EXPECT_EXIT(opts.get_uint<std::uint32_t>("denom", 8), ::testing::ExitedWithCode(2),
              "option --denom: .* got '4294967296'");
  EXPECT_EXIT(opts.get_uint<std::uint64_t>("seed", 1), ::testing::ExitedWithCode(2),
              "option --seed: .* got '18446744073709551616'");
}

TEST(OptionsDeathTest, MalformedSyntaxAndRejectExitTwo) {
  const char* argv[] = {"prog", "--=x"};
  EXPECT_EXIT(Options(2, const_cast<char**>(argv)), ::testing::ExitedWithCode(2),
              "empty option name in '--=x'");
  EXPECT_EXIT(Options::reject("scheme", "unknown scheme 'nope'; accepted: D-ldg"),
              ::testing::ExitedWithCode(2),
              "option --scheme: unknown scheme 'nope'; accepted: D-ldg");
}

TEST(Deadline, UnarmedCheckNeverThrows) {
  EXPECT_NO_THROW(check_deadline());
  const ScopedDeadline off(std::chrono::milliseconds(0));
  EXPECT_NO_THROW(check_deadline());
}

TEST(Deadline, ExpiredDeadlineThrows) {
  const ScopedDeadline expired(DeadlineClock::time_point{});
  EXPECT_THROW(check_deadline(), DeadlineExceeded);
}

TEST(Deadline, LeavingTheScopeDisarms) {
  {
    const ScopedDeadline expired(DeadlineClock::now());
    EXPECT_THROW(check_deadline(), DeadlineExceeded);
  }
  EXPECT_NO_THROW(check_deadline());
}

}  // namespace
