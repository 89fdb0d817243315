#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace dsi::common {
namespace {

/// Every target type, registered over fresh defaults.
struct Targets {
  bool real = false;
  int order = 6;
  uint32_t n = 500;
  uint64_t seed = 42;
  double theta = 0.25;
  std::string out = "x.json";
  Flags flags;

  Targets() {
    flags.Add("real", &real, "switch");
    flags.Add("order", &order, "signed");
    flags.Add("n", &n, "uint32");
    flags.Add("seed", &seed, "uint64");
    flags.Add("theta", &theta, "double");
    flags.Add("out", &out, "string");
  }

  bool Parse(std::vector<std::string> args, std::string* error) {
    args.insert(args.begin(), "/path/to/prog");
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    return flags.TryParse(static_cast<int>(argv.size()), argv.data(), error);
  }
};

TEST(FlagsTest, DefaultsSurviveAnEmptyCommandLine) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({}, &error));
  EXPECT_FALSE(t.real);
  EXPECT_EQ(t.n, 500u);
  EXPECT_EQ(t.seed, 42u);
  EXPECT_EQ(t.out, "x.json");
  EXPECT_FALSE(t.flags.help());
}

TEST(FlagsTest, EveryTypeParses) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--real", "--order=-3", "--n=4294967295",
                       "--seed=18446744073709551615", "--theta=0.5",
                       "--out=a=b"},
                      &error))
      << error;
  EXPECT_TRUE(t.real);
  EXPECT_EQ(t.order, -3);
  EXPECT_EQ(t.n, 4294967295u);
  EXPECT_EQ(t.seed, UINT64_MAX);
  EXPECT_EQ(t.theta, 0.5);
  EXPECT_EQ(t.out, "a=b");
}

TEST(FlagsTest, UnknownFlagIsAnError) {
  for (const char* arg : {"--no-such-flag", "--quries=5", "-n=5", "5",
                          "--N=5", "--n5"}) {
    Targets t;
    std::string error;
    EXPECT_FALSE(t.Parse({arg}, &error)) << arg;
    EXPECT_NE(error.find(arg), std::string::npos) << error;
  }
}

TEST(FlagsTest, MalformedNumbersAreErrors) {
  for (const char* arg :
       {"--n=", "--n=abc", "--n=1x0", "--n= 5", "--n=5.0", "--n", "--seed=",
        "--seed=abc", "--seed=1x0", "--order=", "--order=abc", "--order=1x0",
        "--theta=", "--theta=abc", "--theta=1x0", "--theta"}) {
    Targets t;
    std::string error;
    EXPECT_FALSE(t.Parse({arg}, &error)) << arg;
    EXPECT_NE(error.find(arg), std::string::npos) << error;
  }
}

TEST(FlagsTest, NegativeValueForUnsignedFlagIsAnError) {
  for (const char* arg : {"--n=-5", "--seed=-5", "--n=-0"}) {
    Targets t;
    std::string error;
    EXPECT_FALSE(t.Parse({arg}, &error)) << arg;
    EXPECT_EQ(t.n, 500u);
    EXPECT_EQ(t.seed, 42u);
  }
}

TEST(FlagsTest, OutOfRangeValueIsAnError) {
  for (const char* arg :
       {"--n=4294967296", "--seed=18446744073709551616",
        "--order=2147483648", "--theta=1e999"}) {
    Targets t;
    std::string error;
    EXPECT_FALSE(t.Parse({arg}, &error)) << arg;
    EXPECT_EQ(t.n, 500u) << "a rejected value must not reach its target";
  }
}

TEST(FlagsTest, BoolIsBareOrZeroOrOne) {
  {
    Targets t;
    std::string error;
    ASSERT_TRUE(t.Parse({"--real"}, &error));
    EXPECT_TRUE(t.real);
    ASSERT_TRUE(t.Parse({"--real=0"}, &error));
    EXPECT_FALSE(t.real);
    ASSERT_TRUE(t.Parse({"--real=1"}, &error));
    EXPECT_TRUE(t.real);
  }
  for (const char* arg : {"--real=", "--real=2", "--real=true", "--real=yes"}) {
    Targets t;
    std::string error;
    EXPECT_FALSE(t.Parse({arg}, &error)) << arg;
  }
}

TEST(FlagsTest, StringTakesAnyValueButNeedsTheEquals) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--out="}, &error));
  EXPECT_EQ(t.out, "");
  EXPECT_FALSE(t.Parse({"--out"}, &error));
}

TEST(FlagsTest, LastOccurrenceWins) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--n=1", "--n=2", "--out=a", "--out=b"}, &error));
  EXPECT_EQ(t.n, 2u);
  EXPECT_EQ(t.out, "b");
}

TEST(FlagsTest, SeenReportsOnlyGivenFlags) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--theta=0.25", "--real=0"}, &error));
  EXPECT_TRUE(t.flags.Seen("theta"));  // given at its default value
  EXPECT_TRUE(t.flags.Seen("real"));   // given as off
  EXPECT_FALSE(t.flags.Seen("n"));
  EXPECT_FALSE(t.flags.Seen("no-such-flag"));
}

TEST(FlagsTest, HelpStopsParsingAndListsEveryFlagWithItsDefault) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--n=7", "--help", "--no-such-flag"}, &error));
  EXPECT_TRUE(t.flags.help());
  EXPECT_EQ(t.n, 7u);
  const std::string usage = t.flags.Usage();
  EXPECT_EQ(usage.rfind("usage: prog ", 0), 0u) << usage;
  for (const char* line : {"--real", "--order", "; default 6", "--n",
                           "; default 500", "--seed", "; default 42",
                           "--theta", "; default 0.25", "--out",
                           "; default x.json", "--help"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

TEST(FlagsDeathTest, ParseExitsZeroOnHelpAndUsageCodeOnError) {
  const char* help[] = {"prog", "--help"};
  EXPECT_EXIT(Targets().flags.Parse(2, help), ::testing::ExitedWithCode(0),
              "");
  const char* unknown[] = {"prog", "--no-such-flag"};
  EXPECT_EXIT(Targets().flags.Parse(2, unknown),
              ::testing::ExitedWithCode(2), "unknown flag --no-such-flag");
  const char* malformed[] = {"prog", "--n=abc"};
  EXPECT_EXIT(Targets().flags.Parse(2, malformed, /*usage_exit=*/1),
              ::testing::ExitedWithCode(1), "--n=abc");
}

}  // namespace
}  // namespace dsi::common
