#include "util/flags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace leakdet {
namespace {

/// Owns an argv built from string literals; argv[0] is the program path.
class Argv {
 public:
  Argv(std::initializer_list<const char*> args)
      : storage_(args.begin(), args.end()) {
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, BothValueSyntaxes) {
  Argv args({"bin/tool", "--scale=0.25", "--seed", "7", "--out", "t.jsonl",
             "--name="});
  Flags flags(args.argc(), args.argv());
  EXPECT_DOUBLE_EQ(flags.Double("scale", 0.1), 0.25);
  EXPECT_EQ(flags.Uint("seed", 42), 7u);
  EXPECT_EQ(flags.String("out"), "t.jsonl");
  EXPECT_EQ(flags.String("name", "x"), "");
  EXPECT_TRUE(flags.Problems().empty());
}

TEST(FlagsTest, AbsentFlagsTakeTheirDefaults) {
  Argv args({"tool"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.String("schedule", "short-io"), "short-io");
  EXPECT_EQ(flags.Uint("runs", 2), 2u);
  EXPECT_DOUBLE_EQ(flags.Double("rate", 500), 500);
  EXPECT_FALSE(flags.Bool("selfcheck"));
  EXPECT_EQ(flags.UintList("sizes", "100,250"),
            (std::vector<uint64_t>{100, 250}));
  EXPECT_TRUE(flags.Problems().empty());
}

TEST(FlagsTest, NegativeNumberIsAValueNotAFlag) {
  Argv args({"tool", "--skew", "-0.5", "-v"});
  Flags flags(args.argc(), args.argv());
  EXPECT_DOUBLE_EQ(flags.Double("skew", 0.3), -0.5);
  EXPECT_TRUE(flags.Bool("v"));
  EXPECT_TRUE(flags.Problems().empty());
}

TEST(FlagsTest, ShortNameIsTheSameBool) {
  Argv short_form({"tool", "-v"});
  Flags short_flags(short_form.argc(), short_form.argv());
  EXPECT_TRUE(short_flags.Bool("verbose", 'v'));
  EXPECT_TRUE(short_flags.Problems().empty());
  EXPECT_EQ(short_flags.Usage(), "usage: tool [--verbose|-v]");

  Argv long_form({"tool", "--verbose"});
  Flags long_flags(long_form.argc(), long_form.argv());
  EXPECT_TRUE(long_flags.Bool("verbose", 'v'));
  EXPECT_TRUE(long_flags.Problems().empty());
}

TEST(FlagsTest, LastRepeatWins) {
  Argv args({"tool", "--n", "5", "--n=6"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Uint("n", 500), 6u);
  EXPECT_TRUE(flags.Problems().empty());
}

TEST(FlagsTest, BoolFlagDoesNotSwallowAPositional) {
  Argv args({"tool", "--eval", "feed.sigs"});
  Flags flags(args.argc(), args.argv());
  EXPECT_TRUE(flags.Bool("eval"));
  EXPECT_FALSE(flags.Bool("verify"));
  EXPECT_EQ(flags.Problems(),
            std::vector<std::string>{"unexpected argument 'feed.sigs'"});
}

TEST(FlagsTest, MalformedNumbersAreErrorsAndYieldTheDefault) {
  Argv args({"tool", "--runs=two", "--seed", "7x", "--scale=0.1.2",
             "--records=-3", "--sizes=40,,80", "--selfcheck=1"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Uint("runs", 2), 2u);
  EXPECT_EQ(flags.Uint("seed", 42), 42u);
  EXPECT_DOUBLE_EQ(flags.Double("scale", 0.1), 0.1);
  EXPECT_EQ(flags.Uint("records", 100), 100u);
  EXPECT_TRUE(flags.UintList("sizes", "").empty());
  EXPECT_TRUE(flags.Bool("selfcheck"));
  std::vector<std::string> problems = flags.Problems();
  ASSERT_EQ(problems.size(), 6u);
  EXPECT_EQ(problems[0], "--runs=two: not a non-negative integer");
  EXPECT_EQ(problems[1], "--seed=7x: not a non-negative integer");
  EXPECT_EQ(problems[2], "--scale=0.1.2: not a number");
  EXPECT_EQ(problems[5], "--selfcheck=1: a bool flag takes no value");
}

TEST(FlagsTest, ValueAboveMaxIsAnError) {
  Argv args({"tool", "--port=65535", "--admin-port=65616"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Uint("port", 0, 65535), 65535u);
  EXPECT_EQ(flags.Uint("admin-port", 0, 65535), 0u);
  EXPECT_EQ(flags.Problems(),
            std::vector<std::string>{"--admin-port=65616: above 65535"});
}

TEST(FlagsTest, ValueFlagWithoutAValueIsAnError) {
  Argv args({"tool", "--out", "--selfcheck"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.String("out", "x.json"), "x.json");
  EXPECT_TRUE(flags.Bool("selfcheck"));
  EXPECT_EQ(flags.Problems(),
            std::vector<std::string>{"--out needs a value"});
}

TEST(FlagsTest, UnreadFlagIsAnError) {
  Argv args({"leakdet", "generate", "--out", "t.jsonl", "--scael", "0.01"});
  Flags flags(args.argc(), args.argv(), 2);
  EXPECT_EQ(flags.String("out"), "t.jsonl");
  EXPECT_DOUBLE_EQ(flags.Double("scale", 0.1), 0.1);
  // The unread flag's value is reported too: nothing took it.
  EXPECT_EQ(flags.Problems(),
            (std::vector<std::string>{"unknown flag --scael",
                                      "unexpected argument '0.01'"}));
}

TEST(FlagsTest, HasDoesNotCountAsARead) {
  Argv args({"tool", "--admin-port=0"});
  Flags flags(args.argc(), args.argv());
  EXPECT_TRUE(flags.Has("admin-port"));
  EXPECT_FALSE(flags.Has("port"));
  EXPECT_EQ(flags.Problems().size(), 1u);
  EXPECT_EQ(flags.Uint("admin-port", 0), 0u);
  EXPECT_TRUE(flags.Problems().empty());
}

TEST(FlagsTest, StrayPositionalIsAnError) {
  Argv args({"tool", "extra", "--seed=1"});
  Flags flags(args.argc(), args.argv());
  flags.Uint("seed", 42);
  EXPECT_EQ(flags.Problems(),
            std::vector<std::string>{"unexpected argument 'extra'"});
}

TEST(FlagsTest, CallerErrorsAreReported) {
  Argv args({"tool", "--runs=0"});
  Flags flags(args.argc(), args.argv());
  if (flags.Uint("runs", 2) == 0) flags.Error("--runs must be positive");
  EXPECT_EQ(flags.Problems(),
            std::vector<std::string>{"--runs must be positive"});
}

TEST(FlagsTest, UsageListsEveryReadWithItsDefault) {
  Argv args({"/build/tools/leakdet", "sign"});
  Flags flags(args.argc(), args.argv(), 2);
  flags.String("out");
  flags.Uint("n", 500);
  flags.Double("cut", 2.0);
  flags.Bool("bayes");
  flags.Uint("n", 1);  // a second read adds no second entry
  EXPECT_EQ(flags.Usage(),
            "usage: leakdet sign [--out=VALUE] [--n=500] [--cut=2] [--bayes]");
}

TEST(FlagsTest, UsageWrapsLongLines) {
  Argv args({"tool"});
  Flags flags(args.argc(), args.argv());
  for (const char* name : {"alpha-flag", "bravo-flag", "charlie-flag",
                           "delta-flag", "echo-flag", "foxtrot-flag"}) {
    flags.Uint(name, 1000000);
  }
  std::string usage = flags.Usage();
  size_t newline = usage.find('\n');
  ASSERT_NE(newline, std::string::npos);
  EXPECT_LE(newline, 79u);
  EXPECT_EQ(usage.substr(newline, 3), "\n  ");
}

TEST(FlagsDeathTest, FinishExitsTwoWithProblemsAndUsage) {
  Argv args({"tool", "--runs=two"});
  Flags flags(args.argc(), args.argv());
  flags.Uint("runs", 2);
  EXPECT_EXIT(flags.Finish(), testing::ExitedWithCode(2),
              "tool: --runs=two: not a non-negative integer\n"
              "usage: tool \\[--runs=2\\]");
}

TEST(FlagsTest, FinishReturnsWhenClean) {
  Argv args({"tool", "--runs", "3"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Uint("runs", 2), 3u);
  flags.Finish();
}

}  // namespace
}  // namespace leakdet
