// Tests for the strict flag parser shared by rdp_cli and the bench/example
// binaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace rdp {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, EqualsForm) {
  Args a = make({"prog", "--alpha=1.5", "--m=8"});
  EXPECT_DOUBLE_EQ(a.real("alpha", 0.0, "alpha"), 1.5);
  EXPECT_EQ(a.integer<std::int64_t>("m", 0, 0, "machines"), 8);
  EXPECT_FALSE(a.finish());
}

TEST(Args, SpaceForm) {
  Args a = make({"prog", "--alpha", "2.0", "--m", "-3"});
  EXPECT_DOUBLE_EQ(a.real("alpha", 0.0, "alpha"), 2.0);
  EXPECT_EQ(a.integer<int>("m", 0, -5, "offset"), -3);
  EXPECT_FALSE(a.finish());
}

TEST(Args, BooleanSwitch) {
  Args a = make({"prog", "--verbose", "--quiet=false"});
  EXPECT_TRUE(a.toggle("verbose", "talk more"));
  EXPECT_FALSE(a.toggle("quiet", "talk less"));
  EXPECT_FALSE(a.toggle("absent", "never given"));
  EXPECT_FALSE(a.finish());
}

TEST(Args, SwitchNeverTakesNextToken) {
  Args a = make({"prog", "--csv", "out.csv"});
  EXPECT_TRUE(a.toggle("csv", "CSV output"));
  EXPECT_THROW(a.finish(), std::invalid_argument);  // out.csv is a stray positional
}

TEST(Args, DefaultsWhenMissing) {
  Args a = make({"prog"});
  EXPECT_DOUBLE_EQ(a.real("alpha", 1.25, "alpha"), 1.25);
  EXPECT_EQ(a.text("name", "x", "name"), "x");
  EXPECT_EQ(a.integer<std::size_t>("n", 7, 1, "tasks"), 7u);
  EXPECT_FALSE(a.maybe_real("duration", "window").has_value());
  EXPECT_FALSE(a.given("alpha"));
  EXPECT_FALSE(a.finish());
}

TEST(Args, Positionals) {
  Args a = make({"prog", "input.csv", "--k=2", "more"});
  EXPECT_EQ(a.integer<int>("k", 0, 0, "k"), 2);
  const std::vector<std::string> pos = a.positionals("FILE", "inputs");
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], "input.csv");
  EXPECT_EQ(pos[1], "more");
  EXPECT_FALSE(a.finish());
}

TEST(Args, UnexpectedPositionalRejected) {
  Args a = make({"prog", "extra", "--k=2"});
  (void)a.integer<int>("k", 0, 0, "k");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, MalformedNumberThrows) {
  Args a = make({"prog", "--alpha=abc", "--m=abc"});
  EXPECT_DOUBLE_EQ(a.real("alpha", 1.0, "alpha"), 1.0);
  EXPECT_EQ(a.integer<int>("m", 4, 1, "machines"), 4);
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, RealRejectsTrailingJunkNanAndInf) {
  for (const char* bad : {"--alpha=1.5x", "--alpha=nan", "--alpha=inf", "--alpha=-inf",
                          "--alpha="}) {
    Args a = make({"prog", bad});
    (void)a.real("alpha", 1.5, "alpha");
    EXPECT_THROW(a.finish(), std::invalid_argument) << bad;
  }
}

TEST(Args, RealLowerBoundIsExclusive) {
  Args zero = make({"prog", "--rate=0"});
  (void)zero.real("rate", 1.0, "rate", 0.0);
  EXPECT_THROW(zero.finish(), std::invalid_argument);
  Args tiny = make({"prog", "--rate=1e-9"});
  EXPECT_DOUBLE_EQ(tiny.real("rate", 1.0, "rate", 0.0), 1e-9);
  EXPECT_FALSE(tiny.finish());
}

TEST(Args, IntegerRejectsBelowMinimum) {
  Args a = make({"prog", "--trials=-1"});
  EXPECT_EQ(a.integer<std::size_t>("trials", 32, 1, "trials"), 32u);
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, IntegerRejectsOverflow) {
  Args wide = make({"prog", "--n=99999999999999999999"});
  (void)wide.integer<std::int64_t>("n", 1, 0, "n");
  EXPECT_THROW(wide.finish(), std::invalid_argument);
  // In int64 range but past the target type: no silent narrowing.
  Args narrow = make({"prog", "--m=4294967296"});
  (void)narrow.integer<std::uint32_t>("m", 8, 1, "machines");
  EXPECT_THROW(narrow.finish(), std::invalid_argument);
}

TEST(Args, IntegerRejectsTrailingJunk) {
  Args a = make({"prog", "--n=12abc"});
  (void)a.integer<int>("n", 1, 0, "n");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, CommaLists) {
  Args a = make({"prog", "--alphas=1.1,,1.5", "--sizes=10,20"});
  EXPECT_EQ(a.reals("alphas", "2", "alphas"), (std::vector<double>{1.1, 1.5}));
  EXPECT_EQ(a.integers<std::size_t>("sizes", "5", 1, "sizes"),
            (std::vector<std::size_t>{10, 20}));
  EXPECT_EQ(a.reals("deltas", "0.5,2", "deltas"), (std::vector<double>{0.5, 2.0}));
  EXPECT_FALSE(a.finish());
  for (const char* bad : {"--sizes=10,2x", "--sizes=10,0", "--sizes=", "--sizes=,"}) {
    Args b = make({"prog", bad});
    (void)b.integers<std::size_t>("sizes", "5", 1, "sizes");
    EXPECT_THROW(b.finish(), std::invalid_argument) << bad;
  }
}

TEST(Args, MalformedBoolThrows) {
  Args a = make({"prog", "--flag=maybe"});
  (void)a.toggle("flag", "a switch");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, BareDoubleDashRejected) {
  Args a = make({"prog", "--"});
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, UndeclaredFlagRejected) {
  Args a = make({"prog", "--rat=5"});
  (void)a.real("rate", 100.0, "rate");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, DuplicateFlagRejected) {
  Args a = make({"prog", "--seed=1", "--seed=2"});
  (void)a.integer<int>("seed", 1, 0, "seed");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, MissingRequiredRejected) {
  Args a = make({"prog"});
  EXPECT_EQ(a.required("instance", "instance CSV"), "");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, ValueExpectedRejected) {
  Args a = make({"prog", "--out", "--m=2"});
  (void)a.text("out", "", "output");
  (void)a.integer<int>("m", 1, 1, "machines");
  EXPECT_THROW(a.finish(), std::invalid_argument);
}

TEST(Args, StringGetter) {
  Args a = make({"prog", "--mode=fast", "--results="});
  EXPECT_EQ(a.text("mode", "slow", "mode"), "fast");
  EXPECT_EQ(a.text("results", "docs/RESULTS.md", "results"), "");  // empty is kept
  EXPECT_FALSE(a.finish());
}

TEST(Args, DeclaringTwiceIsAProgrammingError) {
  Args a = make({"prog"});
  (void)a.text("mode", "slow", "mode");
  EXPECT_THROW((void)a.text("mode", "slow", "mode"), std::logic_error);
}

TEST(Args, ResolvedListsEveryDeclaredFlag) {
  Args a = make({"prog", "--seed=7", "--csv"});
  (void)a.integer<int>("seed", 1, 0, "seed");
  (void)a.real("alpha", 1.5, "alpha");
  (void)a.toggle("csv", "csv");
  (void)a.text("out", "", "output");
  const std::vector<std::pair<std::string, std::string>> want = {
      {"seed", "7"}, {"alpha", "1.5"}, {"csv", "true"}, {"out", ""}};
  EXPECT_EQ(a.resolved(), want);
}

TEST(Args, HelpListsDeclaredFlagsAndSkipsValidation) {
  Args a = make({"prog", "--help", "--bogus"});
  (void)a.integer<int>("m", 8, 1, "number of machines");
  (void)a.required("instance", "instance CSV");
  testing::internal::CaptureStdout();
  EXPECT_TRUE(a.finish());
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_EQ(help.rfind("usage: prog", 0), 0u) << help;
  EXPECT_NE(help.find("--m=INT"), std::string::npos) << help;
  EXPECT_NE(help.find("number of machines (default: 8)"), std::string::npos) << help;
  EXPECT_NE(help.find("--instance=TEXT"), std::string::npos) << help;
}

}  // namespace
}  // namespace rdp
