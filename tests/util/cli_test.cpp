#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace datastage {
namespace {

bool parse(CliFlags& flags, std::vector<const char*> argv,
           std::vector<std::string> known) {
  argv.insert(argv.begin(), "prog");
  return flags.parse(static_cast<int>(argv.size()), argv.data(), known);
}

TEST(CliFlagsTest, EqualsSyntax) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--cases=12", "--name=hello"}, {"cases", "name"}));
  EXPECT_EQ(flags.get_int("cases", 0), 12);
  EXPECT_EQ(flags.get_string("name", ""), "hello");
}

// A bare boolean never takes the next token as its value: this is how
// `datastage_benchdiff --warn-only BASE NEW` must parse.
TEST(CliFlagsTest, BareBooleanBeforePositionalsKeepsThem) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--warn-only", "a.json", "b.json"}, {"warn-only"}));
  EXPECT_TRUE(flags.get_bool("warn-only", false));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "a.json");
  EXPECT_EQ(flags.positional()[1], "b.json");
}

TEST(CliFlagsTest, BareBooleanFlag) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--verbose"}, {"verbose"}));
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.has("verbose"));
  EXPECT_FALSE(flags.has("other"));
}

TEST(CliFlagsTest, BooleanBeforeAnotherFlagStaysBoolean) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--verbose", "--cases=3"}, {"verbose", "cases"}));
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("cases", 0), 3);
}

TEST(CliFlagsTest, UnknownFlagFails) {
  CliFlags flags;
  EXPECT_FALSE(parse(flags, {"--bogus=1"}, {"cases"}));
}

TEST(CliFlagsTest, PositionalArguments) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"input.txt", "--cases=1", "more"}, {"cases"}));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST(CliFlagsTest, FallbacksWhenAbsent) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {}, {"cases"}));
  EXPECT_EQ(flags.get_int("cases", 42), 42);
  EXPECT_EQ(flags.get_string("cases", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.get_double("cases", 1.5), 1.5);
  EXPECT_TRUE(flags.get_bool("cases", true));
}

TEST(CliFlagsTest, DoubleParsing) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--ratio=-2.5"}, {"ratio"}));
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), -2.5);
}

TEST(CliFlagsTest, IntParsingAcceptsFullRange) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags,
                    {"--lo=-9223372036854775808", "--hi=9223372036854775807", "--z=0"},
                    {"lo", "hi", "z"}));
  EXPECT_EQ(flags.get_int("lo", 0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(flags.get_int("hi", 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(flags.get_int("z", 7), 0);
}

TEST(CliFlagsDeathTest, TrailingJunkOnIntExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--jobs=8x"}, {"jobs"}));
  EXPECT_EXIT(flags.get_int("jobs", 1), testing::ExitedWithCode(2),
              "invalid value for --jobs: '8x' \\(expected an integer\\)");
}

TEST(CliFlagsDeathTest, NonNumericIntExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--seed=abc"}, {"seed"}));
  EXPECT_EXIT(flags.get_int("seed", 0), testing::ExitedWithCode(2),
              "invalid value for --seed: 'abc' \\(expected an integer\\)");
}

TEST(CliFlagsDeathTest, ValuelessNumericFlagExits) {
  // `--cases` with no value parses as boolean "true", which is not a number.
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--cases"}, {"cases"}));
  EXPECT_EXIT(flags.get_int("cases", 3), testing::ExitedWithCode(2),
              "invalid value for --cases: 'true' \\(expected an integer\\)");
}

TEST(CliFlagsDeathTest, IntOverflowExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--cases=99999999999999999999"}, {"cases"}));
  EXPECT_EXIT(flags.get_int("cases", 0), testing::ExitedWithCode(2),
              "invalid value for --cases: '99999999999999999999' "
              "\\(out of range for an integer\\)");
}

TEST(CliFlagsDeathTest, FloatValueForIntExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--jobs=2.5"}, {"jobs"}));
  EXPECT_EXIT(flags.get_int("jobs", 1), testing::ExitedWithCode(2),
              "expected an integer");
}

TEST(CliFlagsDeathTest, TrailingJunkOnDoubleExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--ratio=1.5e"}, {"ratio"}));
  EXPECT_EXIT(flags.get_double("ratio", 0.0), testing::ExitedWithCode(2),
              "invalid value for --ratio: '1.5e' \\(expected a number\\)");
}

TEST(CliFlagsDeathTest, NonNumericDoubleExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--ratio=fast"}, {"ratio"}));
  EXPECT_EXIT(flags.get_double("ratio", 0.0), testing::ExitedWithCode(2),
              "invalid value for --ratio: 'fast' \\(expected a number\\)");
}

TEST(CliFlagsDeathTest, DoubleOverflowExits) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--ratio=1e999"}, {"ratio"}));
  EXPECT_EXIT(flags.get_double("ratio", 0.0), testing::ExitedWithCode(2),
              "out of range for a number");
}

TEST(CliFlagsDeathTest, LeadingWhitespaceRejected) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--cases= 5"}, {"cases"}));
  EXPECT_EXIT(flags.get_int("cases", 0), testing::ExitedWithCode(2),
              "expected an integer");
}

TEST(CliFlagsTest, BoolValueVariants) {
  CliFlags flags;
  ASSERT_TRUE(parse(flags, {"--a=true", "--b=1", "--c=yes", "--d=no"},
                    {"a", "b", "c", "d"}));
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

}  // namespace
}  // namespace datastage
