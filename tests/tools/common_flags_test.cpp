// Failure-path tests for the shared tool flag plumbing: a bad output path
// must fail eagerly (before any scheduling work) with a message naming the
// path, and --metrics-format must reject unknown formats.
#include "common_flags.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace datastage::toolflags {
namespace {

CliFlags parse(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"tool"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  CliFlags flags;
  EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data(),
                          with_common_flags()));
  return flags;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CommonFlagsTest, OpenOutputFileFailsOnMissingDirectory) {
  std::ofstream out;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(open_output_file(out, "/nonexistent-dir/deep/file.json", "metrics file"));
  const std::string message = ::testing::internal::GetCapturedStderr();
  // The message must name both the role and the exact path the user typed.
  EXPECT_NE(message.find("metrics file"), std::string::npos) << message;
  EXPECT_NE(message.find("/nonexistent-dir/deep/file.json"), std::string::npos)
      << message;
}

TEST(CommonFlagsTest, OpenOutputFileSucceedsOnWritablePath) {
  const std::string path = ::testing::TempDir() + "common_flags_ok.txt";
  std::ofstream out;
  ASSERT_TRUE(open_output_file(out, path, "test file"));
  out << "ok";
  out.close();
  EXPECT_EQ(slurp(path), "ok");
  std::remove(path.c_str());
}

TEST(CommonFlagsTest, ObservabilityOpenFailsEagerlyOnBadMetricsPath) {
  CliFlags flags = parse({"--metrics-out=/nonexistent-dir/m.json"});
  Observability obs;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(obs.open(flags));
  const std::string message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(message.find("/nonexistent-dir/m.json"), std::string::npos) << message;
}

TEST(CommonFlagsTest, ObservabilityOpenFailsEagerlyOnBadTracePath) {
  CliFlags flags = parse({"--trace-out=/nonexistent-dir/t.jsonl"});
  Observability obs;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(obs.open(flags));
  const std::string message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(message.find("/nonexistent-dir/t.jsonl"), std::string::npos) << message;
}

TEST(CommonFlagsTest, UnknownMetricsFormatIsRejected) {
  CliFlags flags = parse({"--metrics-format=xml"});
  Observability obs;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(obs.open(flags));
  const std::string message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(message.find("xml"), std::string::npos) << message;
}

TEST(CommonFlagsTest, InactiveWithoutFlagsAndObserverIsNull) {
  CliFlags flags = parse({});
  Observability obs;
  ASSERT_TRUE(obs.open(flags));
  EXPECT_FALSE(obs.active());
  EXPECT_EQ(obs.observer(), nullptr);
  EXPECT_EQ(obs.phases(), nullptr);
  EXPECT_TRUE(obs.write_metrics());  // no-op without --metrics-out
}

TEST(CommonFlagsTest, WritesOpenMetricsWhenRequested) {
  const std::string path = ::testing::TempDir() + "common_flags_metrics.om";
  CliFlags flags =
      parse({"--metrics-out=" + path, "--metrics-format=openmetrics"});
  Observability obs;
  ASSERT_TRUE(obs.open(flags));
  EXPECT_TRUE(obs.active());
  ASSERT_NE(obs.observer(), nullptr);
  obs.registry().counter("test.counter").inc(2);
  ASSERT_TRUE(obs.write_metrics());

  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("datastage_test_counter_total 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("# EOF"), std::string::npos) << doc;
  std::remove(path.c_str());
}

TEST(CommonFlagsTest, WritesJsonByDefault) {
  const std::string path = ::testing::TempDir() + "common_flags_metrics.json";
  CliFlags flags = parse({"--metrics-out=" + path});
  Observability obs;
  ASSERT_TRUE(obs.open(flags));
  obs.registry().counter("test.counter").inc(2);
  ASSERT_TRUE(obs.write_metrics());
  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"test.counter\":2"), std::string::npos) << doc;
  std::remove(path.c_str());
}

TEST(CommonFlagsTest, ObservabilityOpenFailsEagerlyOnBadChromeTracePath) {
  CliFlags flags = parse({"--chrome-trace-out=/nonexistent/dir/trace.json"});
  Observability obs;
  EXPECT_FALSE(obs.open(flags));
}

TEST(CommonFlagsTest, MakeEngineOptionsDefaultsToMidAxis) {
  CliFlags flags = parse({});
  Observability obs;
  ASSERT_TRUE(obs.open(flags));
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  const EngineOptions options = make_engine_options(flags, weighting, obs);

  // The paper's mid-axis default: W_E/W_U = 10^1. No flags, no observer.
  const EUWeights mid = EUWeights::from_log10_ratio(1.0);
  EXPECT_EQ(options.eu.we, mid.we);
  EXPECT_EQ(options.eu.wu, mid.wu);
  EXPECT_FALSE(options.paranoid);
  EXPECT_EQ(options.engine_jobs, 1u);
  EXPECT_EQ(options.observer, nullptr);
  EXPECT_EQ(options.weighting.weight(kPriorityHigh), 100.0);
}

TEST(CommonFlagsTest, EngineJobsIsNotASharedFlag) {
  // Only tools that build their engines from make_engine_options register
  // --engine-jobs; the shared set rejects it.
  const std::vector<const char*> argv = {"tool", "--engine-jobs=8"};
  CliFlags flags;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data(),
                           with_common_flags()));
  ::testing::internal::GetCapturedStderr();
}

TEST(CommonFlagsTest, MakeEngineOptionsCarriesEngineJobs) {
  const std::vector<const char*> argv = {"tool", "--engine-jobs=8"};
  CliFlags flags;
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data(),
                          with_common_flags({"engine-jobs"})));
  Observability obs;
  ASSERT_TRUE(obs.open(flags));
  const EngineOptions options =
      make_engine_options(flags, PriorityWeighting::w_1_10_100(), obs);
  EXPECT_EQ(options.engine_jobs, 8u);
  EXPECT_EQ(options.engine_pool, nullptr);
  // A default-constructed EngineOptions stays serial: no flag reaches it.
  EXPECT_EQ(EngineOptions{}.engine_jobs, 1u);
}

TEST(CommonFlagsTest, MakeEngineOptionsWiresRatioParanoidAndObserver) {
  const std::string path = ::testing::TempDir() + "common_flags_engine.json";
  const std::string metrics_flag = "--metrics-out=" + path;
  const std::vector<const char*> argv = {"tool", "--ratio=2", "--paranoid",
                                         metrics_flag.c_str()};
  CliFlags flags;
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data(),
                          with_common_flags({"ratio"})));
  Observability obs;
  ASSERT_TRUE(obs.open(flags));
  const PriorityWeighting weighting = PriorityWeighting::w_1_5_10();
  const EngineOptions options = make_engine_options(flags, weighting, obs);

  const EUWeights scaled = EUWeights::from_log10_ratio(2.0);
  EXPECT_EQ(options.eu.we, scaled.we);
  EXPECT_EQ(options.eu.wu, scaled.wu);
  EXPECT_TRUE(options.paranoid);
  EXPECT_EQ(options.observer, obs.observer());
  ASSERT_NE(options.observer, nullptr);
  EXPECT_EQ(options.weighting.weight(kPriorityHigh), 10.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datastage::toolflags
