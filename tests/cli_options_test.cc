// Unit tests for the shared command-line option layer (tools/cli_options.h)
// factored out of csi_analyze and csi_batch.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cache_env.h"
#include "tools/cli_options.h"

namespace csi::tools {
namespace {

// argv helper: prepends the program name and hands out the char* view gtest
// can pass to Parse.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (const std::string& s : storage_) {
      ptrs_.push_back(s.c_str());
    }
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  const char* const* argv() const { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<const char*> ptrs_;
};

TEST(FlagParserTest, ParsesStringsIntsAndBools) {
  std::string name;
  int count = 0;
  bool verbose = false;
  FlagParser parser;
  parser.AddString("--name", &name);
  parser.AddInt("--count", &count);
  parser.AddBool("--verbose", &verbose);

  const Argv args({"--name", "widget", "--count", "-3", "--verbose"});
  std::string error;
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  EXPECT_EQ(name, "widget");
  EXPECT_EQ(count, -3);
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(parser.help_requested());
}

TEST(FlagParserTest, CollectsPositionalArguments) {
  std::string name;
  FlagParser parser;
  parser.AddString("--name", &name);
  const Argv args({"a.pcap", "--name", "x", "b.pcap"});
  std::vector<std::string> positional;
  std::string error;
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), &positional, &error)) << error;
  EXPECT_EQ(positional, (std::vector<std::string>{"a.pcap", "b.pcap"}));
}

TEST(FlagParserTest, RejectsPositionalWhenNoneExpected) {
  FlagParser parser;
  const Argv args({"stray"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("stray"), std::string::npos);
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  FlagParser parser;
  const Argv args({"--nope"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("--nope"), std::string::npos);
}

TEST(FlagParserTest, RejectsMissingValue) {
  std::string name;
  FlagParser parser;
  parser.AddString("--name", &name);
  const Argv args({"--name"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("--name"), std::string::npos);
}

TEST(FlagParserTest, RejectsMalformedIntegers) {
  int count = 0;
  FlagParser parser;
  parser.AddInt("--count", &count);
  for (const char* bad : {"", "12x", "x12", "99999999999999999999", "1.5"}) {
    const Argv args({"--count", bad});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error))
        << "accepted: " << bad;
  }
}

TEST(FlagParserTest, HelpShortCircuits) {
  std::string name;
  FlagParser parser;
  parser.AddString("--name", &name);
  for (const char* h : {"--help", "-h"}) {
    const Argv args({h, "--name"});  // would otherwise be a missing-value error
    std::string error;
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_TRUE(parser.help_requested());
  }
}

TEST(CommonOptionsTest, RegistersAndValidates) {
  CommonOptions common;
  FlagParser parser;
  common.Register(&parser);
  const Argv args({"--manifest", "m.txt", "--design", "SQ", "--host", "cdn.example",
                   "--metrics-out", "metrics.prom", "--metrics-format", "prom"});
  std::string error;
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  ASSERT_TRUE(common.Validate(&error)) << error;
  EXPECT_EQ(common.manifest_path, "m.txt");
  EXPECT_EQ(common.host_suffix, "cdn.example");
  EXPECT_EQ(common.metrics_format, "prom");
  EXPECT_EQ(common.design(), infer::DesignType::kSQ);
}

TEST(CommonOptionsTest, DbBuildThreadsIsNotACommonFlag) {
  // Only csi_batch has a pool to fan the database build over, so it
  // registers --db-build-threads itself; the shared flags reject it.
  CommonOptions common;
  FlagParser parser;
  common.Register(&parser);
  const Argv args({"--manifest", "m.txt", "--design", "SQ", "--db-build-threads", "4"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("--db-build-threads"), std::string::npos) << error;
}

TEST(CommonOptionsTest, ValidateRejectsBadInputs) {
  std::string error;
  {
    CommonOptions common;  // neither manifest nor design
    EXPECT_FALSE(common.Validate(&error));
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "ZZ";
    EXPECT_FALSE(common.Validate(&error));
    EXPECT_NE(error.find("design"), std::string::npos);
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "CH";
    common.metrics_format = "xml";
    EXPECT_FALSE(common.Validate(&error));
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "CH";
    EXPECT_TRUE(common.Validate(&error)) << error;
  }
}

TEST(CommonOptionsTest, CandidateCacheFlags) {
  std::string error;
  {
    CommonOptions common;
    FlagParser parser;
    common.Register(&parser);
    const Argv args({"--manifest", "m.txt", "--design", "SQ",
                     "--cache-mb", "candidate=128"});
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.candidate.budget_mb, 128);
  }
  {
    // Defaults: cache on at 64 MiB.
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.candidate.budget_mb, 64);
  }
  {
    // A zero budget is the way to disable the tier.
    CommonOptions common;
    FlagParser parser;
    common.Register(&parser);
    const Argv args({"--manifest", "m.txt", "--design", "SQ",
                     "--cache-mb", "candidate=128", "--cache-mb", "candidate=0"});
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.candidate.budget_mb, 0);
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    common.caches.candidate.budget_mb = -1;
    EXPECT_FALSE(common.Validate(&error));
    EXPECT_NE(error.find("--cache-mb candidate"), std::string::npos);
  }
}

TEST(FlagParserTest, KeyedFlagsParseAndReject) {
  int budget = 64;
  FlagParser parser;
  parser.AddKeyedInt("--cache-mb", "prefix", &budget);
  {
    const Argv args({"--cache-mb", "prefix=128"});
    std::string error;
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
    EXPECT_EQ(budget, 128);
  }
  {
    // A keyed value without '=' is a parse error, not a silent default.
    const Argv args({"--cache-mb", "prefix"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_NE(error.find("KEY=VALUE"), std::string::npos);
  }
  {
    const Argv args({"--cache-mb", "nonsense=8"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_NE(error.find("nonsense"), std::string::npos);
  }
  {
    const Argv args({"--cache-mb", "prefix=lots"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_NE(error.find("lots"), std::string::npos);
  }
}

TEST(CommonOptionsTest, UnifiedCacheFlagsCoverAllTiers) {
  std::string error;
  CommonOptions common;
  FlagParser parser;
  common.Register(&parser);
  const Argv args({"--manifest", "m.txt", "--design", "SQ",
                   "--cache-mb", "prefix=8",
                   "--cache-mb", "candidate=16",
                   "--cache-mb", "result=256"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  ASSERT_TRUE(common.Validate(&error)) << error;
  EXPECT_EQ(common.caches.prefix.budget_mb, 8);
  EXPECT_EQ(common.caches.candidate.budget_mb, 16);
  EXPECT_EQ(common.caches.result.budget_mb, 256);
}

TEST(CommonOptionsTest, RemovedCacheSpellingsAreRejected) {
  // --cache-mb <tier>=N is the one cache flag: the per-tier flags and the
  // on/off switch are gone, and each is a parse error rather than a no-op.
  const std::vector<std::vector<std::string>> removed = {
      {"--candidate-cache-mb", "8"},
      {"--prefix-cache", "off"},
      {"--cache", "result=off"},
  };
  for (const std::vector<std::string>& flag : removed) {
    CommonOptions common;
    FlagParser parser;
    common.Register(&parser);
    std::vector<std::string> argv = {"--manifest", "m.txt", "--design", "SQ"};
    argv.insert(argv.end(), flag.begin(), flag.end());
    const Argv args(argv);
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << flag[0];
    EXPECT_NE(error.find("unknown argument: " + flag[0]), std::string::npos) << error;
  }
}

TEST(CommonOptionsTest, ResultCacheFlagsValidate) {
  std::string error;
  {
    // Defaults: result tier on at 64 MiB.
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.result.budget_mb, 64);
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    common.caches.result.budget_mb = -1;
    EXPECT_FALSE(common.Validate(&error));
    EXPECT_NE(error.find("--cache-mb result"), std::string::npos);
  }
}

TEST(CommonOptionsTest, CsiCacheEnvOverridesPerTier) {
  // The unified CSI_CACHE variable disables tiers past whatever the flags
  // say; each cache's EnvForcesOff latches it, so exercise the parser layer
  // directly here (the latch behavior itself is covered per-cache).
  ASSERT_EQ(setenv("CSI_CACHE", "result:off,prefix=off", 1), 0);
  EXPECT_TRUE(CsiCacheEnvDisables("result"));
  EXPECT_TRUE(CsiCacheEnvDisables("prefix"));
  EXPECT_FALSE(CsiCacheEnvDisables("candidate"));
  ASSERT_EQ(setenv("CSI_CACHE", "all:off", 1), 0);
  EXPECT_TRUE(CsiCacheEnvDisables("candidate"));
  ASSERT_EQ(unsetenv("CSI_CACHE"), 0);
  EXPECT_FALSE(CsiCacheEnvDisables("result"));
}

TEST(CommonOptionsTest, ParseDesignNameCoversAllDesigns) {
  infer::DesignType design;
  ASSERT_TRUE(ParseDesignName("CH", &design));
  EXPECT_EQ(design, infer::DesignType::kCH);
  ASSERT_TRUE(ParseDesignName("SH", &design));
  EXPECT_EQ(design, infer::DesignType::kSH);
  ASSERT_TRUE(ParseDesignName("CQ", &design));
  EXPECT_EQ(design, infer::DesignType::kCQ);
  ASSERT_TRUE(ParseDesignName("SQ", &design));
  EXPECT_EQ(design, infer::DesignType::kSQ);
  EXPECT_FALSE(ParseDesignName("ch", &design));
  EXPECT_FALSE(ParseDesignName("", &design));
}

// The breakdown covers analyze's direct children only: nested stages
// (candidate_enum, sequence_chain, group_cache_lookup inside group_search)
// and stages outside analyze (db_build, batch_trace, pool_task) must not be
// counted, and the parts plus "rest" sum to analyze.
TEST(StageBreakdownTest, ReportsDirectChildrenOfAnalyzeOnly) {
  telemetry::MetricsSnapshot snapshot;
  const auto stage = [&snapshot](const std::string& name, double sum) {
    telemetry::HistogramSnapshot h;
    h.name = "csi_stage_duration_seconds";
    h.labels = {{"stage", name}};
    h.count = 1;
    h.sum = sum;
    snapshot.histograms.push_back(h);
  };
  stage("analyze", 10.0);
  stage("flow_classify", 1.0);
  stage("traffic_split", 0.5);
  stage("size_estimate", 0.5);
  stage("group_search", 6.0);
  stage("candidate_enum", 3.0);
  stage("sequence_chain", 2.5);
  stage("group_cache_lookup", 0.25);
  stage("result_cache_lookup", 0.5);
  stage("prefix_cache_lookup", 0.5);
  stage("db_build", 4.0);
  stage("batch_trace", 11.0);
  stage("pool_task", 11.0);
  telemetry::HistogramSnapshot other_metric;
  other_metric.name = "csi_candidates_per_query";
  other_metric.sum = 99.0;
  snapshot.histograms.push_back(other_metric);
  EXPECT_EQ(FormatStageBreakdown(snapshot),
            "stage timing: analyze 10.000s; per-packet 2.000s (20.0%); "
            "search 6.000s (60.0%); cache lookup 1.000s (10.0%); rest 1.000s (10.0%)");
  EXPECT_EQ(FormatStageBreakdown(telemetry::MetricsSnapshot{}), "");
}

// With no session analyzed, stages outside analyze (the database build) still
// have observations; they alone must not produce a timing line.
TEST(StageBreakdownTest, EmptyWhenNothingWasAnalyzed) {
  telemetry::MetricsSnapshot snapshot;
  telemetry::HistogramSnapshot db_build;
  db_build.name = "csi_stage_duration_seconds";
  db_build.labels = {{"stage", "db_build"}};
  db_build.count = 1;
  db_build.sum = 0.25;
  snapshot.histograms.push_back(db_build);
  telemetry::HistogramSnapshot analyze = db_build;
  analyze.labels = {{"stage", "analyze"}};
  analyze.count = 0;
  analyze.sum = 0.0;
  snapshot.histograms.push_back(analyze);
  EXPECT_EQ(FormatStageBreakdown(snapshot), "");
}

}  // namespace
}  // namespace csi::tools
