// coorm_sim option parsing (tools/cli_options.hpp).
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <vector>

#include "cli_options.hpp"

namespace coorm::cli {
namespace {

ParseResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"coorm_sim"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsWithNoArguments) {
  const ParseResult r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.nodes, 128);
  EXPECT_EQ(r.options.seed, 1u);
  EXPECT_FALSE(r.options.amrPeakGiB.has_value());
  EXPECT_TRUE(r.options.psaTasks.empty());
  EXPECT_TRUE(r.options.swfPath.empty());
  EXPECT_EQ(r.options.until, hours(24));
  EXPECT_FALSE(r.options.strictEquiPartition);
  EXPECT_FALSE(r.options.showTimeline);
  EXPECT_FALSE(r.options.showTrace);
  EXPECT_FALSE(r.options.statsQuery);
}

TEST(Cli, ParsesNodes) {
  const ParseResult r = parse({"--nodes", "256"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.nodes, 256);
}

TEST(Cli, NodesMissingValueIsError) {
  const ParseResult r = parse({"--nodes"});
  EXPECT_EQ(r.status, ParseStatus::kError);
  EXPECT_NE(r.error.find("--nodes"), std::string::npos);
}

TEST(Cli, NonPositiveNodesIsError) {
  EXPECT_EQ(parse({"--nodes", "0"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--nodes", "-4"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesAmrWithModifiers) {
  const ParseResult r = parse({"--amr", "200", "--amr-steps", "50",
                               "--amr-static", "--overcommit", "1.5",
                               "--announce", "600"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.options.amrPeakGiB.has_value());
  EXPECT_DOUBLE_EQ(*r.options.amrPeakGiB, 200.0);
  EXPECT_EQ(r.options.amrSteps, 50);
  EXPECT_TRUE(r.options.amrStatic);
  EXPECT_DOUBLE_EQ(r.options.overcommit, 1.5);
  EXPECT_EQ(r.options.announce, secF(600.0));
}

TEST(Cli, PsaIsRepeatable) {
  const ParseResult r = parse({"--psa", "600", "--psa", "60"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.options.psaTasks.size(), 2u);
  EXPECT_EQ(r.options.psaTasks[0], secF(600.0));
  EXPECT_EQ(r.options.psaTasks[1], secF(60.0));
}

TEST(Cli, ParsesSwfPath) {
  const ParseResult r = parse({"--swf", "trace.swf", "--nodes", "512"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.swfPath, "trace.swf");
  EXPECT_EQ(r.options.nodes, 512);
}

TEST(Cli, SwfMissingValueIsError) {
  EXPECT_EQ(parse({"--swf"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesFlagsAndHorizon) {
  const ParseResult r = parse({"--strict", "--timeline", "--trace",
                               "--until", "3600", "--jobs", "50",
                               "--seed", "7"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options.strictEquiPartition);
  EXPECT_TRUE(r.options.showTimeline);
  EXPECT_TRUE(r.options.showTrace);
  EXPECT_EQ(r.options.until, secF(3600.0));
  EXPECT_EQ(r.options.syntheticJobs, 50);
  EXPECT_EQ(r.options.seed, 7u);
}

TEST(Cli, ParsesStatsQuery) {
  const ParseResult r = parse({"--stats", "--connect", "127.0.0.1:7788"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options.statsQuery);
}

TEST(Cli, ParsesJournalPath) {
  const ParseResult r = parse({"--journal", "/var/lib/coorm/rms.journal"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.journalPath, "/var/lib/coorm/rms.journal");
  EXPECT_EQ(parse({"--journal"}).status, ParseStatus::kError);
}

TEST(Cli, JournalDefaultsEmpty) {
  const ParseResult r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options.journalPath.empty());
}

TEST(Cli, ParsesIdleDeadlineAndResumeGrace) {
  const ParseResult r =
      parse({"--idle-deadline", "12.5", "--resume-grace", "60"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.idleDeadline, msec(12500));
  EXPECT_EQ(r.options.resumeGrace, sec(60));
}

TEST(Cli, IdleDeadlineOffByDefaultResumeGraceOn) {
  const ParseResult r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.idleDeadline, 0);
  EXPECT_EQ(r.options.resumeGrace, sec(30));
}

TEST(Cli, NegativeDeadlinesAreErrors) {
  EXPECT_EQ(parse({"--idle-deadline", "-1"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--resume-grace", "-0.5"}).status, ParseStatus::kError);
}

TEST(Cli, HelpShortCircuits) {
  EXPECT_EQ(parse({"--help"}).status, ParseStatus::kHelp);
  EXPECT_EQ(parse({"-h"}).status, ParseStatus::kHelp);
  // --help wins over valid options before it; an invalid option before it
  // still errors first (parsing stops at the first bad argument).
  EXPECT_EQ(parse({"--nodes", "64", "--help"}).status, ParseStatus::kHelp);
  EXPECT_EQ(parse({"--bogus", "--help"}).status, ParseStatus::kError);
}

TEST(Cli, UnknownOptionIsError) {
  const ParseResult r = parse({"--bogus"});
  EXPECT_EQ(r.status, ParseStatus::kError);
  EXPECT_NE(r.error.find("--bogus"), std::string::npos);
}

TEST(Cli, RetiredFlagsAreUnknown) {
  // One event loop, one view push, passes inline, serial and incremental:
  // the flags that selected the alternatives are gone, not silently
  // accepted.
  for (const auto& args :
       {std::initializer_list<const char*>{"--io-backend", "epoll"},
        std::initializer_list<const char*>{"--delta-views", "on"},
        std::initializer_list<const char*>{"--pipeline", "off"},
        std::initializer_list<const char*>{"--incremental", "off"},
        std::initializer_list<const char*>{"--threads", "4"}}) {
    const ParseResult r = parse(args);
    EXPECT_EQ(r.status, ParseStatus::kError) << *args.begin();
    EXPECT_NE(r.error.find("unknown or incomplete option"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find(*args.begin()), std::string::npos) << r.error;
  }
}

TEST(Cli, InvalidOvercommitIsError) {
  EXPECT_EQ(parse({"--overcommit", "0"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--amr-steps", "0"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesListenEndpoint) {
  const ParseResult r = parse({"--listen", "0.0.0.0:7788"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.options.listen.has_value());
  EXPECT_EQ(r.options.listen->host, "0.0.0.0");
  EXPECT_EQ(r.options.listen->port, 7788);
  EXPECT_FALSE(r.options.connect.has_value());
}

TEST(Cli, ListenDefaultsHostAndAllowsEphemeralPort) {
  const ParseResult bare = parse({"--listen", ":0"});
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.options.listen->host, "127.0.0.1");
  EXPECT_EQ(bare.options.listen->port, 0);

  const ParseResult portOnly = parse({"--listen", "9090"});
  ASSERT_TRUE(portOnly.ok());
  EXPECT_EQ(portOnly.options.listen->host, "127.0.0.1");
  EXPECT_EQ(portOnly.options.listen->port, 9090);
}

TEST(Cli, ParsesConnectEndpoint) {
  const ParseResult r = parse({"--connect", "10.1.2.3:450"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.options.connect.has_value());
  EXPECT_EQ(r.options.connect->host, "10.1.2.3");
  EXPECT_EQ(r.options.connect->port, 450);
}

TEST(Cli, MalformedEndpointsAreErrors) {
  for (const char* bad : {"example:port", "1.2.3.4:", "1.2.3.4:99999", ":",
                          "host:12x", ""}) {
    EXPECT_EQ(parse({"--listen", bad}).status, ParseStatus::kError) << bad;
    EXPECT_EQ(parse({"--connect", bad}).status, ParseStatus::kError) << bad;
  }
  EXPECT_EQ(parse({"--listen"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--connect"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesReschedInterval) {
  const ParseResult r = parse({"--resched", "0.05"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.reschedInterval, msec(50));
  EXPECT_EQ(parse({"--resched", "0"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--resched", "-1"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesTraceOut) {
  const ParseResult r = parse({"--trace-out", "/tmp/pass.trace.json"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.traceOut, "/tmp/pass.trace.json");
  EXPECT_TRUE(parse({}).options.traceOut.empty());
  EXPECT_EQ(parse({"--trace-out"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesSlowPassThreshold) {
  const ParseResult r = parse({"--slow-pass-ms", "25"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options.slowPassMs, 25);
  EXPECT_EQ(parse({}).options.slowPassMs, 0);
  EXPECT_EQ(parse({"--slow-pass-ms", "-5"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--slow-pass-ms"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesMetricsListen) {
  const ParseResult r = parse({"--metrics-listen", "127.0.0.1:9464"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.options.metricsListen.has_value());
  EXPECT_EQ(r.options.metricsListen->host, "127.0.0.1");
  EXPECT_EQ(r.options.metricsListen->port, 9464);
  EXPECT_FALSE(parse({}).options.metricsListen.has_value());
  EXPECT_EQ(parse({"--metrics-listen", "host:"}).status, ParseStatus::kError);
  EXPECT_EQ(parse({"--metrics-listen"}).status, ParseStatus::kError);
}

TEST(Cli, ParsesStatsAll) {
  const ParseResult r = parse({"--stats", "--stats-all"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options.statsAll);
  EXPECT_FALSE(parse({}).options.statsAll);
}

TEST(Cli, UsageMentionsEveryOption) {
  std::ostringstream out;
  printUsage(out);
  const std::string usage = out.str();
  for (const char* flag :
       {"--nodes", "--seed", "--amr", "--amr-steps", "--amr-static",
        "--overcommit", "--announce", "--psa", "--jobs", "--swf", "--strict",
        "--until", "--timeline", "--trace", "--listen", "--connect",
        "--resched", "--stats", "--journal", "--idle-deadline",
        "--resume-grace", "--connections", "--probe", "--stats-all",
        "--trace-out", "--slow-pass-ms", "--metrics-listen", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace coorm::cli
