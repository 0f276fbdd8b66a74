#include "circuit/spice_parser.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack::circuit {
namespace {

TEST(SpiceValueTest, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_spice_value("10"), 10.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("-2.5"), -2.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e-3"), 1e-3);
}

TEST(SpiceValueTest, MagnitudeSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("4.7n"), 4.7e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("3f"), 3e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("2u"), 2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("50m"), 50e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parse_spice_value("1T"), 1e12);
  // SPICE reads the first suffix letter (or a `meg` prefix) and skips the
  // unit name after it; the benchmark-grid reader (pgio) rejects these.
  EXPECT_DOUBLE_EQ(parse_spice_value("10uF"), 10e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("1megohm"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("3mil"), 3e-3);  // m is milli
}

TEST(SpiceValueTest, RejectsGarbage) {
  EXPECT_THROW(parse_spice_value("abc"), Error);
  EXPECT_THROW(parse_spice_value("1x"), Error);
  EXPECT_THROW(parse_spice_value("1V"), Error);
  EXPECT_THROW(parse_spice_value(""), Error);
}

constexpr const char* kDividerNetlist = R"(
* a simple divider with a cap
.title divider test
V1 vin 0 10
R1 vin mid 1k
R2 mid 0 3k
C1 mid 0 1u IC=7.5
.tran 1u 1m DC
.end
)";

TEST(SpiceParserTest, ParsesDivider) {
  const auto c = parse_spice(kDividerNetlist);
  EXPECT_EQ(c.title, "divider test");
  EXPECT_EQ(c.netlist.resistors().size(), 2u);
  EXPECT_EQ(c.netlist.capacitors().size(), 1u);
  EXPECT_EQ(c.netlist.voltage_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(c.netlist.resistors()[1].resistance, 3000.0);
  EXPECT_DOUBLE_EQ(c.netlist.capacitors()[0].initial_voltage, 7.5);
  ASSERT_TRUE(c.has_tran);
  EXPECT_DOUBLE_EQ(c.tran.time_step, 1e-6);
  EXPECT_DOUBLE_EQ(c.tran.stop_time, 1e-3);
  EXPECT_TRUE(c.tran.start_from_dc);
}

TEST(SpiceParserTest, ParsedDividerSolvesCorrectly) {
  const auto c = parse_spice(kDividerNetlist);
  const auto dc = dc_solve(c.netlist, {});
  EXPECT_NEAR(dc.node_voltages[c.node_by_name.at("mid")], 7.5, 1e-9);
}

TEST(SpiceParserTest, GroundAliases) {
  const auto c = parse_spice("R1 a gnd 1k\nR2 a 0 1k\n.end\n");
  EXPECT_EQ(c.netlist.resistors()[0].b, kGround);
  EXPECT_EQ(c.netlist.resistors()[1].b, kGround);
  EXPECT_EQ(c.node_by_name.size(), 1u);  // just "a"
}

TEST(SpiceParserTest, SwitchCardWithPhase) {
  const auto c = parse_spice(
      "V1 in 0 1\nS1 in out 0.5 1e9 PHASE=0.25 DUTY=0.4\nR1 out 0 10\n"
      ".clock 20n\n.end\n");
  ASSERT_EQ(c.netlist.switches().size(), 1u);
  const auto& sw = c.netlist.switches()[0];
  EXPECT_DOUBLE_EQ(sw.on_resistance, 0.5);
  EXPECT_DOUBLE_EQ(sw.phase.phase_offset, 0.25);
  EXPECT_DOUBLE_EQ(sw.phase.duty, 0.4);
  EXPECT_DOUBLE_EQ(c.clock_period, 20e-9);
}

TEST(SpiceParserTest, CommentsAndBlankLinesIgnored) {
  const auto c = parse_spice(
      "* leading comment\n\nR1 a 0 1k ; trailing comment\n   \n.end\n");
  EXPECT_EQ(c.netlist.resistors().size(), 1u);
}

TEST(SpiceParserTest, ErrorsCarrySourceNameLineAndToken) {
  try {
    parse_spice("R1 a 0 1k\nQ1 b 0 1k\n", "bench.sp");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bench.sp:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("Q1"), std::string::npos) << what;
  }
}

TEST(SpiceParserTest, ErrorsNameTheOffendingValueToken) {
  try {
    parse_spice("R1 a 0 1x2\n", "bad.sp");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.sp:1:"), std::string::npos) << what;
    EXPECT_NE(what.find("1x2"), std::string::npos) << what;
  }
}

TEST(SpiceParserTest, RejectsMalformedCards) {
  EXPECT_THROW(parse_spice("R1 a 0\n"), Error);                // missing value
  EXPECT_THROW(parse_spice("S1 a b 0.5 1e9 0.25 0.4\n"), Error);  // no keys
  EXPECT_THROW(parse_spice(".tran 1u\n"), Error);
  EXPECT_THROW(parse_spice(".bogus\n"), Error);
  EXPECT_THROW(parse_spice(".end\nR1 a 0 1k\n"), Error);  // after .end
}

// Malformed-netlist corpus: every entry must be rejected with a clean parse
// error (no crash, no acceptance).  Runs under ASan+UBSan in the sanitizer
// CI job.
TEST(SpiceParserTest, MalformedCorpusAllRejected) {
  const char* corpus[] = {
      "R1 a 0 -1k\n",                   // negative resistance
      "R1 a 0 0\n",                     // zero resistance
      "C1 a 0 -1n\n",                   // negative capacitance
      "C1 a 0 1n IC\n",                 // bare IC without value
      "C1 a 0 1n IC=abc\n",             // garbage IC value
      "C1 a 0 1n IC=1 extra\n",         // trailing token
      "R1 a 0 1k\nR1 b 0 2k\n",         // duplicate element name
      "R1 a 0 1k\nr1 b 0 2k\n",         // duplicate, case-insensitive
      "S1 a b -0.5 1e9 PHASE=0 DUTY=0.5\n",   // negative Ron
      "S1 a b 10 1 PHASE=0 DUTY=0.5\n",        // Roff < Ron
      "S1 a b 1 1e9 PHASE=1.5 DUTY=0.5\n",     // phase out of range
      "S1 a b 1 1e9 PHASE=0 DUTY=1.5\n",       // duty out of range
      "S1 a b 1 1e9 PHASE=0 DUTY=-0.1\n",      // negative duty
      ".clock 0\n",                     // zero clock period
      ".clock -1n\n",                   // negative clock period
      ".clock 1n\n.clock 2n\n",         // duplicate .clock
      ".tran 1n 1u\n.tran 1n 1u\n",     // duplicate .tran
      ".tran 1u 1n\n",                  // stop <= step
      ".tran -1n 1u\n",                 // negative step
      ".tran 1n 1u FAST\n",             // unknown flag
      "V1 a 0 1e999\n",                 // overflow -> non-finite
      "V1 a 0 nan\n",                   // NaN value
      "X1 a 0 1\n",                     // unknown card
  };
  for (const char* text : corpus) {
    EXPECT_THROW(parse_spice(text, "corpus.sp"), Error)
        << "accepted malformed netlist:\n" << text;
  }
}

TEST(SpiceParserTest, TranAdaptiveFlagSelectsAdaptiveMode) {
  const auto c = parse_spice("R1 a 0 1k\n.tran 1n 1u DC ADAPTIVE\n.end\n");
  ASSERT_TRUE(c.has_tran);
  EXPECT_TRUE(c.tran.start_from_dc);
  EXPECT_EQ(c.tran.mode, SteppingMode::Adaptive);
  // Round trip keeps the flag.
  const auto reparsed = parse_spice(write_spice(c));
  EXPECT_EQ(reparsed.tran.mode, SteppingMode::Adaptive);
}

TEST(SpiceParserTest, RoundTripPreservesCircuit) {
  const auto original = parse_spice(kDividerNetlist);
  const auto text = write_spice(original);
  const auto reparsed = parse_spice(text);
  EXPECT_EQ(reparsed.netlist.resistors().size(),
            original.netlist.resistors().size());
  EXPECT_DOUBLE_EQ(reparsed.netlist.capacitors()[0].initial_voltage, 7.5);
  // Same DC answer after the round trip.
  const auto dc = dc_solve(reparsed.netlist, {});
  EXPECT_NEAR(dc.node_voltages[reparsed.node_by_name.at("mid")], 7.5, 1e-9);
}

TEST(SpiceParserTest, ParsedSwitcherRunsTransient) {
  // A chargeable cap behind an alternating switch pair: parse and run.
  const auto c = parse_spice(R"(
V1 in 0 1
S1 in top 1 1g PHASE=0.0 DUTY=0.45
S2 top out 1 1g PHASE=0.5 DUTY=0.45
C1 top 0 10n
C2 out 0 10n
R1 out 0 1k
.clock 100n
.tran 1n 20u
.end
)");
  ASSERT_TRUE(c.has_tran);
  TransientSimulator sim(c.netlist, c.clock_period);
  const auto r = sim.run(c.tran);
  // The switched-cap chain pumps charge to the output: a clearly positive
  // average emerges.
  const double v_out =
      r.average_node_voltage(c.node_by_name.at("out"), 15e-6);
  EXPECT_GT(v_out, 0.3);
  EXPECT_LT(v_out, 1.0);
}

}  // namespace
}  // namespace vstack::circuit
