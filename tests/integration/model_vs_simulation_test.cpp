// Integration: the SC compact model against the switch-level simulator --
// the paper's Fig. 3 validation, as an automated regression test.
#include <gtest/gtest.h>

#include <ostream>

#include "circuit/sc_testbench.h"
#include "sc/compact_model.h"

namespace vstack {
namespace {

struct ValidationCase {
  double load_ma;
  sc::ControlPolicy policy;
};

// Without this gtest prints the raw struct bytes, padding included, and
// gtest_discover_tests bakes them into the ctest names, which then change
// from build to build.
void PrintTo(const ValidationCase& c, std::ostream* os) {
  *os << c.load_ma << " mA "
      << (c.policy == sc::ControlPolicy::OpenLoop ? "open-loop"
                                                  : "closed-loop");
}

class Fig3Validation : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(Fig3Validation, ModelTracksSimulation) {
  const auto [load_ma, policy] = GetParam();
  const double load = load_ma * 1e-3;

  sc::ScConverterDesign design;
  design.control = policy;
  const sc::ScCompactModel model(design);
  const auto op = model.evaluate(2.0, 0.0, load);

  circuit::ScTestbenchConfig tb;
  tb.load_current = load;
  tb.switching_frequency = op.switching_frequency;
  circuit::ScSimulationOptions opts;
  opts.settle_periods = 60;
  opts.measure_periods = 15;
  const auto sim = circuit::simulate_push_pull_sc(tb, opts);

  // Paper Fig. 3: model tracks simulation closely across the load range.
  EXPECT_NEAR(op.efficiency, sim.efficiency, 0.03)
      << "load " << load_ma << " mA";
  EXPECT_NEAR(op.voltage_drop, sim.voltage_drop, 6e-3)
      << "load " << load_ma << " mA";
}

INSTANTIATE_TEST_SUITE_P(
    OpenLoop, Fig3Validation,
    ::testing::Values(ValidationCase{10, sc::ControlPolicy::OpenLoop},
                      ValidationCase{30, sc::ControlPolicy::OpenLoop},
                      ValidationCase{50, sc::ControlPolicy::OpenLoop},
                      ValidationCase{90, sc::ControlPolicy::OpenLoop}));

INSTANTIATE_TEST_SUITE_P(
    ClosedLoop, Fig3Validation,
    ::testing::Values(ValidationCase{6.3, sc::ControlPolicy::ClosedLoop},
                      ValidationCase{25, sc::ControlPolicy::ClosedLoop},
                      ValidationCase{100, sc::ControlPolicy::ClosedLoop}));

TEST(Fig3ValidationExtra, SimulatedSeriesResistanceNearDesignValue) {
  // Extract the effective series resistance from two simulated points and
  // compare with the analytical R_SERIES (paper: 0.6 Ohm).
  circuit::ScTestbenchConfig tb;
  circuit::ScSimulationOptions opts;
  opts.settle_periods = 60;
  opts.measure_periods = 15;
  tb.load_current = 20e-3;
  const auto low = circuit::simulate_push_pull_sc(tb, opts);
  tb.load_current = 80e-3;
  const auto high = circuit::simulate_push_pull_sc(tb, opts);
  const double r_eff =
      (high.voltage_drop - low.voltage_drop) / (80e-3 - 20e-3);

  const sc::ScCompactModel model{sc::ScConverterDesign{}};
  EXPECT_NEAR(r_eff, model.r_series(50e6), 0.08);
}

}  // namespace
}  // namespace vstack
