// Unit tests for P-states, the thermal model and the calibrated node power
// model (the paper's operating points are encoded as expectations here).
#include <gtest/gtest.h>

#include "power/model.hpp"
#include "power/pstate.hpp"
#include "power/thermal.hpp"
#include "sim/machine_config.hpp"
#include "thermal/rc_network.hpp"
#include "util/units.hpp"

namespace pcap::power {
namespace {

TEST(PStateTable, RomleyHasSixteenStates) {
  const PStateTable table = PStateTable::romley_e5_2680();
  EXPECT_EQ(table.size(), 16u);  // as the paper's platform (§III)
  EXPECT_EQ(table.fastest().frequency, 2701 * util::kMegaHertz);
  EXPECT_EQ(table.slowest().frequency, 1200 * util::kMegaHertz);
}

TEST(PStateTable, FrequenciesAndVoltagesDescend) {
  const PStateTable table = PStateTable::romley_e5_2680();
  for (std::uint32_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(table.state(i).frequency, table.state(i - 1).frequency);
    EXPECT_LE(table.state(i).voltage, table.state(i - 1).voltage);
  }
}

TEST(PStateTable, TurboBinHasElevatedVoltage) {
  const PStateTable table = PStateTable::romley_e5_2680();
  // P0 -> P1 drops voltage far more than any later step: the first P-state
  // step buys disproportionate power (visible in the paper's 150 W rows).
  const double turbo_drop = table.state(0).voltage - table.state(1).voltage;
  const double typical_drop = table.state(1).voltage - table.state(2).voltage;
  EXPECT_GT(turbo_drop, 4.0 * typical_drop);
}

TEST(PStateTable, StateForMinFrequency) {
  const PStateTable table = PStateTable::romley_e5_2680();
  EXPECT_EQ(table.state_for_min_frequency(2000 * util::kMegaHertz).frequency,
            2000 * util::kMegaHertz);
  EXPECT_EQ(table.state_for_min_frequency(1950 * util::kMegaHertz).frequency,
            2000 * util::kMegaHertz);
  EXPECT_EQ(table.state_for_min_frequency(1 * util::kMegaHertz).frequency,
            1200 * util::kMegaHertz);
}

TEST(PStateTable, ValidatesInput) {
  EXPECT_THROW(PStateTable({}, 1.0, 0.8), std::invalid_argument);
  EXPECT_THROW(PStateTable({1000, 2000}, 1.0, 0.8), std::invalid_argument);
  EXPECT_THROW(PStateTable(std::vector<PState>{}), std::invalid_argument);
}

TEST(PStateTable, LinearCtorAssignsVoltages) {
  const PStateTable t({2000 * util::kMegaHertz, 1000 * util::kMegaHertz}, 1.0,
                      0.8);
  EXPECT_DOUBLE_EQ(t.state(0).voltage, 1.0);
  EXPECT_DOUBLE_EQ(t.state(1).voltage, 0.8);
  EXPECT_EQ(t.state(1).index, 1u);
}

// The lumped single-RC step the node takes (thermal::RcNetwork in its
// degenerate one-node form).
thermal::RcNetwork single_rc(const ThermalConfig& config) {
  return thermal::RcNetwork(thermal::RcNetworkConfig::single_rc(config));
}

TEST(Thermal, ConvergesToSteadyState) {
  thermal::RcNetwork model = single_rc({.ambient_c = 35.0,
                                        .r_thermal_c_per_w = 0.35,
                                        .tau = util::milliseconds(1.0)});
  for (int i = 0; i < 100; ++i) {
    model.update_lumped(60.0, util::milliseconds(1.0));
  }
  EXPECT_NEAR(model.temperature_c(), 35.0 + 0.35 * 60.0, 0.1);
}

TEST(Thermal, CoolsBackToAmbient) {
  thermal::RcNetwork model = single_rc({});
  for (int i = 0; i < 100; ++i) {
    model.update_lumped(80.0, util::milliseconds(1.0));
  }
  for (int i = 0; i < 200; ++i) {
    model.update_lumped(0.0, util::milliseconds(1.0));
  }
  EXPECT_NEAR(model.temperature_c(), model.ambient_c(), 0.5);
}

TEST(Thermal, ResetRestoresAmbient) {
  thermal::RcNetwork model = single_rc({});
  model.update_lumped(100.0, util::milliseconds(5.0));
  model.reset();
  EXPECT_DOUBLE_EQ(model.temperature_c(), model.ambient_c());
}

// --- node power model: the paper's calibration points ---

PowerInputs idle_inputs() {
  PowerInputs in;
  in.workload_running = false;
  in.active_cores = 0;
  in.activity = 0.0;
  in.temperature_c = 40.0;
  return in;
}

PowerInputs loaded_inputs() {
  PowerInputs in;
  in.workload_running = true;
  in.active_cores = 1;
  in.frequency = 2701 * util::kMegaHertz;
  in.voltage = 1.10;
  in.duty = 1.0;
  in.activity = 0.85;
  in.l3_accesses_per_s = 50e6;
  in.dram_accesses_per_s = 5e6;
  in.temperature_c = 55.0;
  return in;
}

TEST(NodePower, IdleMatchesPaper) {
  const sim::CalibrationTargets cal;
  NodePowerModel model{NodePowerConfig{}};
  const double idle = model.total_watts(idle_inputs());
  EXPECT_GE(idle, cal.idle_min_w);  // paper: "between 100 and 103 W"
  EXPECT_LE(idle, cal.idle_max_w);
}

TEST(NodePower, LoadedBaselineInPaperBand) {
  const sim::CalibrationTargets cal;
  NodePowerModel model{NodePowerConfig{}};
  const double loaded = model.total_watts(loaded_inputs());
  EXPECT_GE(loaded, cal.loaded_min_w);  // paper baselines: 153-157 W
  EXPECT_LE(loaded, cal.loaded_max_w);
}

TEST(NodePower, SlowestPStateStillAbove135WUnderLoad) {
  // The paper's caps of 135 W and below force non-DVFS mechanisms; that
  // requires the min-P-state loaded draw to sit near/above ~130 W.
  NodePowerModel model{NodePowerConfig{}};
  PowerInputs in = loaded_inputs();
  in.frequency = 1200 * util::kMegaHertz;
  in.voltage = 0.875;
  in.l3_accesses_per_s *= 0.45;
  in.dram_accesses_per_s *= 0.45;
  const double watts = model.total_watts(in);
  const sim::CalibrationTargets cal;
  EXPECT_GE(watts, cal.min_pstate_min_w);
  EXPECT_LE(watts, cal.min_pstate_max_w);
}

TEST(NodePower, ThrottlingFloorAboveOneTwenty) {
  // Everything engaged: min P-state, min duty, gated caches/DRAM. The node
  // must still draw more than 120 W (the paper's missed cap).
  NodePowerModel model{NodePowerConfig{}};
  PowerInputs in = loaded_inputs();
  in.frequency = 1200 * util::kMegaHertz;
  in.voltage = 0.875;
  in.duty = 0.125;
  in.activity = 0.8;
  in.l3_active_ways = 4;
  in.dram_gated = true;
  in.l3_accesses_per_s = 1e6;
  in.dram_accesses_per_s = 1e6;
  const double floor = model.total_watts(in);
  const sim::CalibrationTargets cal;
  EXPECT_GT(floor, cal.floor_above_w);
  EXPECT_LT(floor, cal.floor_below_w);
}

TEST(NodePower, MonotoneInFrequency) {
  NodePowerModel model{NodePowerConfig{}};
  PowerInputs in = loaded_inputs();
  double last = 1e9;
  for (util::Hertz f = 2701; f >= 1200; f -= 100) {
    in.frequency = f * util::kMegaHertz;
    const double watts = model.total_watts(in);
    EXPECT_LT(watts, last);
    last = watts;
  }
}

TEST(NodePower, MonotoneInDutyVoltageActivity) {
  NodePowerModel model{NodePowerConfig{}};
  PowerInputs in = loaded_inputs();
  PowerInputs lo = in;
  lo.duty = 0.5;
  EXPECT_LT(model.total_watts(lo), model.total_watts(in));
  lo = in;
  lo.voltage = 0.95;
  EXPECT_LT(model.total_watts(lo), model.total_watts(in));
  lo = in;
  lo.activity = 0.5;
  EXPECT_LT(model.total_watts(lo), model.total_watts(in));
}

TEST(NodePower, GatingSavesPower) {
  NodePowerModel model{NodePowerConfig{}};
  PowerInputs in = loaded_inputs();
  PowerInputs gated = in;
  gated.l3_active_ways = 4;
  gated.dram_gated = true;
  const double saved = model.total_watts(in) - model.total_watts(gated);
  EXPECT_GT(saved, 1.0);
  EXPECT_LT(saved, 8.0);  // "small decreases in power" (paper §V)
}

TEST(NodePower, LeakageRisesWithTemperature) {
  NodePowerModel model{NodePowerConfig{}};
  EXPECT_GT(model.core_leakage_watts(1.1, 80.0),
            model.core_leakage_watts(1.1, 50.0));
  EXPECT_GT(model.core_leakage_watts(1.1, 50.0),
            model.core_leakage_watts(0.9, 50.0));
}

TEST(NodePower, BreakdownSumsToTotal) {
  NodePowerModel model{NodePowerConfig{}};
  const PowerBreakdown b = model.compute(loaded_inputs());
  const double sum = b.platform + b.dram_background + b.dram_dynamic +
                     b.uncore_base + b.package_uplift + b.l3_leakage +
                     b.uncore_dynamic + b.cores;
  EXPECT_NEAR(sum, b.total, 1e-9);
}

TEST(NodePower, ExtraActiveCoresAddPower) {
  NodePowerModel model{NodePowerConfig{}};
  PowerInputs one = loaded_inputs();
  PowerInputs four = loaded_inputs();
  four.active_cores = 4;
  const double delta = model.total_watts(four) - model.total_watts(one);
  EXPECT_GT(delta, 3.0 * 20.0);  // three more active cores, >20 W each
}

TEST(NodePower, DutyOffWindowStillLeaks) {
  // C1 is clock gating, not power gating: at duty ~0 an "active" core must
  // still draw well above the parked C6 level.
  NodePowerModel model{NodePowerConfig{}};
  const double c1ish =
      model.active_core_watts(1200 * util::kMegaHertz, 0.875, 0.0, 1.0, 50.0);
  EXPECT_GT(c1ish, 5.0);
}

}  // namespace
}  // namespace pcap::power
