// The package loop both node types run every housekeeping tick: counter
// deltas become activity and transaction rates, the power model prices the
// operating point, the fan adds its draw, the lumped or RC-network thermal
// model takes the heat, and the wall meter, the BMC's sensor window and the
// run integrals take the watts. The package also keeps the BMC control and
// OS-noise clocks. `Node` and `SmpNode` each hold one through
// `PackageControl` and keep only what differs (DESIGN.md §9, §12).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "meter/watts_up.hpp"
#include "pmu/counters.hpp"
#include "power/model.hpp"
#include "power/pstate.hpp"
#include "sim/core_model.hpp"
#include "sim/machine_config.hpp"
#include "sim/platform_control.hpp"
#include "telemetry/probe.hpp"
#include "thermal/fan.hpp"
#include "thermal/rc_network.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcap::sim {

/// Cumulative counter totals the package step turns into rates.
struct PackageCounters {
  std::uint64_t l3_acc = 0;
  std::uint64_t dram_acc = 0;
  std::uint64_t ins = 0;
  std::uint64_t cyc = 0;
  std::uint64_t stall = 0;

  /// Adds one core's bank.
  PackageCounters& operator+=(const pmu::CounterBank& bank);
};

/// Everything the paper measures for one application run.
struct RunReport {
  std::string workload;
  util::Picoseconds elapsed = 0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;
  util::Hertz avg_frequency = 0;
  double avg_duty = 1.0;
  double final_temperature_c = 0.0;
  /// Per-event deltas over the run, indexable by pmu::index_of(event).
  std::array<std::uint64_t, pmu::kEventCount> counters{};

  std::uint64_t counter(pmu::Event e) const { return counters[pmu::index_of(e)]; }
};

class Package {
 public:
  Package(const MachineConfig& machine, std::uint64_t seed);

  /// Prices `op` before the first step and opens a meter session at 0.
  void prime(const power::PowerInputs& op);

  /// Opens a run at `start`: new meter session, peak and integrals reset,
  /// sensor window and clocks restarted. The rate baselines stay where the
  /// last step left them, so counts added after it (an OS-noise drain in
  /// the previous run's last tick) land in this run's first step.
  void begin_run(util::Picoseconds start);
  /// Moves the L3, DRAM, instruction and cycle baselines to `totals`, so
  /// the next step's rates count only what comes after; the stall baseline
  /// stays where the last step left it.
  void rebase(const PackageCounters& totals);

  /// One housekeeping step up to `upto`. `op` carries the node's operating
  /// point (the package fills in activity, rates and temperature);
  /// `running` is whether a run is open. Returns false, changing nothing,
  /// when `upto` is not past the previous step.
  bool settle(util::Picoseconds upto, const PackageCounters& totals,
              const power::PowerInputs& op, bool running);

  /// Closes a run of length `elapsed`: a report with the energy, power,
  /// frequency, duty and final-temperature fields filled (buffered heat is
  /// folded first).
  RunReport end_run(util::Picoseconds elapsed);

  /// True once per BMC control period; the next period starts at `now`.
  bool control_due(util::Picoseconds now);
  /// True when an OS-noise tick is due; the next one is jittered so noise
  /// does not alias with control.
  bool noise_due(util::Picoseconds now);

  /// Average power since the previous call (the BMC's sensor window);
  /// restarts the window at `now`.
  double window_average_power_w(util::Picoseconds now);

  void start_metering(util::Picoseconds now) { meter_.start_session(now); }

  const power::PStateTable& pstates() const { return pstates_; }
  const meter::WattsUp& meter() const { return meter_; }
  thermal::RcNetwork& thermal() { return thermal_; }
  const thermal::RcNetwork& thermal() const { return thermal_; }
  thermal::Fan& fan() { return fan_; }
  const thermal::Fan& fan() const { return fan_; }
  const power::PowerBreakdown& breakdown() const { return breakdown_; }
  double watts() const { return watts_; }
  double stall_fraction() const { return stall_fraction_; }

 private:
  /// Prices `op` at the current rates, activity and die temperature.
  void price(power::PowerInputs op);

  double base_ipc_;
  double platform_base_w_;
  double dram_background_w_;
  TickConfig ticks_;
  power::PStateTable pstates_;
  power::NodePowerModel power_model_;
  thermal::RcNetwork thermal_;
  thermal::Fan fan_;
  power::PowerBreakdown breakdown_;
  meter::WattsUp meter_;

  double watts_ = 0.0;
  double peak_watts_ = 0.0;
  util::Picoseconds last_tick_ = 0;
  util::Picoseconds next_control_;
  util::Picoseconds next_noise_;
  util::Rng rng_;

  // Sensor window for the BMC.
  double window_energy_j_ = 0.0;
  util::Picoseconds window_start_ = 0;

  // Run-level integrals.
  double freq_time_integral_ = 0.0;  // Hz * seconds
  double duty_time_integral_ = 0.0;  // seconds

  // Rate computation between steps.
  PackageCounters last_;
  double activity_ = 0.9;
  double stall_fraction_ = 0.0;
  double l3_rate_hz_ = 0.0;
  double dram_rate_hz_ = 0.0;
};

/// The package-level half of PlatformControl (power, thermal and fan
/// sensors, the fan actuator, the P-state count), written once for both
/// node types over the Package they hold.
class PackageControl : public PlatformControl {
 public:
  /// Installs the management hook called every BMC control period with this
  /// node's PlatformControl face (pass nullptr to uninstall).
  using ControlHook = std::function<void(PlatformControl&)>;
  void set_control_hook(ControlHook hook) { control_hook_ = std::move(hook); }

  const meter::WattsUp& meter() const { return package_.meter(); }
  double temperature_c() const { return package_.thermal().temperature_c(); }
  thermal::RcNetwork& thermal_network() { return package_.thermal(); }

  std::uint32_t pstate_count() const override {
    return static_cast<std::uint32_t>(package_.pstates().size());
  }
  double min_duty() const override { return CoreModel::kMinDuty; }
  double window_average_power_w() override {
    return package_.window_average_power_w(now());
  }
  double instantaneous_power_w() const override { return package_.watts(); }
  double memory_stall_fraction() const override {
    return package_.stall_fraction();
  }
  double subsystem_power_w(power::Subsystem s) const override {
    return package_.breakdown().subsystem_w(s);
  }
  double sensor_temperature_c() const override { return temperature_c(); }
  double fan_rpm() const override { return package_.fan().rpm(); }
  double fan_max_rpm() const override { return package_.fan().max_rpm(); }
  void set_fan_rpm(double rpm) override { package_.fan().set_rpm(rpm); }

 protected:
  PackageControl(const MachineConfig& machine, std::uint64_t seed)
      : package_(machine, seed) {}

  /// Calls the control hook when a BMC control period has elapsed.
  void run_control_hook(util::Picoseconds now) {
    if (control_hook_ && package_.control_due(now)) control_hook_(*this);
  }

  /// A telemetry sample of the package operating point at `now`; the
  /// counter fields are left for add_probe_counters.
  telemetry::ProbeInput probe_input(util::Picoseconds now) const;
  /// Adds one core's bank to the counter fields of a telemetry sample.
  static void add_probe_counters(telemetry::ProbeInput& in,
                                 const pmu::CounterBank& bank);

  Package package_;
  ControlHook control_hook_;
};

}  // namespace pcap::sim
