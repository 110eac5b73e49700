#include "sim/package.hpp"

#include <algorithm>

namespace pcap::sim {

using pmu::Event;

PackageCounters& PackageCounters::operator+=(const pmu::CounterBank& bank) {
  l3_acc += bank.get(Event::kL3Tca);
  dram_acc += bank.get(Event::kDramAcc);
  ins += bank.get(Event::kTotIns);
  cyc += bank.get(Event::kTotCyc);
  stall += bank.get(Event::kStallCyc);
  return *this;
}

Package::Package(const MachineConfig& machine, std::uint64_t seed)
    : base_ipc_(machine.core.base_ipc),
      platform_base_w_(machine.power.platform_base_w),
      dram_background_w_(machine.power.dram_background_w),
      ticks_(machine.ticks),
      pstates_(power::PStateTable::romley_e5_2680()),
      power_model_(machine.power),
      thermal_(machine.thermal_network.nodes.empty()
                   ? thermal::RcNetworkConfig::single_rc(machine.thermal)
                   : machine.thermal_network),
      fan_(machine.fan),
      meter_(machine.ticks.meter_period()),
      next_control_(machine.ticks.bmc_period),
      next_noise_(machine.ticks.os_noise_period),
      rng_(seed) {}

void Package::prime(const power::PowerInputs& op) {
  price(op);
  meter_.start_session(0);
}

void Package::price(power::PowerInputs op) {
  op.activity = op.workload_running ? activity_ : 0.0;
  op.l3_accesses_per_s = l3_rate_hz_;
  op.dram_accesses_per_s = dram_rate_hz_;
  op.temperature_c = thermal_.temperature_c();
  breakdown_ = power_model_.compute(op);
  watts_ = breakdown_.total;
}

void Package::begin_run(util::Picoseconds start) {
  meter_.start_session(start);
  peak_watts_ = watts_;
  freq_time_integral_ = 0.0;
  duty_time_integral_ = 0.0;
  window_start_ = start;
  window_energy_j_ = 0.0;
  last_tick_ = start;
  next_control_ = start + ticks_.bmc_period;
  next_noise_ = start + ticks_.os_noise_period;
}

void Package::rebase(const PackageCounters& totals) {
  last_.l3_acc = totals.l3_acc;
  last_.dram_acc = totals.dram_acc;
  last_.ins = totals.ins;
  last_.cyc = totals.cyc;
}

bool Package::settle(util::Picoseconds upto, const PackageCounters& totals,
                     const power::PowerInputs& op, bool running) {
  if (upto <= last_tick_) return false;
  const util::Picoseconds dt = upto - last_tick_;
  last_tick_ = upto;
  const double dt_s = util::to_seconds(dt);

  // Activity and transaction rates from counter deltas over the step.
  l3_rate_hz_ = static_cast<double>(totals.l3_acc - last_.l3_acc) / dt_s;
  dram_rate_hz_ = static_cast<double>(totals.dram_acc - last_.dram_acc) / dt_s;
  const std::uint64_t d_cyc = totals.cyc - last_.cyc;
  if (d_cyc != 0) {
    const double ipc = static_cast<double>(totals.ins - last_.ins) /
                       static_cast<double>(d_cyc);
    activity_ = 0.70 + 0.30 * std::min(ipc / base_ipc_, 1.0);
    stall_fraction_ = std::min(static_cast<double>(totals.stall - last_.stall) /
                                   static_cast<double>(d_cyc),
                               1.0);
  } else if (!running) {
    stall_fraction_ = 0.0;
  }
  last_ = totals;

  // Power, heat, metering. With no fan fitted (the default) the fan terms
  // are exact no-ops, so watts_ and the thermal trajectory stay
  // bit-identical to the legacy single-RC path.
  price(op);
  if (fan_.fitted()) watts_ += fan_.power_w();
  peak_watts_ = std::max(peak_watts_, watts_);
  if (thermal_.is_single_rc()) {
    // Fan power heats the chassis, not the die: lump silicon watts from the
    // breakdown (== watts_ when no fan), exactly as the legacy model did.
    const double silicon_watts =
        breakdown_.total - platform_base_w_ - dram_background_w_;
    thermal_.update_lumped(std::max(silicon_watts, 0.0), dt);
  } else {
    if (fan_.fitted()) thermal_.set_exhaust_r(fan_.resistance_c_per_w());
    thermal_.accumulate({breakdown_.subsystem_w(power::Subsystem::kCpu),
                         breakdown_.subsystem_w(power::Subsystem::kUncore),
                         breakdown_.subsystem_w(power::Subsystem::kMemory)},
                        dt);
  }
  meter_.observe(upto, watts_);
  window_energy_j_ += watts_ * dt_s;

  // Run-level integrals for the reported average frequency / duty.
  freq_time_integral_ += static_cast<double>(op.frequency) * dt_s;
  duty_time_integral_ += op.duty * dt_s;
  return true;
}

RunReport Package::end_run(util::Picoseconds elapsed) {
  RunReport report;
  report.elapsed = elapsed;
  report.energy_j = meter_.energy_joules();
  report.avg_power_w = meter_.average_watts();
  report.peak_power_w = peak_watts_;
  const double elapsed_s = util::to_seconds(elapsed);
  if (elapsed_s > 0.0) {
    report.avg_frequency =
        static_cast<util::Hertz>(freq_time_integral_ / elapsed_s);
    report.avg_duty = duty_time_integral_ / elapsed_s;
  }
  thermal_.flush();
  report.final_temperature_c = thermal_.temperature_c();
  return report;
}

bool Package::control_due(util::Picoseconds now) {
  if (now < next_control_) return false;
  next_control_ = now + ticks_.bmc_period;
  return true;
}

bool Package::noise_due(util::Picoseconds now) {
  if (now < next_noise_) return false;
  const double jitter = 0.8 + 0.4 * rng_.uniform();
  next_noise_ = now + static_cast<util::Picoseconds>(
                          static_cast<double>(ticks_.os_noise_period) * jitter);
  return true;
}

double Package::window_average_power_w(util::Picoseconds now) {
  const util::Picoseconds dt = now > window_start_ ? now - window_start_ : 0;
  double avg = watts_;
  if (dt != 0 && window_energy_j_ > 0.0) {
    avg = window_energy_j_ / util::to_seconds(dt);
  }
  window_start_ = now;
  window_energy_j_ = 0.0;
  return avg;
}

telemetry::ProbeInput PackageControl::probe_input(
    util::Picoseconds now) const {
  telemetry::ProbeInput in;
  in.now = now;
  in.watts = package_.watts();
  in.frequency_mhz =
      static_cast<double>(frequency()) / static_cast<double>(util::kMegaHertz);
  in.pstate = pstate();
  in.duty = duty();
  const thermal::RcNetwork& thermal = package_.thermal();
  in.temperature_c = thermal.temperature_c();
  in.fan_rpm = package_.fan().rpm();
  in.cpu_temp_c = thermal.source_temperature_c(power::Subsystem::kCpu);
  in.uncore_temp_c = thermal.source_temperature_c(power::Subsystem::kUncore);
  in.dram_temp_c = thermal.source_temperature_c(power::Subsystem::kMemory);
  const power::PowerBreakdown& breakdown = package_.breakdown();
  in.cpu_w = breakdown.subsystem_w(power::Subsystem::kCpu);
  in.uncore_w = breakdown.subsystem_w(power::Subsystem::kUncore);
  in.memory_w = breakdown.subsystem_w(power::Subsystem::kMemory);
  return in;
}

void PackageControl::add_probe_counters(telemetry::ProbeInput& in,
                                        const pmu::CounterBank& bank) {
  in.tot_ins += bank.get(Event::kTotIns);
  in.tot_cyc += bank.get(Event::kTotCyc);
  in.l1_acc += bank.get(Event::kL1Dca);
  in.l1_miss += bank.get(Event::kL1Dcm);
  in.l2_acc += bank.get(Event::kL2Tca);
  in.l2_miss += bank.get(Event::kL2Tcm);
  in.l3_acc += bank.get(Event::kL3Tca);
  in.l3_miss += bank.get(Event::kL3Tcm);
}

}  // namespace pcap::sim
