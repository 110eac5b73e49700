// The simulated compute node: one active core driving the memory hierarchy,
// the package power/thermal/meter step (sim/package.hpp), and the
// housekeeping tick loop that the management plane (BMC) hooks into.
//
// The Node implements PlatformControl, so BMC firmware written against that
// interface manages this node exactly as Intel Node Manager manages a real
// one: sampling averaged power and actuating P-states, T-states, cache/TLB
// gating and memory gating, all out-of-band from the workload.
#pragma once

#include <cstdint>

#include "pmu/counters.hpp"
#include "power/model.hpp"
#include "sim/core_model.hpp"
#include "sim/execution_context.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/package.hpp"
#include "sim/platform_control.hpp"
#include "sim/workload.hpp"
#include "telemetry/probe.hpp"
#include "util/units.hpp"

namespace pcap::sim {

class Node final : public PackageControl, public TickSink {
 public:
  explicit Node(const MachineConfig& config, std::uint64_t seed = 1);

  // Non-copyable (the ExecutionContext and hooks hold references).
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Runs a workload to completion under the current management policy and
  /// returns the measured report.
  RunReport run(Workload& workload);

  /// Advances simulated time with no workload (for idle-power measurement).
  void idle_for(util::Picoseconds duration);

  /// Resets the meter session (used with idle_for to measure idle power).
  void start_metering() { package_.start_metering(core_.now()); }

  /// Enables/disables the OS-noise model (periodic TLB flush + pipeline
  /// drain from timer interrupts). On by default.
  void set_os_noise(bool enabled) { os_noise_enabled_ = enabled; }

  /// Attaches a telemetry probe fed every housekeeping tick (nullptr
  /// detaches). The probe only reads state: simulated results are
  /// bit-identical with or without one (tests/test_telemetry.cpp).
  void set_telemetry(telemetry::NodeProbe* probe) { probe_ = probe; }
  telemetry::NodeProbe* telemetry_probe() { return probe_; }

  /// Extension (paper §V future work): additional cores kept active while a
  /// workload runs. They contribute core power (raising the demand the BMC
  /// must throttle) but their instruction streams are not simulated.
  void set_background_active_cores(int n) { background_cores_ = n; }
  int background_active_cores() const { return background_cores_; }

  // --- component access ---
  const MachineConfig& config() const { return config_; }
  pmu::CounterBank& counters() { return bank_; }
  const pmu::CounterBank& counters() const { return bank_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  CoreModel& core() { return core_; }
  bool workload_running() const { return running_; }

  // --- PlatformControl (the BMC-facing surface; PackageControl has the
  // power, thermal and fan sensors) ---
  std::uint32_t pstate() const override { return core_.pstate(); }
  void set_pstate(std::uint32_t index) override { core_.set_pstate(index); }
  util::Hertz frequency() const override { return core_.frequency(); }
  double duty() const override { return core_.duty(); }
  void set_duty(double duty) override { core_.set_duty(duty); }
  std::uint32_t l3_ways() const override { return hierarchy_.l3_ways(); }
  std::uint32_t l3_max_ways() const override {
    return config_.hierarchy.l3.ways;
  }
  void set_l3_ways(std::uint32_t n) override { hierarchy_.set_l3_ways(n); }
  std::uint32_t l2_ways() const override { return hierarchy_.l2_ways(); }
  std::uint32_t l2_max_ways() const override {
    return config_.hierarchy.l2.ways;
  }
  void set_l2_ways(std::uint32_t n) override { hierarchy_.set_l2_ways(n); }
  std::uint32_t itlb_entries() const override { return hierarchy_.itlb_entries(); }
  std::uint32_t itlb_max_entries() const override {
    return config_.hierarchy.itlb.entries;
  }
  void set_itlb_entries(std::uint32_t n) override {
    hierarchy_.set_itlb_entries(n);
  }
  std::uint32_t dtlb_entries() const override { return hierarchy_.dtlb_entries(); }
  std::uint32_t dtlb_max_entries() const override {
    return config_.hierarchy.dtlb.entries;
  }
  void set_dtlb_entries(std::uint32_t n) override {
    hierarchy_.set_dtlb_entries(n);
  }
  bool dram_gated() const override { return hierarchy_.dram_gated(); }
  void set_dram_gated(bool gated) override { hierarchy_.set_dram_gated(gated); }
  util::Picoseconds now() const override { return core_.now(); }

  /// Called by the ExecutionContext after every priced operation; runs the
  /// housekeeping tick when due.
  void maybe_tick() {
    if (core_.now() >= next_tick_) tick();
  }
  void on_op() override { maybe_tick(); }
  /// maybe_tick() is a no-op until the next housekeeping boundary.
  util::Picoseconds op_horizon() const override { return next_tick_; }

 private:
  void tick();
  /// The operating point the package step prices.
  power::PowerInputs operating_point() const;
  void feed_probe(util::Picoseconds now);

  MachineConfig config_;
  pmu::CounterBank bank_;
  MemoryHierarchy hierarchy_;
  CoreModel core_;
  telemetry::NodeProbe* probe_ = nullptr;

  bool running_ = false;
  bool os_noise_enabled_ = true;
  int background_cores_ = 0;

  util::Picoseconds next_tick_ = 0;
};

}  // namespace pcap::sim
