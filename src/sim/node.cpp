#include "sim/node.hpp"

#include <algorithm>

#include "sim/execution_context.hpp"

namespace pcap::sim {

Node::Node(const MachineConfig& config, std::uint64_t seed)
    : PackageControl(config, seed),
      config_(config),
      hierarchy_(config.hierarchy, bank_),
      core_(config.core, package_.pstates(), bank_) {
  package_.prime(operating_point());
  next_tick_ = config_.ticks.node_tick;
}

power::PowerInputs Node::operating_point() const {
  power::PowerInputs in;
  in.workload_running = running_;
  in.active_cores = running_ ? 1 + background_cores_ : 0;
  in.frequency = core_.frequency();
  in.voltage = core_.voltage();
  in.duty = core_.duty();
  in.l3_active_ways = static_cast<int>(hierarchy_.l3_ways());
  in.dram_gated = hierarchy_.dram_gated();
  return in;
}

void Node::tick() {
  const util::Picoseconds now = core_.now();
  next_tick_ = now + config_.ticks.node_tick;
  PackageCounters totals;
  totals += bank_;
  if (!package_.settle(now, totals, operating_point(), running_)) return;

  // OS noise: timer interrupts flush translations and drain the pipeline.
  // Fires per unit of *time*, so heavily throttled (longer) runs absorb more
  // of it — one source of the paper's counter noise at low caps.
  if (os_noise_enabled_ && running_ && package_.noise_due(now)) {
    hierarchy_.flush_tlbs();
    core_.external_drain();
  }

  run_control_hook(now);  // management plane

  // Telemetry (read-only: must not perturb any state the sim depends on).
  if constexpr (telemetry::kCompiledIn) {
    if (probe_ != nullptr && probe_->wants_sample(now)) feed_probe(now);
  }
}

void Node::feed_probe(util::Picoseconds now) {
  telemetry::ProbeInput in = probe_input(now);
  add_probe_counters(in, bank_);
  probe_->on_tick(in);
}

RunReport Node::run(Workload& workload) {
  const util::Picoseconds start = core_.now();
  const auto before = bank_.snapshot();

  running_ = true;
  package_.begin_run(start);
  next_tick_ = start + config_.ticks.node_tick;

  ExecutionContext ctx(*this);
  workload.run(ctx);
  tick();  // capture the tail of the run
  running_ = false;

  RunReport report = package_.end_run(core_.now() - start);
  report.workload = workload.name();
  const auto after = bank_.snapshot();
  for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
    report.counters[i] = after[i] - before[i];
  }
  return report;
}

void Node::idle_for(util::Picoseconds duration) {
  const util::Picoseconds end = core_.now() + duration;
  while (core_.now() < end) {
    const util::Picoseconds step =
        std::min(config_.ticks.node_tick, end - core_.now());
    core_.idle_advance(step);
    tick();
  }
}

}  // namespace pcap::sim
