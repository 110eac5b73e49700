#include "sim/smp_node.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/units.hpp"

namespace pcap::sim {

SmpNode::SmpNode(const SmpConfig& config, std::uint64_t seed)
    : PackageControl(config.machine, seed),
      config_(config),
      l3_(config.machine.hierarchy.l3),
      dram_(config.machine.hierarchy.dram) {
  if (config.cores < 1) throw std::invalid_argument("SmpNode: cores < 1");
  if (config.cores > config.machine.power.cores) {
    throw std::invalid_argument("SmpNode: more cores than the platform has");
  }
#if !defined(PCAP_SMP_LEGACY_ENGINE)
  if (config.engine == SmpEngine::kThreadedLegacy) {
    throw std::invalid_argument(
        "SmpNode: legacy token engine compiled out (PCAP_SMP_LEGACY_ENGINE)");
  }
#endif
  lanes_.reserve(static_cast<std::size_t>(config.cores));
  for (int i = 0; i < config.cores; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->owner = this;
    lane->index = i;
    lane->hierarchy = std::make_unique<MemoryHierarchy>(
        config.machine.hierarchy, lane->bank, l3_, dram_);
    lane->core = std::make_unique<CoreModel>(config.machine.core,
                                             package_.pstates(), lane->bank);
    lanes_.push_back(std::move(lane));
  }
  package_.prime(operating_point());
}

SmpNode::~SmpNode() { teardown_lanes(); }

// --- PlatformControl: package-level actuation ---

std::uint32_t SmpNode::pstate() const { return lanes_.front()->core->pstate(); }

void SmpNode::set_pstate(std::uint32_t index) {
  for (auto& lane : lanes_) lane->core->set_pstate(index);
}

util::Hertz SmpNode::frequency() const {
  return lanes_.front()->core->frequency();
}

double SmpNode::duty() const { return lanes_.front()->core->duty(); }

void SmpNode::set_duty(double duty) {
  for (auto& lane : lanes_) lane->core->set_duty(duty);
}

void SmpNode::set_l3_ways(std::uint32_t n) {
  const bool shrinking = n < l3_.active_ways();
  l3_.set_active_ways(n);
  if (shrinking) {
    // Inclusive-L3 reconfiguration disrupts every core's private levels.
    for (auto& lane : lanes_) lane->hierarchy->flush_private();
  }
}

std::uint32_t SmpNode::l2_ways() const {
  return lanes_.front()->hierarchy->l2_ways();
}

void SmpNode::set_l2_ways(std::uint32_t n) {
  for (auto& lane : lanes_) lane->hierarchy->set_l2_ways(n);
}

std::uint32_t SmpNode::itlb_entries() const {
  return lanes_.front()->hierarchy->itlb_entries();
}

void SmpNode::set_itlb_entries(std::uint32_t n) {
  for (auto& lane : lanes_) lane->hierarchy->set_itlb_entries(n);
}

std::uint32_t SmpNode::dtlb_entries() const {
  return lanes_.front()->hierarchy->dtlb_entries();
}

void SmpNode::set_dtlb_entries(std::uint32_t n) {
  for (auto& lane : lanes_) lane->hierarchy->set_dtlb_entries(n);
}

void SmpNode::flush_all_caches() {
  for (auto& lane : lanes_) {
    lane->hierarchy->flush_private();
    lane->hierarchy->flush_tlbs();
  }
  l3_.flush_all();
  dram_.close_rows();
}

// --- power assembly ---

int SmpNode::running_lanes() const {
  int count = 0;
  for (const auto& lane : lanes_) count += lane->finished ? 0 : 1;
  return count;
}

power::PowerInputs SmpNode::operating_point() const {
  power::PowerInputs in;
  const int active = running_lanes();
  in.workload_running = running_ && active > 0;
  in.active_cores = in.workload_running ? active : 0;
  in.frequency = frequency();
  in.voltage = lanes_.front()->core->voltage();
  in.duty = duty();
  in.l3_active_ways = static_cast<int>(l3_.active_ways());
  in.dram_gated = dram_.gated();
  return in;
}

PackageCounters SmpNode::counter_totals() const {
  PackageCounters totals;
  for (const auto& lane : lanes_) totals += lane->bank;
  return totals;
}

void SmpNode::housekeeping(util::Picoseconds upto) {
  if (!package_.settle(upto, counter_totals(), operating_point(), running_)) {
    return;
  }
  node_now_ = upto;

  if constexpr (telemetry::kCompiledIn) feed_probes(upto);

  if (os_noise_enabled_ && running_ && package_.noise_due(upto)) {
    for (auto& lane : lanes_) {
      lane->hierarchy->flush_tlbs();
      if (!lane->finished) lane->core->external_drain();
    }
  }
  run_control_hook(upto);
}

void SmpNode::feed_probes(util::Picoseconds now) {
  // Probes only read simulator state; feeding them cannot perturb the run.
  const auto package_due =
      probe_ != nullptr && probe_->wants_sample(now);
  bool any_core_due = false;
  for (std::size_t i = 0; i < core_probes_.size() && i < lanes_.size(); ++i) {
    if (core_probes_[i] != nullptr && core_probes_[i]->wants_sample(now)) {
      any_core_due = true;
      break;
    }
  }
  if (!package_due && !any_core_due) return;

  const telemetry::ProbeInput in = probe_input(now);
  if (package_due) {
    telemetry::ProbeInput agg = in;
    for (const auto& lane : lanes_) add_probe_counters(agg, lane->bank);
    probe_->on_tick(agg);
  }
  for (std::size_t i = 0; i < core_probes_.size() && i < lanes_.size(); ++i) {
    telemetry::NodeProbe* probe = core_probes_[i];
    if (probe == nullptr || !probe->wants_sample(now)) continue;
    telemetry::ProbeInput per = in;  // package operating point ...
    add_probe_counters(per, lanes_[i]->bank);  // ... core counters
    probe->on_tick(per);
  }
}

// --- quantum scheduling (shared by both engines) ---

void SmpNode::Lane::on_op() {
  if (core->now() < quantum_end) return;
  owner->yield_from(*this);
}

void SmpNode::yield_from(Lane& lane) {
  if (lane.fiber != nullptr) {
    // Cooperative: suspend the continuation back to the run queue.
    util::Fiber::yield();
    return;
  }
#if defined(PCAP_SMP_LEGACY_ENGINE)
  if (config_.engine == SmpEngine::kThreadedLegacy) {
    std::unique_lock<std::mutex> lock(mutex_);
    token_ = -1;
    cv_.notify_all();
    cv_.wait(lock, [this, &lane] { return token_ == lane.index || abort_; });
    if (abort_) throw EngineAbort{};
    return;
  }
#endif
  // Steppable lane: step() observes the clock and returns on its own; the
  // sink has nothing to do.
}

int SmpNode::pick_next_lane() const {
  int best = -1;
  for (const auto& lane : lanes_) {
    if (lane->finished) continue;
    if (best < 0 || lane->core->now() < lanes_[static_cast<std::size_t>(best)]
                                            ->core->now()) {
      best = lane->index;
    }
  }
  return best;
}

void SmpNode::settle_quantum() {
  // Housekeeping runs up to the slowest unfinished core (everything before
  // that point is final).
  util::Picoseconds horizon = 0;
  bool any_unfinished = false;
  for (const auto& lane : lanes_) {
    if (!lane->finished) {
      horizon = any_unfinished ? std::min(horizon, lane->core->now())
                               : lane->core->now();
      any_unfinished = true;
    }
  }
  if (any_unfinished) housekeeping(horizon);
}

// --- run prologue / epilogue (engine-independent) ---

util::Picoseconds SmpNode::prepare_run(std::span<Workload* const> workloads) {
  if (workloads.empty() ||
      workloads.size() > static_cast<std::size_t>(core_count())) {
    throw std::invalid_argument("SmpNode::run: bad workload count");
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (workloads[i] == nullptr) {
      throw std::invalid_argument("SmpNode::run: null workload");
    }
    for (std::size_t j = i + 1; j < workloads.size(); ++j) {
      if (workloads[i] == workloads[j]) {
        // One workload object carries one instruction-stream state; two
        // lanes advancing it would interleave that state incoherently.
        throw std::invalid_argument("SmpNode::run: duplicate workload");
      }
    }
  }

  // Align every core to a common start time.
  util::Picoseconds start = node_now_;
  for (const auto& lane : lanes_) start = std::max(start, lane->core->now());
  for (const auto& lane : lanes_) {
    if (lane->core->now() < start) {
      lane->core->idle_advance(start - lane->core->now());
    }
  }

  running_ = true;
  package_.begin_run(start);
  package_.rebase(counter_totals());
  node_now_ = start;

  for (auto& lane : lanes_) {
    lane->workload = nullptr;
    lane->finished = true;
    lane->start_time = start;
    lane->start_counters = lane->bank.snapshot();
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    lanes_[i]->workload = workloads[i];
    lanes_[i]->finished = false;
  }
  return start;
}

SmpRunReport SmpNode::finish_run(std::span<Workload* const> workloads,
                                 util::Picoseconds start) {
  // Close out the run at the slowest core's finish time.
  util::Picoseconds end = start;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    end = std::max(end, lanes_[i]->core->now());
  }
  housekeeping(end);
  running_ = false;

  SmpRunReport report;
  report.elapsed = end - start;
  const RunReport run = package_.end_run(report.elapsed);
  report.energy_j = run.energy_j;
  report.avg_power_w = run.avg_power_w;
  report.peak_power_w = run.peak_power_w;
  report.avg_frequency = run.avg_frequency;
  double busy_s_total = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Lane& lane = *lanes_[i];
    SmpCoreReport core_report;
    core_report.workload = workloads[i]->name();
    core_report.elapsed = lane.core->now() - lane.start_time;
    busy_s_total += util::to_seconds(core_report.elapsed);
    const auto after = lane.bank.snapshot();
    for (std::size_t e = 0; e < pmu::kEventCount; ++e) {
      core_report.counters[e] = after[e] - lane.start_counters[e];
      report.counters[e] += core_report.counters[e];
    }
    report.cores.push_back(std::move(core_report));
  }
  // Package energy attributed per core by busy time (there is no per-core
  // meter on this platform); shares sum to the metered total.
  for (SmpCoreReport& core_report : report.cores) {
    core_report.energy_share_j =
        busy_s_total > 0.0
            ? report.energy_j *
                  (util::to_seconds(core_report.elapsed) / busy_s_total)
            : 0.0;
  }
  return report;
}

void SmpNode::teardown_lanes() noexcept {
  for (auto& lane : lanes_) {
    if (lane->fiber != nullptr && !lane->fiber->done()) {
      // Unwind the suspended workload stack through its destructors.
      lane->fiber->cancel();
    }
    lane->fiber.reset();
    lane->ctx.reset();
  }
}

// --- cooperative engine ---

SmpRunReport SmpNode::run(std::span<Workload* const> workloads) {
#if defined(PCAP_SMP_LEGACY_ENGINE)
  if (config_.engine == SmpEngine::kThreadedLegacy) {
    return run_threaded(workloads);
  }
#endif
  return run_cooperative(workloads);
}

SmpRunReport SmpNode::run_cooperative(std::span<Workload* const> workloads) {
  const util::Picoseconds start = prepare_run(workloads);

  // Per-core stream contexts: each lane gets its own ExecutionContext whose
  // sink horizon is that lane's quantum end, so the PR 2 batched streams
  // (load/store/rmw/pattern) elide per-op sink calls inside a quantum and
  // truncate bulk groups exactly at the quantum boundary.
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    Lane* lane = lanes_[i].get();
    lane->ctx = std::make_unique<ExecutionContext>(
        *lane->hierarchy, *lane->core, *lane, config_.machine,
        static_cast<std::uint32_t>(lane->index));
    if (lane->workload->supports_step()) {
      lane->workload->begin_steps();
      lane->fiber = nullptr;
    } else {
      lane->fiber = std::make_unique<util::Fiber>(
          [lane] { lane->workload->run(*lane->ctx); });
    }
  }

  try {
    // Min-local-time run queue: always resume the laggard core for one
    // quantum, then settle node housekeeping behind the pack.
    for (;;) {
      const int next = pick_next_lane();
      if (next < 0) break;
      Lane& lane = *lanes_[static_cast<std::size_t>(next)];
      lane.quantum_end = lane.core->now() + config_.quantum;
      if (lane.fiber != nullptr) {
        lane.fiber->resume();
        if (lane.fiber->done()) {
          lane.finished = true;
          if (auto error = lane.fiber->exception()) {
            std::rethrow_exception(error);
          }
        }
      } else {
        if (lane.workload->step(*lane.ctx, lane.quantum_end)) {
          lane.finished = true;
        }
      }
      settle_quantum();
    }
  } catch (...) {
    // A workload or control hook threw: unwind every suspended co-runner
    // before the exception escapes so no continuation outlives the run.
    teardown_lanes();
    running_ = false;
    throw;
  }

  teardown_lanes();
  return finish_run(workloads, start);
}

// --- legacy thread-per-core token engine (differential baseline) ---

#if defined(PCAP_SMP_LEGACY_ENGINE)

void SmpNode::finish_from(Lane& lane) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lane.finished = true;
  token_ = -1;
  cv_.notify_all();
}

SmpRunReport SmpNode::run_threaded(std::span<Workload* const> workloads) {
  const util::Picoseconds start = prepare_run(workloads);
  abort_ = false;

  // Launch one host thread per active lane; each waits for the token. A
  // workload exception is captured on the lane (never escapes the thread),
  // and an engine abort wakes every parked lane to unwind via EngineAbort —
  // either way the thread reaches finish_from and stays joinable exactly
  // until the join loop below (the old engine leaked joinable threads when
  // e.g. a control hook threw in the master loop).
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    Lane* lane = lanes_[i].get();
    lane->error = nullptr;
    lane->thread = std::thread([this, lane] {
      try {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock,
                   [this, lane] { return token_ == lane->index || abort_; });
          if (abort_) throw EngineAbort{};
        }
        ExecutionContext ctx(*lane->hierarchy, *lane->core, *lane,
                             config_.machine,
                             static_cast<std::uint32_t>(lane->index));
        lane->workload->run(ctx);
      } catch (const EngineAbort&) {
        // Aborted run: nothing to record, just park the lane.
      } catch (...) {
        lane->error = std::current_exception();
      }
      finish_from(*lane);
    });
  }

  // Master scheduling loop: always advance the laggard core.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    try {
      for (;;) {
        const int next = pick_next_lane();
        if (next < 0) break;
        Lane& lane = *lanes_[static_cast<std::size_t>(next)];
        lane.quantum_end = lane.core->now() + config_.quantum;
        token_ = next;
        cv_.notify_all();
        cv_.wait(lock, [this] { return token_ == -1; });
        if (lane.error != nullptr) {
          error = lane.error;
          lane.error = nullptr;
          break;
        }
        settle_quantum();
      }
    } catch (...) {
      error = std::current_exception();
    }
    if (error != nullptr) {
      abort_ = true;
      cv_.notify_all();
    }
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  abort_ = false;
  if (error != nullptr) {
    running_ = false;
    std::rethrow_exception(error);
  }

  return finish_run(workloads, start);
}

#endif  // PCAP_SMP_LEGACY_ENGINE

}  // namespace pcap::sim
