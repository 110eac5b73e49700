// Symmetric multiprocessing node: N cores, each with its own pipeline,
// private L1I/L1D/L2 and TLBs, sharing the L3 and DRAM — the substrate for
// the paper's first future-work question ("how are multi-core applications
// affected by power capping?").
//
// Each workload runs on its own core; execution is strictly serialised in
// fixed simulated-time quanta, and the core with the smallest local time
// always runs next. The interleaving over the shared L3/DRAM is therefore
// deterministic (identical seeds reproduce runs bit-for-bit), while
// contention between cores is modelled for real: co-running workloads evict
// each other's L3 lines and disturb each other's DRAM row buffers.
//
// The default engine is a SINGLE-THREADED COOPERATIVE scheduler: a
// min-local-time run queue resumes each core's workload either through the
// Workload step() interface (steppable workloads) or as a stackful
// continuation (util::Fiber) for monolithic run() bodies. No host threads,
// mutexes, or condvars are involved, so an N-core quantum switch costs a
// function call or a user-space stack switch instead of two scheduler
// round-trips — the engine is also trivially safe to run inside the
// harness's `--jobs` worker pool (one engine per cell, zero shared state).
//
// The pre-existing thread-per-core token engine is retained behind the
// PCAP_SMP_LEGACY_ENGINE build flag (ON by default) purely as the
// differential baseline: tests/test_smp_equivalence.cpp proves the
// cooperative engine reproduces its reports bit-for-bit, and
// bench/micro_simspeed measures the speedup against it.
//
// The SmpNode exposes the same PlatformControl face as the single-core
// Node, so the unmodified BMC firmware caps it; P-state/duty/gating
// actuations apply to every core (package-level control, as on the real
// platform).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#if defined(PCAP_SMP_LEGACY_ENGINE)
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#endif

#include "cache/cache.hpp"
#include "mem/dram.hpp"
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
#include "util/fiber.hpp"

namespace pcap::sim {

enum class SmpEngine : std::uint8_t {
  /// Single-threaded cooperative run queue (default).
  kCooperative,
  /// Thread-per-core mutex/condvar token engine — differential baseline,
  /// available only when built with PCAP_SMP_LEGACY_ENGINE.
  kThreadedLegacy,
};

struct SmpConfig {
  MachineConfig machine = MachineConfig::romley();
  int cores = 2;
  /// Scheduling quantum in simulated time: a core runs at most this long
  /// before the engine resumes the laggard core.
  util::Picoseconds quantum = util::microseconds(5);
  SmpEngine engine = SmpEngine::kCooperative;
};

struct SmpCoreReport {
  std::string workload;
  util::Picoseconds elapsed = 0;
  /// This core's slice of the package energy, attributed by busy time
  /// (power metering is package-level, so an exact per-core split does not
  /// exist on this platform — same limitation as the paper's wall meter).
  /// The shares of all cores sum to SmpRunReport::energy_j.
  double energy_share_j = 0.0;
  std::array<std::uint64_t, pmu::kEventCount> counters{};

  std::uint64_t counter(pmu::Event e) const {
    return counters[pmu::index_of(e)];
  }
};

struct SmpRunReport {
  util::Picoseconds elapsed = 0;  // slowest core's finish time
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;
  util::Hertz avg_frequency = 0;
  std::vector<SmpCoreReport> cores;
  /// Aggregate counter deltas across all cores.
  std::array<std::uint64_t, pmu::kEventCount> counters{};

  std::uint64_t counter(pmu::Event e) const {
    return counters[pmu::index_of(e)];
  }
};

class SmpNode final : public PackageControl {
 public:
  explicit SmpNode(const SmpConfig& config, std::uint64_t seed = 1);
  ~SmpNode() override;

  SmpNode(const SmpNode&) = delete;
  SmpNode& operator=(const SmpNode&) = delete;

  int core_count() const { return static_cast<int>(lanes_.size()); }
  const SmpConfig& config() const { return config_; }

  /// Runs one workload per core (workloads.size() <= core_count();
  /// remaining cores stay parked). Throws std::invalid_argument on size
  /// mismatch, null or duplicate entries. Exception-safe: a throwing
  /// workload (or control hook) unwinds every suspended co-runner before
  /// the exception escapes, and the engine never leaks a joinable thread
  /// or a live continuation.
  SmpRunReport run(std::span<Workload* const> workloads);

  void set_os_noise(bool enabled) { os_noise_enabled_ = enabled; }

  /// Attaches a package-level telemetry probe fed every housekeeping tick
  /// (aggregate counters across cores; nullptr detaches). Read-only:
  /// results are bit-identical with or without it.
  void set_telemetry(telemetry::NodeProbe* probe) { probe_ = probe; }
  /// Attaches per-core probes (probes[i] follows core i; shorter spans
  /// leave the remaining cores unprobed, null entries skip a core). Each
  /// probe sees the package operating point (frequency/P-state/duty are
  /// package-wide) with that core's private counters, so per-core
  /// frequency and IPC series can be charted side by side.
  void set_core_telemetry(std::span<telemetry::NodeProbe* const> probes) {
    core_probes_.assign(probes.begin(), probes.end());
  }

  /// Cold-start hygiene between measured runs (the single-core
  /// CappedRunner's equivalent): drops every cache/TLB on every core plus
  /// the shared levels.
  void flush_all_caches();

  const cache::Cache& shared_l3() const { return l3_; }
  const mem::Dram& shared_dram() const { return dram_; }

  // --- PlatformControl (package-level: applies to every core; the
  // power, thermal and fan sensors are PackageControl's) ---
  std::uint32_t pstate() const override;
  void set_pstate(std::uint32_t index) override;
  util::Hertz frequency() const override;
  double duty() const override;
  void set_duty(double duty) override;
  std::uint32_t l3_ways() const override { return l3_.active_ways(); }
  std::uint32_t l3_max_ways() const override {
    return config_.machine.hierarchy.l3.ways;
  }
  void set_l3_ways(std::uint32_t n) override;
  std::uint32_t l2_ways() const override;
  std::uint32_t l2_max_ways() const override {
    return config_.machine.hierarchy.l2.ways;
  }
  void set_l2_ways(std::uint32_t n) override;
  std::uint32_t itlb_entries() const override;
  std::uint32_t itlb_max_entries() const override {
    return config_.machine.hierarchy.itlb.entries;
  }
  void set_itlb_entries(std::uint32_t n) override;
  std::uint32_t dtlb_entries() const override;
  std::uint32_t dtlb_max_entries() const override {
    return config_.machine.hierarchy.dtlb.entries;
  }
  void set_dtlb_entries(std::uint32_t n) override;
  bool dram_gated() const override { return dram_.gated(); }
  void set_dram_gated(bool gated) override { dram_.set_gated(gated); }
  util::Picoseconds now() const override { return node_now_; }

 private:
  /// One core's execution lane; implements the per-op quantum check. The
  /// lane doubles as the per-core stream context holder: its
  /// ExecutionContext carries the fast-path stream machinery (PR 2), whose
  /// bulk groups truncate at this lane's quantum horizon, so batching
  /// stays legal under co-runners (DESIGN.md §12).
  struct Lane final : TickSink {
    SmpNode* owner = nullptr;
    int index = 0;
    pmu::CounterBank bank;
    std::unique_ptr<MemoryHierarchy> hierarchy;
    std::unique_ptr<CoreModel> core;
    Workload* workload = nullptr;
    bool finished = true;  // no workload assigned yet
    util::Picoseconds quantum_end = 0;
    std::array<std::uint64_t, pmu::kEventCount> start_counters{};
    util::Picoseconds start_time = 0;

    // Cooperative-engine state (per run).
    std::unique_ptr<ExecutionContext> ctx;
    std::unique_ptr<util::Fiber> fiber;  // null for steppable workloads

#if defined(PCAP_SMP_LEGACY_ENGINE)
    std::thread thread;
    std::exception_ptr error;
#endif

    void on_op() override;
    /// A lane keeps running without yielding until its quantum expires.
    util::Picoseconds op_horizon() const override { return quantum_end; }
  };

  void yield_from(Lane& lane);
  int pick_next_lane() const;  // -1 when all finished

  /// Shared run() prologue/epilogue (identical for both engines).
  util::Picoseconds prepare_run(std::span<Workload* const> workloads);
  SmpRunReport finish_run(std::span<Workload* const> workloads,
                          util::Picoseconds start);
  /// Housekeeping after one lane's quantum: advance node time to the
  /// slowest unfinished core (everything before that point is final).
  void settle_quantum();

  SmpRunReport run_cooperative(std::span<Workload* const> workloads);
  /// Unwinds every suspended continuation and clears per-run lane state.
  void teardown_lanes() noexcept;

#if defined(PCAP_SMP_LEGACY_ENGINE)
  struct EngineAbort {};  // thrown into lanes to unwind an aborted run
  SmpRunReport run_threaded(std::span<Workload* const> workloads);
  void finish_from(Lane& lane);
#endif

  void housekeeping(util::Picoseconds upto);
  void feed_probes(util::Picoseconds now);
  /// The operating point the package step prices.
  power::PowerInputs operating_point() const;
  /// Counter totals summed over every lane.
  PackageCounters counter_totals() const;
  int running_lanes() const;

  SmpConfig config_;
  cache::Cache l3_;
  mem::Dram dram_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  telemetry::NodeProbe* probe_ = nullptr;
  std::vector<telemetry::NodeProbe*> core_probes_;
  bool os_noise_enabled_ = true;
  bool running_ = false;

#if defined(PCAP_SMP_LEGACY_ENGINE)
  std::mutex mutex_;
  std::condition_variable cv_;
  int token_ = -1;  // lane index holding the token; -1 == master
  bool abort_ = false;
#endif

  util::Picoseconds node_now_ = 0;
};

}  // namespace pcap::sim
