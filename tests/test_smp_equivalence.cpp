// Differential tests for the cooperative single-threaded SMP engine
// (DESIGN.md §12): an engine change may change how fast the simulator
// runs, never what it computes.
//
//  * Exact-output pins: every report field of steppable, monolithic
//    (fiber), and mixed workload sets, with and without BMC capping, as
//    captured from the thread-per-core token engine this one replaced.
//  * Native stepping vs forced-fiber execution of the same workload:
//    identical resume points, identical reports.
//  * Quantum-boundary batching legality: the PR 2 stream fast paths
//    truncate bulk groups at the lane's quantum horizon, so a stream-API
//    workload co-running with an antagonist matches its per-op twin
//    bit for bit.
//  * `--jobs` invariance: independent SMP cells return bit-identical
//    reports whether run serially or on a worker pool.
//  * Exception safety: a throwing workload or control hook unwinds every
//    suspended co-runner (destructors run) and leaves the engine reusable.
//  * Telemetry neutrality: attaching package/per-core probes never
//    perturbs the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "pin_render.hpp"
#include "sim/execution_context.hpp"
#include "sim/smp_node.hpp"
#include "telemetry/probe.hpp"
#include "util/thread_pool.hpp"

namespace pcap::sim {
namespace {

using pmu::Event;

void expect_identical(const SmpRunReport& a, const SmpRunReport& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.avg_frequency, b.avg_frequency);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].workload, b.cores[i].workload) << "core " << i;
    EXPECT_EQ(a.cores[i].elapsed, b.cores[i].elapsed) << "core " << i;
    EXPECT_EQ(a.cores[i].counters, b.cores[i].counters) << "core " << i;
  }
}

SmpConfig make_config(int cores) {
  SmpConfig config;
  config.cores = cores;
  return config;
}

/// Runs one capped cell on a fresh node: workloads are rebuilt per run so
/// no run sees state left behind by another.
template <typename MakeWorkloads>
SmpRunReport run_cell(MakeWorkloads make, std::uint64_t seed,
                      double cap_w = 0.0) {
  auto workloads = make();
  std::vector<Workload*> ptrs;
  for (auto& w : workloads) ptrs.push_back(w.get());
  SmpNode node(make_config(static_cast<int>(ptrs.size())), seed);
  core::Bmc bmc(node);
  if (cap_w > 0.0) {
    node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
    bmc.set_cap(cap_w);
  }
  return node.run(ptrs);
}

std::vector<std::unique_ptr<Workload>> steppable_mix() {
  std::vector<std::unique_ptr<Workload>> ws;
  ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(12ull << 20,
                                                           140000));
  ws.push_back(std::make_unique<apps::ComputeBoundWorkload>(400000));
  return ws;
}

std::vector<std::unique_ptr<Workload>> mixed_mix() {
  // A fiber-driven monolithic workload co-running with steppables.
  std::vector<std::unique_ptr<Workload>> ws;
  ws.push_back(std::make_unique<apps::PhasedWorkload>());
  ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(8ull << 20,
                                                           120000));
  ws.push_back(std::make_unique<apps::ComputeBoundWorkload>(300000));
  return ws;
}

// --- exact-output pins ------------------------------------------------------

// Every report field of three cells, captured from the thread-per-core
// token engine the cooperative engine replaced, which computed them the same
// way. The mixed cells drive one monolithic workload through a fiber; the
// capped cell is 150 W under the BMC. The peaks are pinned as they are (see
// PackagePin.CappedTwoCoreSmpNode).

TEST(SmpEquivalence, PinnedSteppable) {
  const SmpRunReport report = run_cell(steppable_mix, 17);
  EXPECT_EQ(test::render(report),
            "elapsed=8086646300\n"
            "energy_j=0x1.45b3fb6b1f9cdp+0\n"
            "avg_power_w=0x1.3aa94ed9d3dfp+7\n"
            "peak_power_w=0x1.a5850457f311bp+9\n"
            "avg_frequency=2700999999\n"
            "PCAP_TOT_CYC=22047633\n"
            "PCAP_TOT_INS=820000\n"
            "PCAP_INS_EXEC=837208\n"
            "PCAP_LD_INS=140000\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=65599\n"
            "PCAP_BR_MSP=786\n"
            "PCAP_L1_DCA=140000\n"
            "PCAP_L1_DCM=140000\n"
            "PCAP_L1_ICA=102500\n"
            "PCAP_L1_ICM=448\n"
            "PCAP_L2_TCA=140448\n"
            "PCAP_L2_TCM=140448\n"
            "PCAP_L3_TCA=140448\n"
            "PCAP_L3_TCM=140448\n"
            "PCAP_TLB_DM=2219\n"
            "PCAP_TLB_IM=100\n"
            "PCAP_DRAM_ACC=140448\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=18176249\n"
            "core0.workload=memory-bound\n"
            "core0.elapsed=8086646300\n"
            "core0.energy_share_j=0x1.41619f2ce1af4p+0\n"
            "core0.PCAP_TOT_CYC=21753917\n"
            "core0.PCAP_TOT_INS=420000\n"
            "core0.PCAP_INS_EXEC=429548\n"
            "core0.PCAP_LD_INS=140000\n"
            "core0.PCAP_SR_INS=0\n"
            "core0.PCAP_BR_INS=33599\n"
            "core0.PCAP_BR_MSP=403\n"
            "core0.PCAP_L1_DCA=140000\n"
            "core0.PCAP_L1_DCM=140000\n"
            "core0.PCAP_L1_ICA=52500\n"
            "core0.PCAP_L1_ICM=192\n"
            "core0.PCAP_L2_TCA=140192\n"
            "core0.PCAP_L2_TCM=140192\n"
            "core0.PCAP_L3_TCA=140192\n"
            "core0.PCAP_L3_TCM=140192\n"
            "core0.PCAP_TLB_DM=2219\n"
            "core0.PCAP_TLB_IM=96\n"
            "core0.PCAP_DRAM_ACC=140192\n"
            "core0.PCAP_L2_PF=0\n"
            "core0.PCAP_STALL_CYC=18143127\n"
            "core1.workload=compute-bound\n"
            "core1.elapsed=108743780\n"
            "core1.energy_share_j=0x1.14970f8f7b618p-6\n"
            "core1.PCAP_TOT_CYC=293716\n"
            "core1.PCAP_TOT_INS=400000\n"
            "core1.PCAP_INS_EXEC=407660\n"
            "core1.PCAP_LD_INS=0\n"
            "core1.PCAP_SR_INS=0\n"
            "core1.PCAP_BR_INS=32000\n"
            "core1.PCAP_BR_MSP=383\n"
            "core1.PCAP_L1_DCA=0\n"
            "core1.PCAP_L1_DCM=0\n"
            "core1.PCAP_L1_ICA=50000\n"
            "core1.PCAP_L1_ICM=256\n"
            "core1.PCAP_L2_TCA=256\n"
            "core1.PCAP_L2_TCM=256\n"
            "core1.PCAP_L3_TCA=256\n"
            "core1.PCAP_L3_TCM=256\n"
            "core1.PCAP_TLB_DM=0\n"
            "core1.PCAP_TLB_IM=4\n"
            "core1.PCAP_DRAM_ACC=256\n"
            "core1.PCAP_L2_PF=0\n"
            "core1.PCAP_STALL_CYC=33122\n");
}

TEST(SmpEquivalence, PinnedMixedFiberSteppable) {
  const SmpRunReport report = run_cell(mixed_mix, 23);
  EXPECT_EQ(test::render(report),
            "elapsed=11101655910\n"
            "energy_j=0x1.02c4c319bda8cp+1\n"
            "avg_power_w=0x1.6c3409a103464p+7\n"
            "peak_power_w=0x1.99549417401a2p+12\n"
            "avg_frequency=2700999999\n"
            "PCAP_TOT_CYC=48800057\n"
            "PCAP_TOT_INS=4151732\n"
            "PCAP_INS_EXEC=4234772\n"
            "PCAP_LD_INS=642972\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=332137\n"
            "PCAP_BR_MSP=3984\n"
            "PCAP_L1_DCA=642972\n"
            "PCAP_L1_DCM=642972\n"
            "PCAP_L1_ICA=518966\n"
            "PCAP_L1_ICM=960\n"
            "PCAP_L2_TCA=643932\n"
            "PCAP_L2_TCM=643932\n"
            "PCAP_L3_TCA=643932\n"
            "PCAP_L3_TCM=238031\n"
            "PCAP_TLB_DM=10116\n"
            "PCAP_TLB_IM=260\n"
            "PCAP_DRAM_ACC=238031\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=30806890\n"
            "core0.workload=phased-unpredictable\n"
            "core0.elapsed=11101655910\n"
            "core0.energy_share_j=0x1.3d14cfb1b0d5dp+0\n"
            "core0.PCAP_TOT_CYC=29919030\n"
            "core0.PCAP_TOT_INS=3491732\n"
            "core0.PCAP_INS_EXEC=3560836\n"
            "core0.PCAP_LD_INS=522972\n"
            "core0.PCAP_SR_INS=0\n"
            "core0.PCAP_BR_INS=279338\n"
            "core0.PCAP_BR_MSP=3352\n"
            "core0.PCAP_L1_DCA=522972\n"
            "core0.PCAP_L1_DCM=522972\n"
            "core0.PCAP_L1_ICA=436466\n"
            "core0.PCAP_L1_ICM=512\n"
            "core0.PCAP_L2_TCA=523484\n"
            "core0.PCAP_L2_TCM=523484\n"
            "core0.PCAP_L3_TCA=523484\n"
            "core0.PCAP_L3_TCM=117583\n"
            "core0.PCAP_TLB_DM=8214\n"
            "core0.PCAP_TLB_IM=172\n"
            "core0.PCAP_DRAM_ACC=117583\n"
            "core0.PCAP_L2_PF=0\n"
            "core0.PCAP_STALL_CYC=15218187\n"
            "core1.workload=memory-bound\n"
            "core1.elapsed=6933244380\n"
            "core1.energy_share_j=0x1.8c0ca5b5e4e67p-1\n"
            "core1.PCAP_TOT_CYC=18651155\n"
            "core1.PCAP_TOT_INS=360000\n"
            "core1.PCAP_INS_EXEC=368196\n"
            "core1.PCAP_LD_INS=120000\n"
            "core1.PCAP_SR_INS=0\n"
            "core1.PCAP_BR_INS=28799\n"
            "core1.PCAP_BR_MSP=345\n"
            "core1.PCAP_L1_DCA=120000\n"
            "core1.PCAP_L1_DCM=120000\n"
            "core1.PCAP_L1_ICA=45000\n"
            "core1.PCAP_L1_ICM=192\n"
            "core1.PCAP_L2_TCA=120192\n"
            "core1.PCAP_L2_TCM=120192\n"
            "core1.PCAP_L3_TCA=120192\n"
            "core1.PCAP_L3_TCM=120192\n"
            "core1.PCAP_TLB_DM=1902\n"
            "core1.PCAP_TLB_IM=84\n"
            "core1.PCAP_DRAM_ACC=120192\n"
            "core1.PCAP_L2_PF=0\n"
            "core1.PCAP_STALL_CYC=15555581\n"
            "core2.workload=compute-bound\n"
            "core2.elapsed=85121500\n"
            "core2.energy_share_j=0x1.3731d36c04367p-7\n"
            "core2.PCAP_TOT_CYC=229872\n"
            "core2.PCAP_TOT_INS=300000\n"
            "core2.PCAP_INS_EXEC=305740\n"
            "core2.PCAP_LD_INS=0\n"
            "core2.PCAP_SR_INS=0\n"
            "core2.PCAP_BR_INS=24000\n"
            "core2.PCAP_BR_MSP=287\n"
            "core2.PCAP_L1_DCA=0\n"
            "core2.PCAP_L1_DCM=0\n"
            "core2.PCAP_L1_ICA=37500\n"
            "core2.PCAP_L1_ICM=256\n"
            "core2.PCAP_L2_TCA=256\n"
            "core2.PCAP_L2_TCM=256\n"
            "core2.PCAP_L3_TCA=256\n"
            "core2.PCAP_L3_TCM=256\n"
            "core2.PCAP_TLB_DM=0\n"
            "core2.PCAP_TLB_IM=4\n"
            "core2.PCAP_DRAM_ACC=256\n"
            "core2.PCAP_L2_PF=0\n"
            "core2.PCAP_STALL_CYC=33122\n");
}

TEST(SmpEquivalence, PinnedUnderBmcCap) {
  const SmpRunReport report = run_cell(mixed_mix, 29, 150.0);
  // The cap actually bit (this is a real capped cell, not a no-op).
  EXPECT_LE(report.avg_power_w, 155.0);
  EXPECT_EQ(test::render(report),
            "elapsed=20576721937\n"
            "energy_j=0x1.8939b3fc18a47p+1\n"
            "avg_power_w=0x1.2a98d35236aebp+7\n"
            "peak_power_w=0x1.ffaab742fefa3p+9\n"
            "avg_frequency=1709968863\n"
            "PCAP_TOT_CYC=49778714\n"
            "PCAP_TOT_INS=4151732\n"
            "PCAP_INS_EXEC=4237652\n"
            "PCAP_LD_INS=642972\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=332137\n"
            "PCAP_BR_MSP=3984\n"
            "PCAP_L1_DCA=642972\n"
            "PCAP_L1_DCM=642972\n"
            "PCAP_L1_ICA=518966\n"
            "PCAP_L1_ICM=10816\n"
            "PCAP_L2_TCA=653788\n"
            "PCAP_L2_TCM=653788\n"
            "PCAP_L3_TCA=653788\n"
            "PCAP_L3_TCM=317550\n"
            "PCAP_TLB_DM=10174\n"
            "PCAP_TLB_IM=580\n"
            "PCAP_DRAM_ACC=317550\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=31574963\n"
            "core0.workload=phased-unpredictable\n"
            "core0.elapsed=20576721937\n"
            "core0.energy_share_j=0x1.ebee7a5883542p+0\n"
            "core0.PCAP_TOT_CYC=34942145\n"
            "core0.PCAP_TOT_INS=3491732\n"
            "core0.PCAP_INS_EXEC=3562708\n"
            "core0.PCAP_LD_INS=522972\n"
            "core0.PCAP_SR_INS=0\n"
            "core0.PCAP_BR_INS=279338\n"
            "core0.PCAP_BR_MSP=3352\n"
            "core0.PCAP_L1_DCA=522972\n"
            "core0.PCAP_L1_DCM=522972\n"
            "core0.PCAP_L1_ICA=436466\n"
            "core0.PCAP_L1_ICM=5760\n"
            "core0.PCAP_L2_TCA=528732\n"
            "core0.PCAP_L2_TCM=528732\n"
            "core0.PCAP_L3_TCA=528732\n"
            "core0.PCAP_L3_TCM=197102\n"
            "core0.PCAP_TLB_DM=8253\n"
            "core0.PCAP_TLB_IM=359\n"
            "core0.PCAP_DRAM_ACC=197102\n"
            "core0.PCAP_L2_PF=0\n"
            "core0.PCAP_STALL_CYC=20128142\n"
            "core1.workload=memory-bound\n"
            "core1.elapsed=12220024068\n"
            "core1.energy_share_j=0x1.24257b186e81p+0\n"
            "core1.PCAP_TOT_CYC=14606697\n"
            "core1.PCAP_TOT_INS=360000\n"
            "core1.PCAP_INS_EXEC=369204\n"
            "core1.PCAP_LD_INS=120000\n"
            "core1.PCAP_SR_INS=0\n"
            "core1.PCAP_BR_INS=28799\n"
            "core1.PCAP_BR_MSP=345\n"
            "core1.PCAP_L1_DCA=120000\n"
            "core1.PCAP_L1_DCM=120000\n"
            "core1.PCAP_L1_ICA=45000\n"
            "core1.PCAP_L1_ICM=4800\n"
            "core1.PCAP_L2_TCA=124800\n"
            "core1.PCAP_L2_TCM=124800\n"
            "core1.PCAP_L3_TCA=124800\n"
            "core1.PCAP_L3_TCM=120192\n"
            "core1.PCAP_TLB_DM=1921\n"
            "core1.PCAP_TLB_IM=217\n"
            "core1.PCAP_DRAM_ACC=120192\n"
            "core1.PCAP_L2_PF=0\n"
            "core1.PCAP_STALL_CYC=11413699\n"
            "core2.workload=compute-bound\n"
            "core2.elapsed=99252214\n"
            "core2.energy_share_j=0x1.2fb9439fb9d8ep-7\n"
            "core2.PCAP_TOT_CYC=229872\n"
            "core2.PCAP_TOT_INS=300000\n"
            "core2.PCAP_INS_EXEC=305740\n"
            "core2.PCAP_LD_INS=0\n"
            "core2.PCAP_SR_INS=0\n"
            "core2.PCAP_BR_INS=24000\n"
            "core2.PCAP_BR_MSP=287\n"
            "core2.PCAP_L1_DCA=0\n"
            "core2.PCAP_L1_DCM=0\n"
            "core2.PCAP_L1_ICA=37500\n"
            "core2.PCAP_L1_ICM=256\n"
            "core2.PCAP_L2_TCA=256\n"
            "core2.PCAP_L2_TCM=256\n"
            "core2.PCAP_L3_TCA=256\n"
            "core2.PCAP_L3_TCM=256\n"
            "core2.PCAP_TLB_DM=0\n"
            "core2.PCAP_TLB_IM=4\n"
            "core2.PCAP_DRAM_ACC=256\n"
            "core2.PCAP_L2_PF=0\n"
            "core2.PCAP_STALL_CYC=33122\n");
}

// --- native stepping vs forced continuation ---------------------------------

/// Hides supports_step() so the engine must drive the same workload through
/// a fiber; run() and step() must induce the identical priced-op sequence.
class ForceMonolithic final : public Workload {
 public:
  explicit ForceMonolithic(std::unique_ptr<Workload> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void run(ExecutionContext& ctx) override { inner_->run(ctx); }

 private:
  std::unique_ptr<Workload> inner_;
};

TEST(SmpEquivalence, NativeStepMatchesForcedFiber) {
  auto forced = [] {
    std::vector<std::unique_ptr<Workload>> ws;
    for (auto& w : steppable_mix()) {
      ws.push_back(std::make_unique<ForceMonolithic>(std::move(w)));
    }
    return ws;
  };
  const SmpRunReport stepped = run_cell(steppable_mix, 31);
  const SmpRunReport fibered = run_cell(forced, 31);
  expect_identical(stepped, fibered);
}

// --- quantum-boundary batching legality -------------------------------------

constexpr std::uint64_t kSweepBytes = 1ull << 20;
constexpr std::int64_t kSweepStride = 64;
constexpr int kSweepReps = 24;

/// Sweeps a buffer with the batched stream API. Monolithic on purpose: the
/// lane suspends it mid-stream at quantum boundaries.
class StreamSweep final : public Workload {
 public:
  std::string name() const override { return "sweep"; }
  void run(ExecutionContext& ctx) override {
    const Address base = ctx.alloc(kSweepBytes);
    for (int rep = 0; rep < kSweepReps; ++rep) {
      ctx.load_stream(base, kSweepStride, kSweepBytes / kSweepStride);
      ctx.compute(64);
    }
  }
};

/// The per-op twin: the same logical access sequence, one load at a time.
class LoopSweep final : public Workload {
 public:
  std::string name() const override { return "sweep"; }
  void run(ExecutionContext& ctx) override {
    const Address base = ctx.alloc(kSweepBytes);
    for (int rep = 0; rep < kSweepReps; ++rep) {
      Address addr = base;
      for (std::uint64_t i = 0; i < kSweepBytes / kSweepStride; ++i) {
        ctx.load(addr);
        addr += static_cast<Address>(kSweepStride);
      }
      ctx.compute(64);
    }
  }
};

TEST(SmpEquivalence, StreamBatchingLegalUnderCoRunners) {
  // The antagonist thrashes the shared L3, so the sweep's access outcomes
  // depend on the exact interleaving: any illegal batching across a quantum
  // boundary (or across an op the co-runner should have interposed) would
  // shift misses and break bit-identity.
  auto streamed = [] {
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(std::make_unique<StreamSweep>());
    ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(16ull << 20,
                                                             200000));
    return ws;
  };
  auto looped = [] {
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(std::make_unique<LoopSweep>());
    ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(16ull << 20,
                                                             200000));
    return ws;
  };
  const SmpRunReport fast = run_cell(streamed, 37);
  const SmpRunReport slow = run_cell(looped, 37);
  expect_identical(fast, slow);
  // The cell is genuinely contended — the sweep saw shared-L3 misses.
  EXPECT_GT(fast.cores[0].counter(Event::kL3Tcm), 1000u);
}

// --- `--jobs` invariance for SMP cells --------------------------------------

TEST(SmpEquivalence, SmpCellsAreJobsInvariant) {
  const double kCaps[] = {170.0, 160.0, 150.0, 140.0};
  auto run_all = [&kCaps](std::size_t threads) {
    std::vector<SmpRunReport> reports(4);
    util::parallel_for(4, threads, [&](std::size_t i) {
      reports[i] = run_cell(mixed_mix, 41 + i, kCaps[i]);
    });
    return reports;
  };
  const auto serial = run_all(1);
  const auto pooled = run_all(4);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], pooled[i]);
  }
}

// --- exception safety -------------------------------------------------------

/// Holds a stack sentinel whose destructor records the unwind; the workload
/// itself never finishes within the run.
class GuardedWorkload final : public Workload {
 public:
  explicit GuardedWorkload(bool* unwound) : unwound_(unwound) {}
  std::string name() const override { return "guarded"; }
  void run(ExecutionContext& ctx) override {
    struct Sentinel {
      bool* flag;
      ~Sentinel() { *flag = true; }
    } sentinel{unwound_};
    const Address base = ctx.alloc(1ull << 20);
    for (std::uint64_t i = 0; i < 50'000'000; ++i) {
      ctx.load(base + (i * 64) % (1ull << 20));
      ctx.compute(2);
    }
  }

 private:
  bool* unwound_;
};

class ThrowingWorkload final : public Workload {
 public:
  std::string name() const override { return "throwing"; }
  void run(ExecutionContext& ctx) override {
    ctx.compute(1000);
    throw std::runtime_error("workload boom");
  }
};

TEST(SmpEquivalence, ThrowingWorkloadUnwindsSuspendedCoRunner) {
  SmpNode node(make_config(2), 43);
  bool unwound = false;
  GuardedWorkload guarded(&unwound);
  ThrowingWorkload throwing;
  std::vector<Workload*> ws{&guarded, &throwing};
  EXPECT_THROW(node.run(ws), std::runtime_error);
  // The co-runner was suspended mid-run; its stack must have unwound
  // through the sentinel's destructor before run() threw.
  EXPECT_TRUE(unwound);

  // The engine stays usable after the failed run.
  apps::ComputeBoundWorkload again(100000);
  std::vector<Workload*> retry{&again};
  const SmpRunReport r = node.run(retry);
  EXPECT_EQ(r.counter(Event::kTotIns), 100000u);
}

TEST(SmpEquivalence, ThrowingControlHookUnwindsRun) {
  SmpNode node(make_config(2), 47);
  node.set_control_hook(
      [](PlatformControl&) { throw std::runtime_error("hook boom"); });
  bool unwound = false;
  GuardedWorkload guarded(&unwound);
  apps::ComputeBoundWorkload compute(4000000);
  std::vector<Workload*> ws{&guarded, &compute};
  EXPECT_THROW(node.run(ws), std::runtime_error);
  EXPECT_TRUE(unwound);

  node.set_control_hook({});
  apps::ComputeBoundWorkload again(100000);
  std::vector<Workload*> retry{&again};
  const SmpRunReport r = node.run(retry);
  EXPECT_EQ(r.counter(Event::kTotIns), 100000u);
}

// --- telemetry neutrality ---------------------------------------------------

TEST(SmpEquivalence, TelemetryProbesAreBitNeutral) {
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();

  const SmpRunReport bare = run_cell(steppable_mix, 61, 160.0);

  telemetry::TelemetryConfig tconfig;
  tconfig.enabled = true;
  tconfig.sample_period = util::microseconds(20);
  telemetry::NodeProbe package(tconfig, nullptr, nullptr, "package");
  telemetry::NodeProbe core0(tconfig, nullptr, nullptr, "core0");
  telemetry::NodeProbe core1(tconfig, nullptr, nullptr, "core1");

  auto workloads = steppable_mix();
  std::vector<Workload*> ptrs;
  for (auto& w : workloads) ptrs.push_back(w.get());
  SmpNode node(make_config(2), 61);
  core::Bmc bmc(node);
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(160.0);
  node.set_telemetry(&package);
  std::vector<telemetry::NodeProbe*> cores{&core0, &core1};
  node.set_core_telemetry(cores);
  const SmpRunReport probed = node.run(ptrs);

  expect_identical(probed, bare);

  // The probes really sampled, and the per-core series are per-core: the
  // memory-bound lane misses L1 where the compute-bound lane cannot.
  EXPECT_GT(package.sampler().taken(), 2u);
  EXPECT_GT(core0.sampler().taken(), 2u);
  EXPECT_GT(core1.sampler().taken(), 2u);
  const auto l1_miss = [](const telemetry::NodeSample& s) {
    return s.l1_miss_rate;
  };
  EXPECT_GT(core0.sampler().aggregate(l1_miss).mean,
            core1.sampler().aggregate(l1_miss).mean);
}

}  // namespace
}  // namespace pcap::sim
