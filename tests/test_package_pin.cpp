// Exact-output pins for the node power/thermal/meter loop.
//
// Every paper cell goes through one step: counter deltas become rates and
// activity, the power model prices the operating point, the thermal model
// and the wall meter integrate the watts, and the BMC reads the sensor
// window. The golden-shape tests only check that curves bend the right way,
// and the SMP equivalence tests compare two engines that share this step,
// so neither would notice a reordered floating-point sum. These tests pin
// the full reports of four cells, and the telemetry samples of two, as
// exact hex-float and integer constants.
//
// A deliberate model change that moves these numbers must re-capture them:
// the failure message prints the new rendering in full.
#include <gtest/gtest.h>

#include <string>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "pin_render.hpp"
#include "sim/node.hpp"
#include "sim/smp_node.hpp"
#include "telemetry/probe.hpp"
#include "thermal/governor.hpp"

namespace pcap::sim {
namespace {

using test::Fnv;
using test::hex;
using test::line;
using test::render;

std::string render(const telemetry::NodeProbe& probe) {
  const auto& series = probe.sampler().series();
  Fnv fnv;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const telemetry::NodeSample& s = series.at(i);
    fnv.add(s.time);
    for (double v : {s.watts, s.frequency_mhz, s.duty, s.cap_w, s.ipc,
                     s.l1_miss_rate, s.l2_miss_rate, s.l3_miss_rate,
                     s.temperature_c, s.fan_rpm, s.cpu_temp_c, s.uncore_temp_c,
                     s.dram_temp_c, s.cpu_w, s.uncore_w, s.memory_w}) {
      fnv.add(v);
    }
    fnv.add(s.pstate);
    fnv.add(s.throttle_level);
    fnv.add(s.health);
    fnv.add(s.throttle_reason);
  }
  return line("probe.samples", std::to_string(series.size())) +
         line("probe.fnv", fnv.digest());
}

telemetry::TelemetryConfig probe_config() {
  telemetry::TelemetryConfig config;
  config.enabled = true;
  config.sample_period = util::microseconds(40);
  config.trace_counters = false;
  return config;
}

apps::PhasedParams phased(int phases, std::uint64_t uops) {
  apps::PhasedParams p;
  p.phases = phases;
  p.mean_phase_uops = uops;
  return p;
}

// Single-RC Romley node under two BMC caps in turn (the second run starts
// from the first's counters and heat), then an idle-metering window.
TEST(PackagePin, CappedSingleRcNode) {
  Node node(MachineConfig::romley(), 7);
  telemetry::NodeProbe probe(probe_config());
  node.set_telemetry(&probe);
  core::Bmc bmc(node);
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });

  std::string out;
  apps::PhasedWorkload workload(phased(6, 150000));
  bmc.set_cap(120.0);
  out += render(node.run(workload));
  apps::MemoryBoundWorkload stream(24ull << 20, 200000);
  bmc.set_cap(135.0);
  out += render(node.run(stream));
  out += render(probe);
  node.start_metering();
  node.idle_for(util::microseconds(300));
  out += line("idle.avg_w", hex(node.meter().average_watts())) +
         line("idle.energy_j", hex(node.meter().energy_joules())) +
         line("idle.temperature_c", hex(node.temperature_c()));

  EXPECT_EQ(out,
            "workload=phased-unpredictable\n"
            "elapsed=80592240387\n"
            "energy_j=0x1.39dd31392bbap+3\n"
            "avg_power_w=0x1.e6cf072ea9995p+6\n"
            "peak_power_w=0x1.3cbb1bc2ac53cp+7\n"
            "avg_frequency=1201695016\n"
            "avg_duty=0x1.070dac9b87753p-3\n"
            "final_temperature_c=0x1.9c50df87dc74dp+5\n"
            "PCAP_TOT_CYC=12523503\n"
            "PCAP_TOT_INS=1073276\n"
            "PCAP_INS_EXEC=1109188\n"
            "PCAP_LD_INS=161970\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=85862\n"
            "PCAP_BR_MSP=1030\n"
            "PCAP_L1_DCA=161970\n"
            "PCAP_L1_DCM=161970\n"
            "PCAP_L1_ICA=134159\n"
            "PCAP_L1_ICM=1920\n"
            "PCAP_L2_TCA=163890\n"
            "PCAP_L2_TCM=163890\n"
            "PCAP_L3_TCA=163890\n"
            "PCAP_L3_TCM=61799\n"
            "PCAP_TLB_DM=2835\n"
            "PCAP_TLB_IM=854\n"
            "PCAP_DRAM_ACC=61799\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=7895233\n"
            "workload=memory-bound\n"
            "elapsed=12895856811\n"
            "energy_j=0x1.ba04388ccaa6cp+0\n"
            "avg_power_w=0x1.0bc7b48ee4b27p+7\n"
            "peak_power_w=0x1.173244ad1176cp+7\n"
            "avg_frequency=1256198988\n"
            "avg_duty=0x1.f8566ea724a62p-1\n"
            "final_temperature_c=0x1.c07eac1fbfb48p+5\n"
            "PCAP_TOT_CYC=15896783\n"
            "PCAP_TOT_INS=600000\n"
            "PCAP_INS_EXEC=613968\n"
            "PCAP_LD_INS=200000\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=48000\n"
            "PCAP_BR_MSP=576\n"
            "PCAP_L1_DCA=200000\n"
            "PCAP_L1_DCM=200000\n"
            "PCAP_L1_ICA=75000\n"
            "PCAP_L1_ICM=192\n"
            "PCAP_L2_TCA=200192\n"
            "PCAP_L2_TCM=200192\n"
            "PCAP_L3_TCA=200192\n"
            "PCAP_L3_TCM=142041\n"
            "PCAP_TLB_DM=3176\n"
            "PCAP_TLB_IM=154\n"
            "PCAP_DRAM_ACC=142041\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=10739191\n"
            "probe.samples=2332\n"
            "probe.fnv=c9b08a3ca0355f7b\n"
            "idle.avg_w=0x1.930a3d70a3d6bp+6\n"
            "idle.energy_j=0x1.ef416bdb1a6cfp-6\n"
            "idle.temperature_c=0x1.b3623a21c5a1fp+5\n");
}

// OS noise on every tick, and runs back to back on one node: the noise
// drain in a run's last tick adds cycles after that tick's step, and the
// next run's first step must count them.
TEST(PackagePin, NoisyNodeBackToBack) {
  MachineConfig machine = MachineConfig::romley();
  machine.ticks.os_noise_period = 1;
  Node node(machine, 5);
  core::Bmc bmc(node);
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(130.0);

  std::string out;
  for (int round = 0; round < 3; ++round) {
    apps::PhasedWorkload workload(phased(3, 60000));
    out += render(node.run(workload));
  }

  EXPECT_EQ(out,
            "workload=phased-unpredictable\n"
            "elapsed=2324108341\n"
            "energy_j=0x1.379413aa50878p-2\n"
            "avg_power_w=0x1.05d8f935cf5p+7\n"
            "peak_power_w=0x1.3c6a51e0ca6b3p+7\n"
            "avg_frequency=1265463556\n"
            "avg_duty=0x1.fffdbeba9df72p-1\n"
            "final_temperature_c=0x1.83e6536af732p+5\n"
            "PCAP_TOT_CYC=2930389\n"
            "PCAP_TOT_INS=218258\n"
            "PCAP_INS_EXEC=244470\n"
            "PCAP_LD_INS=18429\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=17460\n"
            "PCAP_BR_MSP=209\n"
            "PCAP_L1_DCA=18429\n"
            "PCAP_L1_DCM=18429\n"
            "PCAP_L1_ICA=27282\n"
            "PCAP_L1_ICM=1216\n"
            "PCAP_L2_TCA=19645\n"
            "PCAP_L2_TCM=19645\n"
            "PCAP_L3_TCA=19645\n"
            "PCAP_L3_TCM=18941\n"
            "PCAP_TLB_DM=724\n"
            "PCAP_TLB_IM=624\n"
            "PCAP_DRAM_ACC=18941\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=2276178\n"
            "workload=phased-unpredictable\n"
            "elapsed=492274761\n"
            "energy_j=0x1.043c5b07adf6ap-4\n"
            "avg_power_w=0x1.02254658dd3d2p+7\n"
            "peak_power_w=0x1.06eac586a4ee5p+7\n"
            "avg_frequency=1203975488\n"
            "avg_duty=0x1.fff55a9c51234p-1\n"
            "final_temperature_c=0x1.8ded7630c8e99p+5\n"
            "PCAP_TOT_CYC=592969\n"
            "PCAP_TOT_INS=218258\n"
            "PCAP_INS_EXEC=227210\n"
            "PCAP_LD_INS=18429\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=17461\n"
            "PCAP_BR_MSP=210\n"
            "PCAP_L1_DCA=18429\n"
            "PCAP_L1_DCM=18429\n"
            "PCAP_L1_ICA=27282\n"
            "PCAP_L1_ICM=0\n"
            "PCAP_L2_TCA=18429\n"
            "PCAP_L2_TCM=18429\n"
            "PCAP_L3_TCA=18429\n"
            "PCAP_L3_TCM=0\n"
            "PCAP_TLB_DM=367\n"
            "PCAP_TLB_IM=279\n"
            "PCAP_DRAM_ACC=0\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=0\n"
            "workload=phased-unpredictable\n"
            "elapsed=494001487\n"
            "energy_j=0x1.0462387b5fa85p-4\n"
            "avg_power_w=0x1.0163b13138613p+7\n"
            "peak_power_w=0x1.06eb98f463341p+7\n"
            "avg_frequency=1199902873\n"
            "avg_duty=0x1.fff564230bfc2p-1\n"
            "final_temperature_c=0x1.9582e582683fcp+5\n"
            "PCAP_TOT_CYC=593039\n"
            "PCAP_TOT_INS=218258\n"
            "PCAP_INS_EXEC=227190\n"
            "PCAP_LD_INS=18429\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=17460\n"
            "PCAP_BR_MSP=209\n"
            "PCAP_L1_DCA=18429\n"
            "PCAP_L1_DCM=18429\n"
            "PCAP_L1_ICA=27282\n"
            "PCAP_L1_ICM=0\n"
            "PCAP_L2_TCA=18429\n"
            "PCAP_L2_TCM=18429\n"
            "PCAP_L3_TCA=18429\n"
            "PCAP_L3_TCM=0\n"
            "PCAP_TLB_DM=367\n"
            "PCAP_TLB_IM=282\n"
            "PCAP_DRAM_ACC=0\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=0\n");
}

// Four-node RC network with a fan the thermal governor drives, on a hot
// inlet under a BMC cap: exercises the exhaust-resistance and fan-power
// terms the single-RC path skips.
TEST(PackagePin, RcNetworkWithFanNode) {
  MachineConfig machine = MachineConfig::romley_thermal();
  machine.thermal.ambient_c = 48.0;
  machine.thermal_network.ambient_c = 48.0;
  Node node(machine, 11);
  core::Bmc bmc(node);
  thermal::ThermalGovernorConfig gov_config;
  gov_config.fan.target_c = 45.0;
  gov_config.pclamp_trip_c = 52.0;
  gov_config.duty_trip_c = 62.0;
  thermal::ThermalGovernor governor(node, gov_config);
  node.set_control_hook([&](PlatformControl&) {
    bmc.on_control_tick();
    governor.on_control_tick();
  });

  apps::PhasedWorkload workload(phased(6, 200000));
  bmc.set_cap(130.0);
  std::string out = render(node.run(workload));
  out += line("fan_rpm", hex(node.fan_rpm())) +
         line("uncore_temp_c",
              hex(node.thermal_network().source_temperature_c(
                  power::Subsystem::kUncore)));

  EXPECT_EQ(out,
            "workload=phased-unpredictable\n"
            "elapsed=157969705579\n"
            "energy_j=0x1.615922976e5edp+4\n"
            "avg_power_w=0x1.1799e9ce357edp+7\n"
            "peak_power_w=0x1.3e028c76ceb01p+7\n"
            "avg_frequency=1200968538\n"
            "avg_duty=0x1.06e1053cc629bp-3\n"
            "final_temperature_c=0x1.b760b475720ap+5\n"
            "PCAP_TOT_CYC=24403130\n"
            "PCAP_TOT_INS=1431033\n"
            "PCAP_INS_EXEC=1488301\n"
            "PCAP_LD_INS=215959\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=114482\n"
            "PCAP_BR_MSP=1373\n"
            "PCAP_L1_DCA=215959\n"
            "PCAP_L1_DCM=215959\n"
            "PCAP_L1_ICA=178879\n"
            "PCAP_L1_ICM=1920\n"
            "PCAP_L2_TCA=217879\n"
            "PCAP_L2_TCM=217879\n"
            "PCAP_L3_TCA=217879\n"
            "PCAP_L3_TCM=142045\n"
            "PCAP_TLB_DM=3978\n"
            "PCAP_TLB_IM=1585\n"
            "PCAP_DRAM_ACC=142045\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=18217499\n"
            "fan_rpm=0x1.194p+13\n"
            "uncore_temp_c=0x1.d0a504c6ab131p+5\n");
}

// Two cores sharing the L3 and DRAM under a package cap, run twice on the
// same node, with a package probe attached. The peaks are pinned as they
// are, far above any real package draw: a housekeeping step can span a few
// hundred picoseconds while carrying a whole quantum's L3 and DRAM
// accesses, so the transaction rate, and the power priced from it, spike
// for that step only.
TEST(PackagePin, CappedTwoCoreSmpNode) {
  SmpConfig config;
  config.cores = 2;
  SmpNode node(config, 13);
  telemetry::NodeProbe probe(probe_config());
  node.set_telemetry(&probe);
  core::Bmc bmc(node);
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(140.0);

  std::string out;
  for (int round = 0; round < 2; ++round) {
    apps::MemoryBoundWorkload stream(12ull << 20, 120000);
    apps::PhasedWorkload phased_load(phased(4, 120000));
    Workload* workloads[] = {&stream, &phased_load};
    out += render(node.run(workloads));
  }
  out += render(probe);

  EXPECT_EQ(out,
            "elapsed=15905602717\n"
            "energy_j=0x1.1bb3138d5104ap+1\n"
            "avg_power_w=0x1.16b1ceb322dc2p+7\n"
            "peak_power_w=0x1.fbed74a05d84cp+16\n"
            "avg_frequency=1279641923\n"
            "PCAP_TOT_CYC=24258914\n"
            "PCAP_TOT_INS=937000\n"
            "PCAP_INS_EXEC=960192\n"
            "PCAP_LD_INS=203686\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=74958\n"
            "PCAP_BR_MSP=898\n"
            "PCAP_L1_DCA=203686\n"
            "PCAP_L1_DCM=203686\n"
            "PCAP_L1_ICA=117125\n"
            "PCAP_L1_ICM=1876\n"
            "PCAP_L2_TCA=205562\n"
            "PCAP_L2_TCM=205562\n"
            "PCAP_L3_TCA=205562\n"
            "PCAP_L3_TCM=172538\n"
            "PCAP_TLB_DM=3291\n"
            "PCAP_TLB_IM=351\n"
            "PCAP_DRAM_ACC=172538\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=18754829\n"
            "core0.workload=memory-bound\n"
            "core0.elapsed=15905602717\n"
            "core0.energy_share_j=0x1.478cebc9911c2p+0\n"
            "core0.PCAP_TOT_CYC=15204058\n"
            "core0.PCAP_TOT_INS=360000\n"
            "core0.PCAP_INS_EXEC=369924\n"
            "core0.PCAP_LD_INS=120000\n"
            "core0.PCAP_SR_INS=0\n"
            "core0.PCAP_BR_INS=28799\n"
            "core0.PCAP_BR_MSP=345\n"
            "core0.PCAP_L1_DCA=120000\n"
            "core0.PCAP_L1_DCM=120000\n"
            "core0.PCAP_L1_ICA=45000\n"
            "core0.PCAP_L1_ICM=660\n"
            "core0.PCAP_L2_TCA=120660\n"
            "core0.PCAP_L2_TCM=120660\n"
            "core0.PCAP_L3_TCA=120660\n"
            "core0.PCAP_L3_TCM=120276\n"
            "core0.PCAP_TLB_DM=1938\n"
            "core0.PCAP_TLB_IM=195\n"
            "core0.PCAP_DRAM_ACC=120276\n"
            "core0.PCAP_L2_PF=0\n"
            "core0.PCAP_STALL_CYC=12093280\n"
            "core1.workload=phased-unpredictable\n"
            "core1.elapsed=11646864363\n"
            "core1.energy_share_j=0x1.dfb276a221da6p-1\n"
            "core1.PCAP_TOT_CYC=9054856\n"
            "core1.PCAP_TOT_INS=577000\n"
            "core1.PCAP_INS_EXEC=590268\n"
            "core1.PCAP_LD_INS=83686\n"
            "core1.PCAP_SR_INS=0\n"
            "core1.PCAP_BR_INS=46159\n"
            "core1.PCAP_BR_MSP=553\n"
            "core1.PCAP_L1_DCA=83686\n"
            "core1.PCAP_L1_DCM=83686\n"
            "core1.PCAP_L1_ICA=72125\n"
            "core1.PCAP_L1_ICM=1216\n"
            "core1.PCAP_L2_TCA=84902\n"
            "core1.PCAP_L2_TCM=84902\n"
            "core1.PCAP_L3_TCA=84902\n"
            "core1.PCAP_L3_TCM=52262\n"
            "core1.PCAP_TLB_DM=1353\n"
            "core1.PCAP_TLB_IM=156\n"
            "core1.PCAP_DRAM_ACC=52262\n"
            "core1.PCAP_L2_PF=0\n"
            "core1.PCAP_STALL_CYC=6661549\n"
            "elapsed=14064009708\n"
            "energy_j=0x1.f4a9fa2e265cep+0\n"
            "avg_power_w=0x1.161de63aa1171p+7\n"
            "peak_power_w=0x1.061d6dad108a6p+13\n"
            "avg_frequency=1302960707\n"
            "PCAP_TOT_CYC=21088638\n"
            "PCAP_TOT_INS=937000\n"
            "PCAP_INS_EXEC=959272\n"
            "PCAP_LD_INS=203686\n"
            "PCAP_SR_INS=0\n"
            "PCAP_BR_INS=74960\n"
            "PCAP_BR_MSP=900\n"
            "PCAP_L1_DCA=203686\n"
            "PCAP_L1_DCM=203686\n"
            "PCAP_L1_ICA=117125\n"
            "PCAP_L1_ICM=1785\n"
            "PCAP_L2_TCA=205471\n"
            "PCAP_L2_TCM=205471\n"
            "PCAP_L3_TCA=205471\n"
            "PCAP_L3_TCM=153856\n"
            "PCAP_TLB_DM=3270\n"
            "PCAP_TLB_IM=284\n"
            "PCAP_DRAM_ACC=153856\n"
            "PCAP_L2_PF=0\n"
            "PCAP_STALL_CYC=15589769\n"
            "core0.workload=memory-bound\n"
            "core0.elapsed=14064009708\n"
            "core0.energy_share_j=0x1.34113eea6160bp+0\n"
            "core0.PCAP_TOT_CYC=14365107\n"
            "core0.PCAP_TOT_INS=360000\n"
            "core0.PCAP_INS_EXEC=369512\n"
            "core0.PCAP_LD_INS=120000\n"
            "core0.PCAP_SR_INS=0\n"
            "core0.PCAP_BR_INS=28800\n"
            "core0.PCAP_BR_MSP=346\n"
            "core0.PCAP_L1_DCA=120000\n"
            "core0.PCAP_L1_DCM=120000\n"
            "core0.PCAP_L1_ICA=45000\n"
            "core0.PCAP_L1_ICM=384\n"
            "core0.PCAP_L2_TCA=120384\n"
            "core0.PCAP_L2_TCM=120384\n"
            "core0.PCAP_L3_TCA=120384\n"
            "core0.PCAP_L3_TCM=120384\n"
            "core0.PCAP_TLB_DM=1929\n"
            "core0.PCAP_TLB_IM=164\n"
            "core0.PCAP_DRAM_ACC=120384\n"
            "core0.PCAP_L2_PF=0\n"
            "core0.PCAP_STALL_CYC=11261387\n"
            "core1.workload=phased-unpredictable\n"
            "core1.elapsed=8792494283\n"
            "core1.energy_share_j=0x1.8131768789f88p-1\n"
            "core1.PCAP_TOT_CYC=6723531\n"
            "core1.PCAP_TOT_INS=577000\n"
            "core1.PCAP_INS_EXEC=589760\n"
            "core1.PCAP_LD_INS=83686\n"
            "core1.PCAP_SR_INS=0\n"
            "core1.PCAP_BR_INS=46160\n"
            "core1.PCAP_BR_MSP=554\n"
            "core1.PCAP_L1_DCA=83686\n"
            "core1.PCAP_L1_DCM=83686\n"
            "core1.PCAP_L1_ICA=72125\n"
            "core1.PCAP_L1_ICM=1401\n"
            "core1.PCAP_L2_TCA=85087\n"
            "core1.PCAP_L2_TCM=85087\n"
            "core1.PCAP_L3_TCA=85087\n"
            "core1.PCAP_L3_TCM=33472\n"
            "core1.PCAP_TLB_DM=1341\n"
            "core1.PCAP_TLB_IM=120\n"
            "core1.PCAP_DRAM_ACC=33472\n"
            "core1.PCAP_L2_PF=0\n"
            "core1.PCAP_STALL_CYC=4328382\n"
            "probe.samples=749\n"
            "probe.fnv=5988136e094fc59d\n");
}

}  // namespace
}  // namespace pcap::sim
