#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "harness/paper_reference.hpp"

namespace e2e {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"sim_mips", "ins/us"},
      {"paper_time_err", "ln"},
      {"paper_energy_err", "ln"},
      {"tick_ms_p50", "ms"},
      {"tick_ms_p98", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"apps.host_s", "s"},
      {"sim.run_s", "s"},
      {"sim.self_s", "s"},
      {"sim.ins", "count"},
      {"sim.host_ns_per_ins", "ns"},
      {"sim.simulated_s", "sim_s"},
      {"sim.hierarchy_ns_per_access", "ns"},
      {"cache.l1d_ns_per_access", "ns"},
      {"cache.dtlb_ns_per_lookup", "ns"},
      {"cache.replay_accesses", "count"},
      {"cache.l1i.accesses", "count"},
      {"cache.l1i.misses", "count"},
      {"cache.l1d.accesses", "count"},
      {"cache.l1d.misses", "count"},
      {"cache.l2.accesses", "count"},
      {"cache.l2.misses", "count"},
      {"cache.l3.accesses", "count"},
      {"cache.l3.misses", "count"},
      {"cache.itlb.accesses", "count"},
      {"cache.itlb.misses", "count"},
      {"cache.dtlb.accesses", "count"},
      {"cache.dtlb.misses", "count"},
      {"mem.dram.accesses", "count"},
      {"core.bmc_s", "s"},
      {"core.bmc_ticks", "count"},
      {"core.bmc_level_changes", "count"},
      {"core.bmc_max_level", "count"},
      {"sched.cell_s", "s"},
      {"sched.chunks", "count"},
      {"sched.memo_hits", "count"},
      {"sched.memo_misses", "count"},
      {"sched.memo_hit_ratio", "ratio"},
      {"sched.corun_cells", "count"},
      {"sched.chunk_sim_ms", "ms"},
      {"fleet.ticks", "count"},
      {"fleet.memo_hits", "count"},
      {"fleet.memo_misses", "count"},
      {"fleet.cap_pushes", "count"},
      {"fleet.admission_deferrals", "count"},
      {"ipmi.retries", "count"},
      {"ipmi.push_failure_ratio", "ratio"},
      {"trace.spans", "count"},
      {"trace.overhead_s", "s"},
  };
  return specs;
}

LayerSheet::LayerSheet() {
  for (const MetricSpec& spec : per_layer_metrics()) values_[spec.name] = 0.0;
}

void LayerSheet::set(std::string_view name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + std::string(name));
  }
  it->second = value;
}

void LayerSheet::add(std::string_view name, double value) {
  set(name, get(name) + value);
}

double LayerSheet::get(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + std::string(name));
  }
  return it->second;
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

void paper_error(PaperApp app, const std::vector<PaperCell>& cells,
                 double& time_err, double& energy_err) {
  const auto rows = app == PaperApp::kStereo
                        ? pcap::harness::paper_stereo_rows()
                        : pcap::harness::paper_sire_rows();
  double time_sum = 0.0;
  double energy_sum = 0.0;
  for (const PaperCell& cell : cells) {
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return r.cap_w && *r.cap_w == cell.cap_w;
    });
    if (row == rows.end()) {
      throw std::logic_error("no paper row for cap " +
                             std::to_string(cell.cap_w));
    }
    const double paper_time = 1.0 + row->pct_time / 100.0;
    const double paper_energy = 1.0 + row->pct_energy / 100.0;
    time_sum += std::abs(std::log(cell.time_ratio / paper_time));
    energy_sum += std::abs(std::log(cell.energy_ratio / paper_energy));
  }
  const double n = cells.empty() ? 1.0 : static_cast<double>(cells.size());
  time_err = time_sum / n;
  energy_err = energy_sum / n;
}

}  // namespace e2e
