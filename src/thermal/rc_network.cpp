#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::thermal {

RcNetworkConfig RcNetworkConfig::single_rc(const power::ThermalConfig& legacy) {
  RcNetworkConfig cfg;
  cfg.ambient_c = legacy.ambient_c;
  RcNodeConfig node;
  node.name = "package";
  node.r_to_ambient_c_per_w = legacy.r_thermal_c_per_w;
  cfg.nodes.push_back(node);
  cfg.legacy_tau = legacy.tau;
  return cfg;
}

RcNetworkConfig RcNetworkConfig::romley_network(
    const power::ThermalConfig& legacy) {
  RcNetworkConfig cfg;
  cfg.ambient_c = legacy.ambient_c;
  // Node 0: CPU die. Node 1: uncore die region. Node 2: DRAM (DIMMs, cooled
  // by chassis airflow, not the heatsink). Node 3: heatsink.
  // CPU path junction-to-ambient = r(cpu->hs) + r(hs->amb)
  //                              = 0.08 + 0.27 = legacy 0.35 C/W.
  // Capacities chosen for time constants in the legacy-tau band (simulated
  // milliseconds): cpu ~0.4 ms, uncore ~0.7 ms, dram ~1 ms, heatsink ~2 ms.
  cfg.nodes = {
      {"cpu", 5.0e-3, 0.0},
      {"uncore", 6.0e-3, 0.0},
      {"dram", 1.7e-3, 0.6},
      {"heatsink", 5.2e-2, 0.27},
  };
  cfg.edges = {
      {0, 3, 0.08},  // cpu die -> heatsink
      {1, 3, 0.12},  // uncore region -> heatsink
  };
  cfg.source_node = {0, 1, 2};  // cpu, uncore, memory heat entry points
  cfg.sensor_node = 0;          // package sensor reads the CPU die
  cfg.exhaust_node = 3;         // fan modulates heatsink -> ambient
  return cfg;
}

RcNetwork::RcNetwork(const RcNetworkConfig& config) : config_(config) {
  if (config_.nodes.empty()) {
    config_ = RcNetworkConfig::single_rc(power::ThermalConfig{});
  }
  temps_.assign(config_.nodes.size(), config_.ambient_c);
  r_ambient_.resize(config_.nodes.size());
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    r_ambient_[i] = config_.nodes[i].r_to_ambient_c_per_w;
  }
  flow_.assign(config_.nodes.size(), 0.0);
  recompute_min_tau();
  rebuild_coefficients();
}

void RcNetwork::rebuild_coefficients() {
  const std::size_t n = config_.nodes.size();
  inv_c_.resize(n);
  inv_r_ambient_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    inv_c_[i] = 1.0 / config_.nodes[i].heat_capacity_j_per_c;
    inv_r_ambient_[i] = r_ambient_[i] > 0.0 ? 1.0 / r_ambient_[i] : 0.0;
  }
  edge_inv_r_.resize(config_.edges.size());
  for (std::size_t k = 0; k < config_.edges.size(); ++k) {
    const double r = config_.edges[k].r_c_per_w;
    edge_inv_r_[k] = r > 0.0 ? 1.0 / r : 0.0;
  }
}

void RcNetwork::recompute_min_tau() {
  // Per-node effective time constant tau_i = C_i / sum(1/R) over the node's
  // edges (ambient included). Bounds the explicit-Euler substep.
  min_tau_s_ = 0.0;
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    double conductance = 0.0;
    if (r_ambient_[i] > 0.0) conductance += 1.0 / r_ambient_[i];
    for (const RcEdgeConfig& e : config_.edges) {
      if (static_cast<std::size_t>(e.a) == i ||
          static_cast<std::size_t>(e.b) == i) {
        if (e.r_c_per_w > 0.0) conductance += 1.0 / e.r_c_per_w;
      }
    }
    if (conductance <= 0.0) continue;  // isolated node: no constraint
    const double tau = config_.nodes[i].heat_capacity_j_per_c / conductance;
    if (min_tau_s_ == 0.0 || tau < min_tau_s_) min_tau_s_ = tau;
  }
  plan_dt_ = 0;  // substep plan depends on min_tau: recompute on next update
  acc_stride_ = static_cast<util::Picoseconds>(util::seconds(0.2 * min_tau_s_));
}

void RcNetwork::update_lumped(double watts, util::Picoseconds dt) {
  // Same expressions, same order as the standalone single-RC model this
  // replaced: the golden results depend on this exact sequence.
  const double steady = config_.ambient_c + r_ambient_[0] * watts;
  const double alpha =
      1.0 -
      std::exp(-static_cast<double>(dt) / static_cast<double>(config_.legacy_tau));
  temps_[0] += (steady - temps_[0]) * alpha;
}

void RcNetwork::update(
    const std::array<double, power::kSubsystemCount>& subsystem_w,
    util::Picoseconds dt) {
  // Explicit Euler, substepped so each step stays well under the fastest
  // node time constant (node ticks are 5 us against ~0.4 ms taus, so this
  // is one step in practice; the bound is a safety net for exotic configs).
  // The meter tick calls this with the same dt every time, so the substep
  // plan is cached and the loop body runs on precomputed reciprocals.
  if (dt != plan_dt_) {
    const double dt_s = util::to_seconds(dt);
    int steps = 1;
    if (min_tau_s_ > 0.0) {
      steps = static_cast<int>(dt_s / (0.25 * min_tau_s_)) + 1;
      steps = std::clamp(steps, 1, 64);
    }
    plan_dt_ = dt;
    plan_steps_ = steps;
    plan_h_ = dt_s / static_cast<double>(steps);
  }

  const std::size_t n = temps_.size();
  const std::size_t edges = config_.edges.size();
  double* flow = flow_.data();
  for (int s = 0; s < plan_steps_; ++s) {
    for (std::size_t i = 0; i < n; ++i) flow[i] = 0.0;
    for (int src = 0; src < power::kSubsystemCount; ++src) {
      flow[static_cast<std::size_t>(config_.source_node[
          static_cast<std::size_t>(src)])] +=
          subsystem_w[static_cast<std::size_t>(src)];
    }
    for (std::size_t k = 0; k < edges; ++k) {
      const RcEdgeConfig& e = config_.edges[k];
      const double q = (temps_[static_cast<std::size_t>(e.a)] -
                        temps_[static_cast<std::size_t>(e.b)]) *
                       edge_inv_r_[k];
      flow[static_cast<std::size_t>(e.a)] -= q;
      flow[static_cast<std::size_t>(e.b)] += q;
    }
    for (std::size_t i = 0; i < n; ++i) {
      flow[i] += (config_.ambient_c - temps_[i]) * inv_r_ambient_[i];
      temps_[i] += plan_h_ * flow[i] * inv_c_[i];
    }
  }
}

void RcNetwork::flush() {
  if (acc_dt_ == 0) return;
  const double inv = 1.0 / static_cast<double>(acc_dt_);
  const util::Picoseconds dt = acc_dt_;
  const std::array<double, power::kSubsystemCount> avg_w = {
      acc_w_dt_[0] * inv, acc_w_dt_[1] * inv, acc_w_dt_[2] * inv};
  acc_w_dt_ = {};
  acc_dt_ = 0;
  update(avg_w, dt);
}

void RcNetwork::set_exhaust_r_slow(double r_c_per_w) {
  // A resistance change invalidates the pending window's average R; fold
  // the buffered heat at the old operating point first.
  flush();
  r_ambient_[static_cast<std::size_t>(config_.exhaust_node)] = r_c_per_w;
  recompute_min_tau();
  rebuild_coefficients();
}

double RcNetwork::exhaust_r() const {
  return r_ambient_[static_cast<std::size_t>(config_.exhaust_node)];
}

void RcNetwork::reset() {
  std::fill(temps_.begin(), temps_.end(), config_.ambient_c);
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    r_ambient_[i] = config_.nodes[i].r_to_ambient_c_per_w;
  }
  acc_w_dt_ = {};
  acc_dt_ = 0;
  recompute_min_tau();
  rebuild_coefficients();
}

}  // namespace pcap::thermal
