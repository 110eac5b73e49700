// A scripted fleet::ChildLink for driving a BudgetCoupler without a wire:
// pushes and polls succeed or fail on command, and every landed push is
// logged as (link id, watts) so tests can check the push order.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "fleet/coupler.hpp"

namespace pcap::test {

class ScriptedLink : public fleet::ChildLink {
 public:
  ScriptedLink(int id, std::vector<std::pair<int, double>>* log)
      : id_(id), log_(log) {}

  std::optional<double> push_budget(double watts) override {
    if (fail_pushes) return std::nullopt;
    log_->emplace_back(id_, watts);
    // A child still converging grants max(target, its commitments).
    actual_w = std::max(watts, sticky_floor_w);
    return actual_w;
  }
  std::optional<double> poll_demand() override {
    if (fail_polls) return std::nullopt;
    return actual_w;
  }
  double floor_w() const override { return 100.0; }
  double ceiling_w() const override { return 400.0; }

  double actual_w = 0.0;
  double sticky_floor_w = 0.0;  // >0: decreases stall at this level
  bool fail_pushes = false;
  bool fail_polls = false;

 private:
  int id_;
  std::vector<std::pair<int, double>>* log_;
};

}  // namespace pcap::test
