// Tests for the Data Center Manager over the full management stack:
// DCM -> IPMI session/transport -> BMC server -> BMC -> node.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/bmc_ipmi_server.hpp"
#include "core/dcm.hpp"
#include "fleet/virtual_node.hpp"
#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"

namespace pcap::core {
namespace {

struct Slot {
  std::unique_ptr<sim::Node> node;
  std::unique_ptr<Bmc> bmc;
  std::unique_ptr<BmcIpmiServer> server;
  std::unique_ptr<ipmi::LoopbackTransport> transport;

  explicit Slot(std::uint64_t seed) {
    node = std::make_unique<sim::Node>(sim::MachineConfig::romley(), seed);
    bmc = std::make_unique<Bmc>(*node);
    server = std::make_unique<BmcIpmiServer>(*bmc);
    node->set_control_hook(
        [b = bmc.get()](sim::PlatformControl&) { b->on_control_tick(); });
    transport = std::make_unique<ipmi::LoopbackTransport>(
        [s = server.get()](std::span<const std::uint8_t> frame) {
          return s->handle_frame(frame);
        });
  }

  void load(int phases = 4) {
    apps::PhasedParams p;
    p.phases = phases;
    apps::PhasedWorkload w(p);
    node->run(w);
  }
};

class DcmTest : public ::testing::Test {
 protected:
  DcmTest() {
    for (int i = 0; i < 3; ++i) {
      slots_.push_back(std::make_unique<Slot>(static_cast<std::uint64_t>(i + 1)));
      EXPECT_TRUE(
          dcm_.add_node("node-" + std::to_string(i), *slots_.back()->transport));
    }
  }
  std::vector<std::unique_ptr<Slot>> slots_;
  DataCenterManager dcm_;
};

TEST_F(DcmTest, DiscoveryAndNames) {
  EXPECT_EQ(dcm_.node_count(), 3u);
  EXPECT_EQ(dcm_.node_names(),
            (std::vector<std::string>{"node-0", "node-1", "node-2"}));
  EXPECT_NE(dcm_.node("node-1"), nullptr);
  EXPECT_EQ(dcm_.node("node-9"), nullptr);
}

TEST_F(DcmTest, RejectsDuplicateName) {
  EXPECT_FALSE(dcm_.add_node("node-0", *slots_[0]->transport));
  EXPECT_EQ(dcm_.node_count(), 3u);
}

TEST_F(DcmTest, RejectsDeadTransport) {
  ipmi::LoopbackTransport dead(
      [](std::span<const std::uint8_t>) { return std::vector<std::uint8_t>{}; });
  EXPECT_FALSE(dcm_.add_node("dead", dead));
}

TEST_F(DcmTest, NodeCapRoundTrips) {
  EXPECT_TRUE(dcm_.apply_node_cap("node-0", 135.0));
  ASSERT_TRUE(slots_[0]->bmc->cap().has_value());
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 135.0);
  const auto limit = dcm_.node("node-0")->power_limit();
  ASSERT_TRUE(limit.has_value());
  EXPECT_TRUE(limit->enabled);
  EXPECT_FALSE(dcm_.apply_node_cap("missing", 135.0));
  EXPECT_TRUE(dcm_.apply_node_cap("node-0", std::nullopt));
  EXPECT_FALSE(slots_[0]->bmc->cap().has_value());
}

TEST_F(DcmTest, GroupCapRespectsBudgetAndFloors) {
  for (auto& s : slots_) s->load();
  dcm_.poll();
  const auto applied = dcm_.apply_group_cap(420.0);
  ASSERT_EQ(applied.size(), 3u);
  double total = 0.0;
  for (const auto& [name, cap] : applied) {
    EXPECT_GE(cap, 110.0);  // node floor
    total += cap;
  }
  EXPECT_LE(total, 420.0 + 1e-6);
  // Caps actually landed on the BMCs.
  for (auto& s : slots_) EXPECT_TRUE(s->bmc->cap().has_value());
}

TEST_F(DcmTest, GroupCapHonoursPriorities) {
  for (auto& s : slots_) s->load();
  dcm_.poll();
  EXPECT_FALSE(dcm_.set_node_priority("missing", 4));
  EXPECT_FALSE(dcm_.set_node_priority("node-0", 0));
  ASSERT_TRUE(dcm_.set_node_priority("node-0", 4));
  EXPECT_EQ(dcm_.node_priority("node-0"), 4);
  EXPECT_EQ(dcm_.node_priority("node-1"), 1);

  const auto applied = dcm_.apply_group_cap(420.0);
  ASSERT_EQ(applied.size(), 3u);
  double high = 0.0, low = 0.0;
  for (const auto& [name, cap] : applied) {
    if (name == "node-0") high = cap;
    if (name == "node-1") low = cap;
  }
  // The priority-4 node gets a distinctly larger share of the surplus
  // (all three nodes ran comparable workloads).
  EXPECT_GT(high, low + 15.0);
}

TEST_F(DcmTest, GroupCapBelowFloorsRefused) {
  const auto applied = dcm_.apply_group_cap(200.0);  // < 3 x 110 W
  EXPECT_TRUE(applied.empty());
}

TEST_F(DcmTest, ClearCapsUncapsEveryNode) {
  dcm_.apply_node_cap("node-0", 130.0);
  dcm_.apply_node_cap("node-1", 140.0);
  dcm_.clear_caps();
  for (auto& s : slots_) EXPECT_FALSE(s->bmc->cap().has_value());
}

TEST_F(DcmTest, PollBuildsHistory) {
  for (int i = 0; i < 5; ++i) dcm_.poll();
  const auto* history = dcm_.history("node-0");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->size(), 5u);
  EXPECT_EQ(history->back().poll_seq, 5u);
  EXPECT_GT(dcm_.total_observed_power_w(), 3 * 90.0);
  EXPECT_EQ(dcm_.history("missing"), nullptr);
}

TEST_F(DcmTest, HistoryDepthBounded) {
  DcmConfig config;
  config.history_depth = 3;
  DataCenterManager dcm(config);
  dcm.add_node("n", *slots_[0]->transport);
  for (int i = 0; i < 10; ++i) dcm.poll();
  EXPECT_EQ(dcm.history("n")->size(), 3u);
}

TEST_F(DcmTest, AlertsOnThrottlingFloorViolation) {
  // Cap below the platform floor: the BMC saturates, power stays above the
  // cap, and after `violation_polls` consecutive over-cap polls the DCM
  // raises an alert naming the node.
  dcm_.apply_node_cap("node-0", 112.0);
  slots_[0]->load(6);
  for (int i = 0; i < 4; ++i) dcm_.poll();
  ASSERT_FALSE(dcm_.alerts().empty());
  EXPECT_EQ(dcm_.alerts().front().node, "node-0");
  EXPECT_NE(dcm_.alerts().front().message.find("cap missed"),
            std::string::npos);
}

TEST_F(DcmTest, NoAlertsWhenCapsAreMet) {
  dcm_.apply_node_cap("node-1", 150.0);
  slots_[1]->load();
  for (int i = 0; i < 4; ++i) dcm_.poll();
  EXPECT_TRUE(dcm_.alerts().empty());
}

TEST_F(DcmTest, ThrottleStatusVisibleOverIpmi) {
  dcm_.apply_node_cap("node-2", 120.0);
  slots_[2]->load(6);
  const auto status = dcm_.node("node-2")->throttle_status();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->capping_active);
  EXPECT_GT(status->pstate, 0);
}

TEST_F(DcmTest, CapScheduleFiresAtPolls) {
  using Sched = DataCenterManager::ScheduledCap;
  ASSERT_TRUE(dcm_.set_cap_schedule(
      "node-0", {Sched{2, 140.0}, Sched{4, 125.0}, Sched{6, std::nullopt}}));
  dcm_.poll();  // poll 1: nothing yet
  EXPECT_FALSE(slots_[0]->bmc->cap().has_value());
  dcm_.poll();  // poll 2: 140 W
  ASSERT_TRUE(slots_[0]->bmc->cap().has_value());
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 140.0);
  dcm_.poll();
  dcm_.poll();  // poll 4: 125 W
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 125.0);
  dcm_.poll();
  dcm_.poll();  // poll 6: uncapped
  EXPECT_FALSE(slots_[0]->bmc->cap().has_value());
}

TEST_F(DcmTest, CapScheduleValidation) {
  using Sched = DataCenterManager::ScheduledCap;
  EXPECT_FALSE(dcm_.set_cap_schedule("missing", {Sched{1, 130.0}}));
  // Out of order.
  EXPECT_FALSE(
      dcm_.set_cap_schedule("node-0", {Sched{5, 130.0}, Sched{2, 140.0}}));
  // Replacing a schedule works.
  EXPECT_TRUE(dcm_.set_cap_schedule("node-0", {Sched{1, 150.0}}));
  EXPECT_TRUE(dcm_.set_cap_schedule("node-0", {Sched{1, 130.0}}));
  dcm_.poll();
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 130.0);
}

/// Serves one VirtualNode, dropping its SetPowerLimit frames while
/// `drop_set_limit` is set and every frame while `drop_all` is set.
class ScriptedTransport : public ipmi::Transport {
 public:
  explicit ScriptedTransport(fleet::VirtualNode& node) : server_(node) {}

  std::vector<std::uint8_t> transact(
      std::span<const std::uint8_t> frame) override {
    // Frame layout [netfn, cmd, seq, len_lo, len_hi, payload..., checksum].
    const bool set_limit =
        frame.size() > 1 &&
        frame[1] == static_cast<std::uint8_t>(ipmi::Command::kSetPowerLimit);
    if (drop_all || (drop_set_limit && set_limit)) return {};
    return server_.handle_frame(frame);
  }

  bool drop_set_limit = false;
  bool drop_all = false;

 private:
  fleet::VirtualNodeIpmiServer server_;
};

TEST(DcmPushOrder, FailedDecreaseWithholdsIncreases) {
  // Three nodes under a 600 W group budget. Node 0's and node 1's demands
  // swap, so node 0's cap must rise and node 1's fall, while node 1's
  // SetPowerLimit frames are dropped. Pushing node 0's increase before
  // node 1's decrease would leave the BMCs enforcing 700 W.
  constexpr double kBudgetW = 600.0;
  std::vector<std::unique_ptr<fleet::VirtualNode>> nodes;
  std::vector<std::unique_ptr<ScriptedTransport>> links;
  DataCenterManager dcm;
  for (const double draw_w : {100.0, 300.0, 200.0}) {
    nodes.push_back(std::make_unique<fleet::VirtualNode>(100.0, 300.0, draw_w));
    links.push_back(std::make_unique<ScriptedTransport>(*nodes.back()));
    ASSERT_TRUE(dcm.add_node("node-" + std::to_string(links.size() - 1),
                             *links.back()));
  }
  auto enforced_w = [&] {
    double sum = 0.0;
    for (const auto& n : nodes) sum += n->cap_w().value_or(300.0);
    return sum;
  };
  auto alert_mentions = [&](const std::string& needle) {
    for (const auto& a : dcm.alerts()) {
      if (a.message.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  // Floors 300 W plus the 300 W surplus split 100:300:200.
  ASSERT_EQ(dcm.apply_group_cap(kBudgetW).size(), 3u);
  EXPECT_EQ(nodes[0]->cap_w(), 150.0);
  EXPECT_EQ(nodes[1]->cap_w(), 250.0);
  EXPECT_EQ(nodes[2]->cap_w(), 200.0);

  nodes[0]->set_draw_w(300.0);
  nodes[1]->set_draw_w(100.0);
  links[1]->drop_set_limit = true;

  // Group apply: node 1's decrease fails, so node 0's increase is withheld.
  EXPECT_TRUE(dcm.apply_group_cap(kBudgetW).empty());
  EXPECT_EQ(nodes[0]->cap_w(), 150.0);
  EXPECT_EQ(nodes[1]->cap_w(), 250.0);
  EXPECT_LE(enforced_w(), kBudgetW + 1e-9);

  // Rebalance: node 2 goes lost, its 200 W cap is reserved, and the 400 W
  // left is re-split 300:100 from the polled history, which again asks
  // node 1 to decrease and node 0 to increase.
  links[2]->drop_all = true;
  for (int i = 0; i < 4; ++i) dcm.poll();
  ASSERT_EQ(dcm.node_health("node-2"), NodeHealth::kLost);
  EXPECT_EQ(nodes[0]->cap_w(), 150.0);
  EXPECT_EQ(nodes[1]->cap_w(), 250.0);
  EXPECT_LE(enforced_w(), kBudgetW + 1e-9);
  EXPECT_TRUE(alert_mentions("rebalance: failed to apply 150.0 W cap"));
  EXPECT_TRUE(alert_mentions("withholding 1 cap increase"));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(dcm.node_applied_cap("node-" + std::to_string(i)),
              nodes[i]->cap_w());
  }

  // Once node 1's frames get through, the next apply lands both moves.
  links[1]->drop_set_limit = false;
  links[2]->drop_all = false;
  dcm.poll();
  const auto applied = dcm.apply_group_cap(kBudgetW);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(nodes[0]->cap_w(), 250.0);
  EXPECT_EQ(nodes[1]->cap_w(), 150.0);
  EXPECT_LE(enforced_w(), kBudgetW + 1e-9);
}

TEST(DcmFaulty, SurvivesLossyManagementNetwork) {
  Slot slot(7);
  ipmi::FaultyTransport faulty(*slot.transport, 0.3, 0.2, 11);
  DataCenterManager dcm;
  // Discovery may need a few tries over a lossy link.
  bool added = false;
  for (int i = 0; i < 10 && !added; ++i) added = dcm.add_node("n", faulty);
  ASSERT_TRUE(added);
  for (int i = 0; i < 20; ++i) dcm.poll();
  const auto* history = dcm.history("n");
  ASSERT_NE(history, nullptr);
  // Retries with backoff paper over ~44 % per-attempt loss: nearly every
  // poll lands even though individual frames keep failing underneath.
  EXPECT_GT(history->size(), 15u);
  EXPECT_GT(dcm.node("n")->transport_errors(), 0u);
  EXPECT_GT(dcm.node("n")->retries(), 0u);
  EXPECT_GT(dcm.node("n")->backoff_ms_total(), 0.0);
}

}  // namespace
}  // namespace pcap::core
