// FleetState: the SoA layout must be invisible except for the footprint.
//
// The per-node step runs as FleetSweep's passes over a range of slots. A
// Cluster stepped as the engine steps it (whole-range passes, batched RC
// solve, sampling) must agree *bitwise* on every observable — die
// temperatures, sensor readings, fan state, meters, jiffy counters, the
// protection ladder — with the device-method reference of
// reference_node_step.hpp, and with the same nodes stepped one slot at a
// time by Node::step, in a cluster or standalone.
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/fleet_state.hpp"
#include "reference_node_step.hpp"

namespace thermctl::cluster {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void expect_nodes_bitwise_equal(Node& a, Node& b) {
  ASSERT_EQ(bits(a.die_temperature().value()), bits(b.die_temperature().value()));
  ASSERT_EQ(bits(a.package().heatsink_temperature().value()),
            bits(b.package().heatsink_temperature().value()));
  ASSERT_EQ(bits(a.sensor_reading().value()), bits(b.sensor_reading().value()));
  ASSERT_EQ(bits(a.fan().rpm().value()), bits(b.fan().rpm().value()));
  ASSERT_EQ(bits(a.fan().duty().percent()), bits(b.fan().duty().percent()));
  ASSERT_EQ(bits(a.meter().energy().value()), bits(b.meter().energy().value()));
  ASSERT_EQ(bits(a.cpu().frequency().value()), bits(b.cpu().frequency().value()));
  ASSERT_EQ(a.cpu().aperf(), b.cpu().aperf());
  ASSERT_EQ(a.cpu().energy_uj(), b.cpu().energy_uj());
  ASSERT_EQ(a.busy_jiffies(), b.busy_jiffies());
  ASSERT_EQ(a.total_jiffies(), b.total_jiffies());
  ASSERT_EQ(a.halted(), b.halted());
  ASSERT_EQ(a.prochot_active(), b.prochot_active());
  ASSERT_EQ(a.prochot_events(), b.prochot_events());
  ASSERT_EQ(bits(a.prochot_time().value()), bits(b.prochot_time().value()));
}

constexpr std::size_t kNodes = 6;
constexpr int kSteps = 900;
const Seconds kDt{0.05};

/// Six nodes with a protection ladder low enough that the hot-inlet node of
/// the scenario crosses both PROCHOT and THERMTRIP inside the run.
NodeParams scenario_params() {
  NodeParams params;
  params.seed = 99;
  params.protection.prochot = Celsius{65.0};
  params.protection.critical = Celsius{72.0};
  return params;
}

/// Views over a cluster's nodes, in slot order.
std::vector<Node*> nodes_of(Cluster& rack) {
  std::vector<Node*> nodes;
  for (std::size_t i = 0; i < rack.size(); ++i) {
    nodes.push_back(&rack.node(i));
  }
  return nodes;
}

/// Standalone nodes with the seeds Cluster assigns.
std::vector<std::unique_ptr<Node>> standalone_nodes(const NodeParams& params) {
  std::vector<std::unique_ptr<Node>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeParams own = params;
    own.seed = params.seed + i * 7919;
    solo.push_back(std::make_unique<Node>(static_cast<int>(i), own));
  }
  return solo;
}

/// Initial mixed loads, applied before settling.
void load_initial(const std::vector<Node*>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->set_utilization(Utilization{0.1 + 0.13 * static_cast<double>(i)});
  }
}

/// 45 simulated seconds of load changes, an inlet hot spot, a stuck fan, a
/// BMC fan override and its release, and a node driven past THERMTRIP — the
/// full per-node surface. Applies step `step`'s events to `nodes`.
void apply_events(int step, const std::vector<Node*>& nodes) {
  if (step == 100) {
    nodes[2]->package().set_ambient(Celsius{38.0});
  }
  if (step == 150) {
    nodes[5]->package().set_ambient(Celsius{85.0});  // more than any fan holds
  }
  if (step == 200) {
    ASSERT_EQ(nodes[1]->bmc().set_fan_override(DutyCycle{35.0}), sysfs::IpmiCompletion::kOk);
  }
  if (step == 250) {
    nodes[4]->fan().inject_stuck_fault();
  }
  if (step == 600) {
    ASSERT_EQ(nodes[1]->fan().duty().percent(), 35.0);  // override held
    ASSERT_EQ(nodes[1]->bmc().set_fan_override(std::nullopt), sysfs::IpmiCompletion::kOk);
  }
  for (Node* n : nodes) {
    n->set_utilization(Utilization{(step % 120 < 60) ? 0.95 : 0.05});
  }
}

/// Samples each node on its own schedule up to `after`; returns the count.
std::uint64_t sample_each(const std::vector<Node*>& nodes, SimTime after) {
  std::uint64_t samples = 0;
  for (Node* n : nodes) {
    while (n->sample_schedule().due(after)) {
      n->sample_sensor();
      ++samples;
    }
  }
  return samples;
}

/// Steps a cluster as the engine does: whole-range passes around one batched
/// RC solve, then sampling.
std::uint64_t step_whole_range(Cluster& rack, SimTime after) {
  FleetSweep& sweep = rack.sweep();
  sweep.pre_range(0, rack.size(), kDt);
  rack.fleet()->batch().step_range(kDt, 0, rack.size());
  sweep.post_range(0, rack.size(), kDt);
  return sweep.sample_range(0, rack.size(), after);
}

/// The scenario's post-conditions: it reached the rare paths it covers.
void expect_scenario_covered(const std::vector<Node*>& nodes) {
  EXPECT_TRUE(nodes[5]->halted()) << nodes[5]->die_temperature().value();
  EXPECT_GT(nodes[5]->prochot_events(), 0);
  EXPECT_FALSE(nodes[0]->halted());
}

TEST(FleetState, BatchedClusterBitIdenticalToPerNodeLayout) {
  // `rack` steps as the engine does; `ref` is an identical cluster whose
  // nodes settle one by one and step through the device-method reference.
  const NodeParams params = scenario_params();
  Cluster rack{kNodes, params};
  Cluster ref{kNodes, params};
  const std::vector<Node*> a = nodes_of(rack);
  const std::vector<Node*> b = nodes_of(ref);
  load_initial(a);
  load_initial(b);
  rack.settle_all();
  for (Node* n : b) {
    n->settle();
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    expect_nodes_bitwise_equal(*a[i], *b[i]);
  }

  SimTime now;
  for (int step = 0; step < kSteps; ++step) {
    apply_events(step, a);
    apply_events(step, b);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;

    SimTime after = now;
    after.advance_us(static_cast<std::int64_t>(kDt.value() * 1e6));
    const std::uint64_t samples = step_whole_range(rack, after);
    for (std::size_t i = 0; i < kNodes; ++i) {
      reference_node_step(*b[i], *ref.fleet(), i, params, kDt);
    }
    ASSERT_EQ(samples, sample_each(b, after)) << "step " << step;
    now = after;

    for (std::size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(bits(rack.sweep().wall_power_w(i)), bits(reference_wall_power_w(*b[i])))
          << "node " << i << " step " << step;
      expect_nodes_bitwise_equal(*a[i], *b[i]);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "node " << i << " step " << step;
      }
    }
  }
  expect_scenario_covered(b);
  ASSERT_EQ(bits(rack.total_power().value()), bits(ref.total_power().value()));
}

TEST(FleetState, ClusterNodeStepMatchesWholeRangePasses) {
  // Node::step is the sweep over one slot. A cluster whose nodes step one
  // at a time, and standalone nodes (each with a one-node sweep over its
  // one-slot fleet), must match a cluster stepped by whole-range passes.
  const NodeParams params = scenario_params();
  Cluster rack{kNodes, params};
  Cluster stepped{kNodes, params};
  std::vector<std::unique_ptr<Node>> owned = standalone_nodes(params);
  std::vector<Node*> solo;
  for (auto& n : owned) {
    solo.push_back(n.get());
  }
  const std::vector<Node*> a = nodes_of(rack);
  const std::vector<Node*> b = nodes_of(stepped);
  load_initial(a);
  load_initial(b);
  load_initial(solo);
  rack.settle_all();
  stepped.settle_all();
  for (Node* n : solo) {
    n->settle();
  }

  SimTime now;
  for (int step = 0; step < kSteps; ++step) {
    apply_events(step, a);
    apply_events(step, b);
    apply_events(step, solo);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;

    SimTime after = now;
    after.advance_us(static_cast<std::int64_t>(kDt.value() * 1e6));
    const std::uint64_t samples = step_whole_range(rack, after);
    for (std::size_t i = 0; i < kNodes; ++i) {
      b[i]->step(kDt);
      solo[i]->step(kDt);
    }
    ASSERT_EQ(samples, sample_each(b, after)) << "step " << step;
    ASSERT_EQ(samples, sample_each(solo, after)) << "step " << step;
    now = after;

    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::uint64_t wall = bits(a[i]->wall_power().value());
      ASSERT_EQ(wall, bits(b[i]->wall_power().value())) << "node " << i << " step " << step;
      ASSERT_EQ(wall, bits(solo[i]->wall_power().value())) << "node " << i << " step " << step;
      expect_nodes_bitwise_equal(*a[i], *b[i]);
      expect_nodes_bitwise_equal(*a[i], *solo[i]);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "node " << i << " step " << step;
      }
    }
  }
  expect_scenario_covered(a);
  expect_scenario_covered(solo);
}

TEST(FleetState, DeviceStateLivesInFleetArrays) {
  constexpr std::size_t kNodes = 3;
  NodeParams params;
  Cluster rack{kNodes, params};
  FleetState* fleet = rack.fleet();
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->size(), kNodes);

  // Writing through the Node API must be visible in the SoA slot and vice
  // versa — the device is a view, not a copy.
  rack.node(1).fan().set_duty(DutyCycle{63.0});
  EXPECT_EQ(*fleet->fan_duty_slot(1), 63.0);
  *fleet->fan_duty_slot(1) = 28.0;
  EXPECT_EQ(rack.node(1).fan().duty().percent(), 28.0);

  rack.node(2).sample_sensor();
  EXPECT_EQ(*fleet->sensor_last_slot(2), rack.node(2).sensor_reading().value());

  // The batch column is the package's temperature storage.
  const auto& wiring = fleet->wiring();
  EXPECT_EQ(bits(fleet->batch().temperature(0, wiring.die).value()),
            bits(rack.node(0).die_temperature().value()));
}

TEST(FleetState, MemoryFootprintIsFlatPerNode) {
  NodeParams params;
  FleetState small{params.package, 64};
  FleetState large{params.package, 4096};
  const double small_per_node = static_cast<double>(small.memory_bytes()) / 64.0;
  const double large_per_node = static_cast<double>(large.memory_bytes()) / 4096.0;
  // Shared structure amortizes: per-node bytes must not grow with the fleet,
  // and the hot state is on the order of a hundred bytes, not kilobytes.
  EXPECT_LE(large_per_node, small_per_node * 1.1);
  EXPECT_LT(large_per_node, 512.0);
}

}  // namespace
}  // namespace thermctl::cluster
