// FleetState: the SoA layout must be invisible except for the footprint.
//
// A Cluster (nodes viewing shared FleetState arrays, stepped by its
// FleetSweep) and standalone Nodes (each viewing a one-slot FleetState of its
// own, stepped by Node::step) run the same scenario and must agree *bitwise*
// on every observable: die temperatures, sensor readings, fan state, meters,
// jiffy counters, the protection ladder. The batched sweep is a performance
// change, not a semantic one.
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/fleet_state.hpp"

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
  ASSERT_EQ(a.busy_jiffies(), b.busy_jiffies());
  ASSERT_EQ(a.total_jiffies(), b.total_jiffies());
  ASSERT_EQ(a.halted(), b.halted());
  ASSERT_EQ(a.prochot_active(), b.prochot_active());
  ASSERT_EQ(a.prochot_events(), b.prochot_events());
  ASSERT_EQ(bits(a.prochot_time().value()), bits(b.prochot_time().value()));
}

TEST(FleetState, BatchedClusterBitIdenticalToPerNodeLayout) {
  // The Cluster steps exactly as the engine does — FleetSweep pre pass,
  // batched RC solve, post pass, sampling — while each standalone Node
  // steps through Node::step and samples on its own schedule.
  constexpr std::size_t kNodes = 6;
  NodeParams params;
  params.seed = 99;
  // A protection ladder low enough that the hot-inlet node below crosses
  // both PROCHOT and THERMTRIP inside the run.
  params.protection.prochot = Celsius{65.0};
  params.protection.critical = Celsius{72.0};
  Cluster rack{kNodes, params};
  std::vector<std::unique_ptr<Node>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeParams own = params;
    own.seed = params.seed + i * 7919;  // the seed Cluster assigns node i
    solo.push_back(std::make_unique<Node>(static_cast<int>(i), own));
  }
  FleetSweep& sweep = rack.sweep();
  auto& batch = rack.fleet()->batch();

  for (std::size_t i = 0; i < kNodes; ++i) {
    const double util = 0.1 + 0.13 * static_cast<double>(i);
    rack.node(i).set_utilization(Utilization{util});
    solo[i]->set_utilization(Utilization{util});
  }
  rack.settle_all();
  for (auto& n : solo) {
    n->settle();
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    expect_nodes_bitwise_equal(rack.node(i), *solo[i]);
  }

  // 45 simulated seconds with load changes, an inlet hot spot, a stuck fan,
  // a BMC fan override and its release, and a node driven past THERMTRIP —
  // the full per-node surface.
  const Seconds dt{0.05};
  SimTime now;
  for (int step = 0; step < 900; ++step) {
    if (step == 100) {
      rack.set_inlet_temperature(2, Celsius{38.0});
      solo[2]->package().set_ambient(Celsius{38.0});
    }
    if (step == 150) {
      // More than any fan can hold: node 5 heads for THERMTRIP.
      rack.set_inlet_temperature(5, Celsius{85.0});
      solo[5]->package().set_ambient(Celsius{85.0});
    }
    if (step == 200) {
      ASSERT_EQ(rack.node(1).bmc().set_fan_override(DutyCycle{35.0}),
                solo[1]->bmc().set_fan_override(DutyCycle{35.0}));
    }
    if (step == 250) {
      rack.node(4).fan().inject_stuck_fault();
      solo[4]->fan().inject_stuck_fault();
    }
    if (step == 600) {
      ASSERT_EQ(rack.node(1).fan().duty().percent(), 35.0);  // override held
      ASSERT_EQ(rack.node(1).bmc().set_fan_override(std::nullopt),
                solo[1]->bmc().set_fan_override(std::nullopt));
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double util = (step % 120 < 60) ? 0.95 : 0.05;
      rack.node(i).set_utilization(Utilization{util});
      solo[i]->set_utilization(Utilization{util});
    }

    SimTime after = now;
    after.advance_us(static_cast<std::int64_t>(dt.value() * 1e6));
    sweep.pre_range(0, kNodes, dt);
    batch.step_range(dt, 0, kNodes);
    sweep.post_range(0, kNodes, dt);
    const std::uint64_t samples = sweep.sample_range(0, kNodes, after);
    std::uint64_t solo_samples = 0;
    for (auto& n : solo) {
      n->step(dt);
      while (n->sample_schedule().due(after)) {
        n->sample_sensor();
        ++solo_samples;
      }
    }
    now = after;
    ASSERT_EQ(samples, solo_samples) << "step " << step;

    for (std::size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(bits(sweep.wall_power_w(i)), bits(solo[i]->wall_power().value()))
          << "node " << i << " step " << step;
      expect_nodes_bitwise_equal(rack.node(i), *solo[i]);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "node " << i << " step " << step;
      }
    }
  }
  // The scenario actually reached the rare paths it claims to cover.
  EXPECT_TRUE(solo[5]->halted()) << solo[5]->die_temperature().value();
  EXPECT_GT(solo[5]->prochot_events(), 0);
  EXPECT_FALSE(solo[0]->halted());
  ASSERT_EQ(bits(rack.total_power().value()),
            bits([&] {
              double sum = 0.0;
              for (auto& n : solo) {
                sum += n->meter().read().value();
              }
              return sum;
            }()));
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
