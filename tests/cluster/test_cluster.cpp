#include "cluster/cluster.hpp"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

namespace thermctl::cluster {
namespace {

NodeParams quiet() {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.0;
  return p;
}

TEST(Cluster, BuildsRequestedNodeCount) {
  Cluster cluster{4, quiet()};
  EXPECT_EQ(cluster.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).id(), static_cast<int>(i));
  }
}

TEST(Cluster, NodesGetDistinctNoiseSeeds) {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.3;
  Cluster cluster{2, p};
  // Same true temperature, different noise streams.
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    const double a = cluster.node(0).sample_sensor().value();
    const double b = cluster.node(1).sample_sensor().value();
    if (a != b) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 5);
}

TEST(Cluster, IpmiNetworkReachesAllNodes) {
  Cluster cluster{3, quiet()};
  EXPECT_EQ(cluster.ipmi().nodes().size(), 3u);
  sysfs::SensorReading reading;
  for (int n = 0; n < 3; ++n) {
    cluster.node(static_cast<std::size_t>(n)).sample_sensor();
    EXPECT_EQ(cluster.ipmi().get_sensor_reading(n, 1, reading), sysfs::IpmiCompletion::kOk);
  }
}

TEST(Cluster, HotSpotRaisesOneNodesTemperature) {
  Cluster cluster{4, quiet()};
  cluster.set_inlet_temperature(2, Celsius{40.0});
  cluster.settle_all();
  const double hot = cluster.node(2).die_temperature().value();
  const double normal = cluster.node(0).die_temperature().value();
  EXPECT_GT(hot, normal + 8.0);
}

TEST(Cluster, TotalPowerSumsNodes) {
  Cluster cluster{4, quiet()};
  const double total = cluster.total_power().value();
  const double one = cluster.node(0).meter().read().value();
  EXPECT_NEAR(total, 4.0 * one, 8.0);
}

TEST(Cluster, IpmiFanOverridePerNode) {
  Cluster cluster{2, quiet()};
  ASSERT_EQ(cluster.ipmi().set_fan_override(1, DutyCycle{95.0}), sysfs::IpmiCompletion::kOk);
  for (int i = 0; i < 100; ++i) {
    cluster.node(0).step(Seconds{0.05});
    cluster.node(1).step(Seconds{0.05});
  }
  EXPECT_NEAR(cluster.node(1).fan().duty().percent(), 95.0, 0.5);
  EXPECT_LT(cluster.node(0).fan().duty().percent(), 50.0);
}

TEST(Cluster, SettleAllMatchesStandaloneNodes) {
  // settle_all runs the settle stages stage-major with one batched solve of
  // the whole fleet in between; each node must come out bit-identical to a
  // standalone node settled alone. 300 nodes span a partial solve block.
  constexpr std::size_t kCount = 300;
  constexpr std::size_t kOverride = 123;
  const NodeParams base;  // sensor noise on: the per-node RNG streams must line up too
  auto prepare = [](Node& node, std::size_t i) {
    node.set_utilization(Utilization{0.25 * static_cast<double>(i % 5)});
    node.package().set_ambient(Celsius{18.0 + static_cast<double>(i % 7)});
    if (i == kOverride) {
      ASSERT_EQ(node.bmc().set_fan_override(DutyCycle{85.0}), sysfs::IpmiCompletion::kOk);
    }
  };
  Cluster cluster{kCount, base};
  for (std::size_t i = 0; i < kCount; ++i) {
    prepare(cluster.node(i), i);
  }
  cluster.settle_all();

  auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  for (std::size_t i = 0; i < kCount; ++i) {
    NodeParams params = base;
    params.seed = base.seed + i * 7919;
    Node alone{static_cast<int>(i), params};
    prepare(alone, i);
    alone.settle();
    Node& node = cluster.node(i);
    ASSERT_EQ(bits(node.die_temperature().value()), bits(alone.die_temperature().value()))
        << "node " << i;
    ASSERT_EQ(bits(node.package().heatsink_temperature().value()),
              bits(alone.package().heatsink_temperature().value()))
        << "node " << i;
    ASSERT_EQ(bits(node.fan().rpm().value()), bits(alone.fan().rpm().value())) << "node " << i;
    ASSERT_EQ(bits(node.sensor_reading().value()), bits(alone.sensor_reading().value()))
        << "node " << i;
    ASSERT_EQ(bits(node.fan_chip().output_duty().percent()),
              bits(alone.fan_chip().output_duty().percent()))
        << "node " << i;
  }
  EXPECT_NEAR(cluster.node(kOverride).fan().duty().percent(), 85.0, 1e-9);
}

TEST(ClusterDeath, ZeroNodesAborts) {
  EXPECT_DEATH(Cluster(0, NodeParams{}), "node");
}

}  // namespace
}  // namespace thermctl::cluster
