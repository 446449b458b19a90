// Sharded engine determinism: EngineConfig::workers must be behaviourally
// inert. The differential oracle covers full experiment configs; these tests
// pin the property at the engine level with rigs the oracle does not build
// (room coupling + per-node load functions + default sensor noise; a
// controller bank ticking on the shards with per-node trace rings), across
// divisible and non-divisible node/shard partitions, compared bit-for-bit.

#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "core/control_bank.hpp"
#include "obs/trace.hpp"

namespace thermctl::cluster {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))

/// A rig that exercises every coupling point the BSP barrier must respect:
/// room inlet feedback (rack power reduced across all nodes each step),
/// per-node synthetic loads out of phase with each other, and the default
/// seeded sensor noise so sample order matters.
RunResult run_rig(std::size_t nodes, int workers) {
  NodeParams params;  // defaults: sensor noise on, per-node seeds
  Cluster cluster{nodes, params};
  RoomModel room{nodes};
  EngineConfig cfg;
  cfg.horizon = Seconds{12.0};
  cfg.workers = workers;
  Engine engine{cluster, cfg};
  engine.attach_room(room);
  for (std::size_t i = 0; i < nodes; ++i) {
    engine.set_node_load_fn(i, [i](SimTime t) {
      const double phase = t.seconds() + static_cast<double>(i);
      return Utilization{0.5 + 0.4 * std::sin(phase)};
    });
  }
  return engine.run();
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t t = 0; t < a.times.size(); ++t) {
    EXPECT_BITS_EQ(a.times[t], b.times[t]) << "t=" << t;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const NodeSeries& sa = a.nodes[i];
    const NodeSeries& sb = b.nodes[i];
    ASSERT_EQ(sa.die_temp.size(), sb.die_temp.size()) << "node " << i;
    for (std::size_t t = 0; t < sa.die_temp.size(); ++t) {
      EXPECT_BITS_EQ(sa.die_temp[t], sb.die_temp[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.sensor_temp[t], sb.sensor_temp[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.duty[t], sb.duty[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.rpm[t], sb.rpm[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.power_w[t], sb.power_w[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.util[t], sb.util[t]) << "node " << i << " t=" << t;
    }
  }
  ASSERT_EQ(a.summaries.size(), b.summaries.size());
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    EXPECT_BITS_EQ(a.summaries[i].avg_die_temp, b.summaries[i].avg_die_temp);
    EXPECT_BITS_EQ(a.summaries[i].max_die_temp, b.summaries[i].max_die_temp);
    EXPECT_BITS_EQ(a.summaries[i].energy_j, b.summaries[i].energy_j);
  }
}

TEST(ShardedEngine, ResolvedWorkersClampsToNodesAndHardware) {
  NodeParams params;
  Cluster cluster{5, params};
  {
    Engine engine{cluster, EngineConfig{}};
    EXPECT_EQ(engine.resolved_workers(), 1u);  // default workers = 1
  }
  {
    EngineConfig cfg;
    cfg.workers = 3;
    Engine engine{cluster, cfg};
    EXPECT_EQ(engine.resolved_workers(), 3u);
  }
  {
    EngineConfig cfg;
    cfg.workers = 100;  // more shards than nodes: clamp to node count
    Engine engine{cluster, cfg};
    EXPECT_EQ(engine.resolved_workers(), 5u);
  }
  {
    EngineConfig cfg;
    cfg.workers = 0;  // auto: one per hardware thread, at least one
    Engine engine{cluster, cfg};
    EXPECT_GE(engine.resolved_workers(), 1u);
    EXPECT_LE(engine.resolved_workers(), 5u);
  }
}

TEST(ShardedEngine, BitIdenticalToSerialAcrossPartitions) {
  // 7 nodes: workers 2 -> shards 4+3, 3 -> 3+2+2, 7 -> all singletons, and
  // 16 clamps to 7. None but the last divide evenly.
  const RunResult serial = run_rig(7, 1);
  for (int workers : {2, 3, 7, 16}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_bitwise_equal(serial, run_rig(7, workers));
  }
}

TEST(ShardedEngine, SingleNodeClusterShardsToOneAndMatches) {
  const RunResult serial = run_rig(1, 1);
  expect_bitwise_equal(serial, run_rig(1, 4));
}

/// What a banked rig leaves behind: the recorded run, every controller's
/// event logs and every node's trace ring.
struct BankedRun {
  RunResult result;
  std::vector<std::vector<core::FanEvent>> fan_events;
  std::vector<std::vector<core::TdvfsEvent>> dvfs_events;
  std::vector<std::vector<obs::TraceEvent>> rings;
};

/// Unified controllers in a ControlBank, ticked from one periodic as the
/// benches and the experiment harness do, over a hot out-of-phase fleet
/// load: the fans retarget and tDVFS triggers, so the sharded tick writes
/// the node's fan chip, cpufreq P-state, event logs and trace ring.
BankedRun run_banked_rig(std::size_t nodes, int workers) {
  NodeParams params;
  Cluster cluster{nodes, params};
  EngineConfig cfg;
  cfg.horizon = Seconds{40.0};
  cfg.workers = workers;
  Engine engine{cluster, cfg};
  engine.set_fleet_load_fn([](SimTime t, double* util, const std::uint8_t* halted,
                              std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const double phase = 0.5 * t.seconds() + static_cast<double>(i);
      util[i] = halted[i] != 0 ? 0.0 : 0.75 + 0.25 * std::sin(phase);
    }
  });
  obs::RunTrace trace{nodes, 1u << 12};
  core::ControlBank bank{nodes, cluster.fleet()->sensor_last_data()};
  for (std::size_t i = 0; i < nodes; ++i) {
    core::UnifiedConfig ucfg;
    ucfg.pp = core::PolicyParam{20};
    ucfg.tdvfs.threshold = Celsius{40.0};  // below the rig's hot phases
    core::UnifiedController& c =
        bank.emplace_unified(i, cluster.node(i).hwmon(), cluster.node(i).cpufreq(), ucfg);
    c.set_trace(&trace.ring(i));
    cluster.node(i).fan_driver().set_trace(&trace.ring(i));
  }
  engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });

  BankedRun out;
  out.result = engine.run();
  for (std::size_t i = 0; i < nodes; ++i) {
    out.fan_events.push_back(bank.unified(i).fan().events());
    out.dvfs_events.push_back(bank.unified(i).dvfs().events());
    out.rings.push_back(trace.ring(i).events());
  }
  return out;
}

void expect_bitwise_equal(const BankedRun& a, const BankedRun& b) {
  expect_bitwise_equal(a.result, b.result);
  for (std::size_t i = 0; i < a.result.nodes.size(); ++i) {
    const NodeSeries& sa = a.result.nodes[i];
    const NodeSeries& sb = b.result.nodes[i];
    ASSERT_EQ(sa.freq_ghz.size(), sb.freq_ghz.size()) << "node " << i;
    for (std::size_t t = 0; t < sa.freq_ghz.size(); ++t) {
      EXPECT_BITS_EQ(sa.freq_ghz[t], sb.freq_ghz[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.activity[t], sb.activity[t]) << "node " << i << " t=" << t;
    }
    EXPECT_EQ(a.result.summaries[i].freq_transitions, b.result.summaries[i].freq_transitions);
  }
  ASSERT_EQ(a.fan_events.size(), b.fan_events.size());
  for (std::size_t i = 0; i < a.fan_events.size(); ++i) {
    ASSERT_EQ(a.fan_events[i].size(), b.fan_events[i].size()) << "node " << i;
    for (std::size_t k = 0; k < a.fan_events[i].size(); ++k) {
      const core::FanEvent& x = a.fan_events[i][k];
      const core::FanEvent& y = b.fan_events[i][k];
      EXPECT_BITS_EQ(x.time_s, y.time_s) << "node " << i << " fan event " << k;
      EXPECT_BITS_EQ(x.from_duty, y.from_duty) << "node " << i << " fan event " << k;
      EXPECT_BITS_EQ(x.to_duty, y.to_duty) << "node " << i << " fan event " << k;
      EXPECT_EQ(x.used_level2, y.used_level2) << "node " << i << " fan event " << k;
    }
  }
  ASSERT_EQ(a.dvfs_events.size(), b.dvfs_events.size());
  for (std::size_t i = 0; i < a.dvfs_events.size(); ++i) {
    ASSERT_EQ(a.dvfs_events[i].size(), b.dvfs_events[i].size()) << "node " << i;
    for (std::size_t k = 0; k < a.dvfs_events[i].size(); ++k) {
      const core::TdvfsEvent& x = a.dvfs_events[i][k];
      const core::TdvfsEvent& y = b.dvfs_events[i][k];
      EXPECT_BITS_EQ(x.time_s, y.time_s) << "node " << i << " dvfs event " << k;
      EXPECT_BITS_EQ(x.from_ghz, y.from_ghz) << "node " << i << " dvfs event " << k;
      EXPECT_BITS_EQ(x.to_ghz, y.to_ghz) << "node " << i << " dvfs event " << k;
    }
  }
  ASSERT_EQ(a.rings.size(), b.rings.size());
  for (std::size_t i = 0; i < a.rings.size(); ++i) {
    ASSERT_EQ(a.rings[i].size(), b.rings[i].size()) << "node " << i;
    for (std::size_t k = 0; k < a.rings[i].size(); ++k) {
      const obs::TraceEvent& x = a.rings[i][k];
      const obs::TraceEvent& y = b.rings[i][k];
      EXPECT_BITS_EQ(x.t_s, y.t_s) << "node " << i << " ring event " << k;
      EXPECT_EQ(x.node, y.node) << "node " << i << " ring event " << k;
      EXPECT_EQ(x.type, y.type) << "node " << i << " ring event " << k;
      EXPECT_EQ(x.subsystem, y.subsystem) << "node " << i << " ring event " << k;
      EXPECT_EQ(x.flags, y.flags) << "node " << i << " ring event " << k;
      EXPECT_EQ(x.i0, y.i0) << "node " << i << " ring event " << k;
      EXPECT_EQ(x.i1, y.i1) << "node " << i << " ring event " << k;
      EXPECT_BITS_EQ(x.a, y.a) << "node " << i << " ring event " << k;
      EXPECT_BITS_EQ(x.b, y.b) << "node " << i << " ring event " << k;
      EXPECT_BITS_EQ(x.c, y.c) << "node " << i << " ring event " << k;
    }
  }
}

TEST(ShardedEngine, BankTicksAndRecordingBitIdenticalAcrossWorkers) {
  // 37 nodes divide evenly over none of 2, 3, 4 or 7 shards.
  const BankedRun serial = run_banked_rig(37, 1);
  std::size_t fan_events = 0;
  std::size_t dvfs_events = 0;
  for (std::size_t i = 0; i < serial.fan_events.size(); ++i) {
    fan_events += serial.fan_events[i].size();
    dvfs_events += serial.dvfs_events[i].size();
  }
  ASSERT_GT(fan_events, 0u) << "the rig must make the fans retarget";
  ASSERT_GT(dvfs_events, 0u) << "the rig must make tDVFS trigger";
  for (int workers : {2, 3, 4, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_bitwise_equal(serial, run_banked_rig(37, workers));
  }
}

}  // namespace
}  // namespace thermctl::cluster
