// Microbenchmarks (google-benchmark): costs of the hot paths.
//
// The paper's controller runs in-band on the managed node at 4 Hz, so its
// own overhead must be negligible next to the workload. These benchmarks
// quantify that claim for every layer: window update, array fill, selector
// arithmetic, the full controller tick including the sysfs + i2c round
// trips, one RC physics step, and a whole-node engine step.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/node.hpp"
#include "core/control_array.hpp"
#include "core/fan_policy.hpp"
#include "core/mode_selector.hpp"
#include "core/two_level_window.hpp"
#include "thermal/package_model.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace {

using namespace thermctl;

void BM_WindowAddSample(benchmark::State& state) {
  core::TwoLevelWindow window;
  double t = 45.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(window.add_sample(Celsius{t}));
  }
}
BENCHMARK(BM_WindowAddSample);

void BM_ControlArrayFill(benchmark::State& state) {
  std::vector<double> duties;
  for (int d = 1; d <= 100; ++d) {
    duties.push_back(static_cast<double>(d));
  }
  int pp = 1;
  for (auto _ : state) {
    core::ThermalControlArray arr{duties, 100, core::PolicyParam{pp}};
    benchmark::DoNotOptimize(arr.mode(50));
    pp = pp % 100 + 1;
  }
}
BENCHMARK(BM_ControlArrayFill);

void BM_ModeSelectorDecide(benchmark::State& state) {
  core::ModeSelector selector{core::ModeSelectorConfig{}, 100};
  core::WindowRound round;
  round.level1_delta = CelsiusDelta{0.3};
  round.level2_delta = CelsiusDelta{1.2};
  round.level2_valid = true;
  std::size_t index = 40;
  for (auto _ : state) {
    const auto d = selector.decide(index, round);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ModeSelectorDecide);

void BM_PackagePhysicsStep(benchmark::State& state) {
  thermal::PackageModel pkg{thermal::PackageParams{}};
  pkg.set_cpu_power(Watts{60.0});
  pkg.set_airflow(Cfm{16.0});
  for (auto _ : state) {
    pkg.step(Seconds{0.05});
  }
  benchmark::DoNotOptimize(pkg.die_temperature());
}
BENCHMARK(BM_PackagePhysicsStep);

void BM_NodeFullStep(benchmark::State& state) {
  // One standalone node's physics step: its one-node FleetSweep's pre pass,
  // RC solve and post pass over its one-slot fleet.
  cluster::NodeParams params;
  cluster::Node node{0, params};
  node.set_utilization(Utilization{0.8});
  for (auto _ : state) {
    node.step(Seconds{0.05});
  }
  benchmark::DoNotOptimize(node.die_temperature());
}
BENCHMARK(BM_NodeFullStep);

void BM_ControllerTickThroughSysfs(benchmark::State& state) {
  // Full in-band control tick: hwmon read (vfs + string parse) + window +
  // selector + pwm write (vfs -> driver -> i2c -> chip).
  cluster::NodeParams params;
  cluster::Node node{0, params};
  core::FanControlConfig cfg;
  cfg.pp = core::PolicyParam{50};
  core::DynamicFanController fan{node.hwmon(), cfg};
  node.set_utilization(Utilization{1.0});
  SimTime now;
  for (auto _ : state) {
    node.step(Seconds{0.05});
    node.sample_sensor();
    now.advance_us(250000);
    fan.on_sample(now);
  }
}
BENCHMARK(BM_ControllerTickThroughSysfs);

void BM_PerObjectRcStepFleet(benchmark::State& state) {
  // Per-object layout: N one-instance package batches stepped one at a time
  // — the object walk a standalone package pays, against the shared batch
  // below.
  const std::size_t instances = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<thermal::RcBatch>> packages;
  packages.reserve(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    packages.push_back(std::make_unique<thermal::RcBatch>(
        thermal::PackageModel::make_batch(thermal::PackageParams{}, 1)));
  }
  for (auto _ : state) {
    for (auto& package : packages) {
      package->step_all(Seconds{0.05});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_PerObjectRcStepFleet)->Arg(1)->Arg(64)->Arg(4096);

void BM_RcBatchStepFleet(benchmark::State& state) {
  // The batched solver: same package topology, N instances advanced by
  // restrict-qualified SoA sweeps over the instance axis (scalar under
  // GCC 12 at -O2; see docs/performance.md). items/sec here vs
  // BM_PerObjectRcStepFleet is the layout win; the arithmetic per instance
  // is the same.
  const std::size_t instances = static_cast<std::size_t>(state.range(0));
  thermal::RcBatch batch =
      thermal::PackageModel::make_batch(thermal::PackageParams{}, instances);
  for (auto _ : state) {
    batch.step_all(Seconds{0.05});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_RcBatchStepFleet)->Arg(1)->Arg(64)->Arg(4096);

void BM_SimulatedSecondFourNodes(benchmark::State& state) {
  // Cost of simulating one wall-clock second of a 4-node cluster at the
  // default 50 ms physics step (20 steps/node), stepping node by node: each
  // Node::step runs the cluster's FleetSweep over that node's one slot (the
  // engine runs the same passes over whole shards instead).
  cluster::NodeParams params;
  cluster::Cluster rack{4, params};
  for (std::size_t i = 0; i < 4; ++i) {
    rack.node(i).set_utilization(Utilization{0.75});
  }
  for (auto _ : state) {
    for (int step = 0; step < 20; ++step) {
      for (std::size_t i = 0; i < 4; ++i) {
        rack.node(i).step(Seconds{0.05});
      }
    }
  }
}
BENCHMARK(BM_SimulatedSecondFourNodes);

}  // namespace
