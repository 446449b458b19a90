// Equivalence of RcBatch, the one RC integrator, against the seed solver.
//
// RcBatch flattens adjacency into a shared CSR layout, keeps the stability
// bound fresh incrementally and caches each instance's substep plan; this
// test pins it against the seed edge-list solver (reference_rc_network.hpp:
// alloc-per-step, recompute-everything) and requires trajectories to agree
// bitwise — the batch is a layout/caching change, not a numerical one.
// Exercised on the package-model wiring (with fan-like per-step resistance
// updates) and on a randomized 32-node network.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "reference_rc_network.hpp"
#include "thermal/package_model.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(RcEquivalence, PackageModelWiringMatchesReference) {
  // The die--heatsink--ambient chain of PackageParams, with the
  // heatsink-ambient resistance modulated per step the way fan-dependent
  // convection modulates it in a real run.
  const PackageParams p;

  RcNetwork net;
  const NodeId die = net.add_node("die", p.c_die, Celsius{40.0});
  const NodeId hs = net.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  const NodeId amb = net.add_fixed_node("ambient", p.ambient);
  net.add_edge(die, hs, p.r_die_heatsink);
  const EdgeId conv = net.add_edge(hs, amb, KelvinPerWatt{0.5});
  RcBatch batch{net, 1};
  ReferenceRcNetwork ref{net};

  Rng rng{42};
  const Seconds dt{0.05};
  for (int step = 0; step < 20000; ++step) {
    // Power swings between idle and cpu-burn; convection follows a
    // fan-ramp-like trajectory.
    const Watts power{20.0 + 70.0 * rng.uniform()};
    const KelvinPerWatt r_conv{0.15 + 0.5 * rng.uniform()};
    batch.set_power(0, die, power);
    batch.set_resistance(0, conv, r_conv);
    ref.set_power(die, power);
    ref.set_resistance(conv, r_conv);

    batch.step_one(0, dt);
    ref.step(dt);

    ASSERT_EQ(bits(batch.temperature(0, die).value()), bits(ref.temperature(die)))
        << "step " << step;
    ASSERT_EQ(bits(batch.temperature(0, hs).value()), bits(ref.temperature(hs)))
        << "step " << step;
  }
}

TEST(RcEquivalence, Randomized32NodeNetworkMatchesReference) {
  Rng rng{20260806};
  constexpr std::size_t kNodes = 32;

  RcNetwork net;
  std::vector<NodeId> ids;
  std::vector<bool> fixed(kNodes, false);
  for (std::size_t i = 0; i < kNodes; ++i) {
    // A few boundary nodes scattered through the network.
    if (i % 11 == 3) {
      const double t = 20.0 + 10.0 * rng.uniform();
      ids.push_back(net.add_fixed_node("amb" + std::to_string(i), Celsius{t}));
      fixed[i] = true;
    } else {
      const double c = 5.0 + 200.0 * rng.uniform();
      const double t0 = 25.0 + 30.0 * rng.uniform();
      ids.push_back(net.add_node("n" + std::to_string(i), JoulesPerKelvin{c}, Celsius{t0}));
    }
  }
  // A connected random graph: chain backbone plus random chords.
  std::vector<EdgeId> edges;
  for (std::size_t i = 1; i < kNodes; ++i) {
    const double r = 0.2 + 2.0 * rng.uniform();
    edges.push_back(net.add_edge(ids[i - 1], ids[i], KelvinPerWatt{r}));
  }
  for (int k = 0; k < 24; ++k) {
    const std::size_t a = rng.below(kNodes);
    const std::size_t b = rng.below(kNodes);
    if (a == b) {
      continue;
    }
    const double r = 0.2 + 2.0 * rng.uniform();
    edges.push_back(net.add_edge(ids[a], ids[b], KelvinPerWatt{r}));
  }
  RcBatch batch{net, 1};
  ReferenceRcNetwork ref{net};

  const Seconds dt{0.05};
  for (int step = 0; step < 4000; ++step) {
    // Mutate a random subset of powers and resistances each step to stress
    // the cache-invalidation paths.
    for (int m = 0; m < 4; ++m) {
      const std::size_t n = rng.below(kNodes);
      if (!fixed[n]) {
        const Watts p{50.0 * rng.uniform()};
        batch.set_power(0, ids[n], p);
        ref.set_power(ids[n], p);
      }
      const EdgeId e = edges[rng.below(edges.size())];
      const KelvinPerWatt r{0.2 + 2.0 * rng.uniform()};
      batch.set_resistance(0, e, r);
      ref.set_resistance(e, r);
    }

    batch.step_one(0, dt);
    ref.step(dt);

    for (std::size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(bits(batch.temperature(0, ids[i]).value()), bits(ref.temperature(ids[i])))
          << "node " << i << " diverged at step " << step;
    }
  }
}

TEST(RcEquivalence, MinTimeConstantTracksResistanceChanges) {
  // The incrementally maintained stability bound must follow set_resistance
  // immediately (a stale bound would show up as a wrong sub-step count, not
  // a crash).
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{10.0}, Celsius{30.0});
  const NodeId amb = net.add_fixed_node("amb", Celsius{25.0});
  const EdgeId e = net.add_edge(a, amb, KelvinPerWatt{1.0});
  RcBatch batch{net, 1};
  EXPECT_NEAR(batch.min_time_constant(0).value(), 10.0, 1e-12);
  batch.step_one(0, Seconds{0.05});
  batch.set_resistance(0, e, KelvinPerWatt{0.1});
  EXPECT_NEAR(batch.min_time_constant(0).value(), 1.0, 1e-12);
  batch.step_one(0, Seconds{0.05});
  batch.set_resistance(0, e, KelvinPerWatt{10.0});
  EXPECT_NEAR(batch.min_time_constant(0).value(), 100.0, 1e-12);
}

}  // namespace
}  // namespace thermctl::thermal
