// RcBatch bit-exactness against the seed RC solver, one reference per
// instance.
//
// The batch is a pure layout change: B structurally identical networks in
// structure-of-arrays storage, advanced by one vectorized loop. Its contract
// is *bitwise* agreement with the same call sequence on the seed edge-list
// solver (reference_rc_network.hpp) — including the settle() /
// min_time_constant() interaction that can leave a stale substep plan.
// Heterogeneous structures must be rejected by matches() so each structure
// gets a batch of its own.
#include <cstdint>
#include <cstring>
#include <memory>
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

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))
#define ASSERT_BITS_EQ(a, b) ASSERT_EQ(bits(a), bits(b))

// The die--heatsink--ambient chain every cluster node simulates, built the
// same way PackageModel wires it.
struct PackageWiring {
  RcNetwork net;
  NodeId die;
  NodeId hs;
  NodeId amb;
  EdgeId die_hs;
  EdgeId conv;
};

std::unique_ptr<PackageWiring> make_package_wiring() {
  const PackageParams p;
  auto w = std::make_unique<PackageWiring>();
  w->die = w->net.add_node("die", p.c_die, Celsius{40.0});
  w->hs = w->net.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  w->amb = w->net.add_fixed_node("ambient", p.ambient);
  w->die_hs = w->net.add_edge(w->die, w->hs, p.r_die_heatsink);
  w->conv = w->net.add_edge(w->hs, w->amb, KelvinPerWatt{0.5});
  return w;
}

TEST(RcBatch, MirrorsTemplateStateAtConstruction) {
  auto tmpl = make_package_wiring();
  tmpl->net.set_power(tmpl->die, Watts{37.5});
  tmpl->net.set_resistance(tmpl->conv, KelvinPerWatt{0.31});
  RcBatch batch{tmpl->net, 4};

  EXPECT_EQ(batch.instance_count(), 4u);
  EXPECT_EQ(batch.rc_node_count(), 3u);
  EXPECT_EQ(batch.edge_count(), 2u);
  EXPECT_EQ(batch.node_name(tmpl->die), "die");
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                   tmpl->net.temperature(tmpl->die).value());
    EXPECT_BITS_EQ(batch.power(b, tmpl->die).value(), 37.5);
    EXPECT_BITS_EQ(batch.resistance(b, tmpl->conv).value(),
                   tmpl->net.resistance(tmpl->conv).value());
  }
  EXPECT_TRUE(batch.matches(tmpl->net));
}

TEST(RcBatch, TrajectoriesBitExactAgainstReference) {
  // Five instances driven with five *different* power/convection schedules,
  // mirrored onto five reference solvers; every temperature must agree
  // bitwise at every step. Schedules include repeated resistances (hitting
  // the set_resistance early-out) and dt changes (plan recompute).
  constexpr std::size_t kInstances = 5;
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kInstances};
  std::vector<ReferenceRcNetwork> ref(kInstances, ReferenceRcNetwork{tmpl->net});

  Rng rng{20260808};
  const double dts[] = {0.05, 0.05, 0.05, 0.25};  // mostly steady, some jumps
  for (int step = 0; step < 6000; ++step) {
    for (std::size_t b = 0; b < kInstances; ++b) {
      const double power = 5.0 + 90.0 * rng.uniform();
      // Quantized so the same value repeats across steps and the
      // early-out/dirty-bit path is exercised, not just the recompute path.
      const double r_conv = 0.15 + 0.05 * static_cast<double>(rng.below(10));
      batch.set_power(b, tmpl->die, Watts{power});
      batch.set_resistance(b, tmpl->conv, KelvinPerWatt{r_conv});
      ref[b].set_power(tmpl->die, Watts{power});
      ref[b].set_resistance(tmpl->conv, KelvinPerWatt{r_conv});
    }
    const Seconds dt{dts[rng.below(4)]};
    batch.step_all(dt);
    for (std::size_t b = 0; b < kInstances; ++b) {
      ref[b].step(dt);
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(), ref[b].temperature(tmpl->die))
          << "die diverged, instance " << b << " step " << step;
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->hs).value(), ref[b].temperature(tmpl->hs))
          << "heatsink diverged, instance " << b << " step " << step;
    }
  }
}

TEST(RcBatch, HeterogeneousSubstepPlansSplitTheRangeNotTheArithmetic) {
  // Give instances convection resistances low enough that the heatsink, not
  // the die, sets each smallest time constant — hence substep counts at
  // dt = 2 s differ from instance to instance. step_all must
  // still match per-instance stepping bitwise: runs split, arithmetic doesn't.
  constexpr std::size_t kInstances = 7;
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kInstances};
  std::vector<ReferenceRcNetwork> ref(kInstances, ReferenceRcNetwork{tmpl->net});
  for (std::size_t b = 0; b < kInstances; ++b) {
    const double r_conv = 0.002 * static_cast<double>(b + 1);  // 0.002 .. 0.014
    batch.set_resistance(b, tmpl->conv, KelvinPerWatt{r_conv});
    ref[b].set_resistance(tmpl->conv, KelvinPerWatt{r_conv});
    batch.set_power(b, tmpl->die, Watts{60.0});
    ref[b].set_power(tmpl->die, Watts{60.0});
  }
  // The plans really differ, so the range really splits.
  ASSERT_NE(ref[0].substeps(Seconds{2.0}), ref[kInstances - 1].substeps(Seconds{2.0}));
  for (int step = 0; step < 50; ++step) {
    batch.step_all(Seconds{2.0});
    for (std::size_t b = 0; b < kInstances; ++b) {
      ref[b].step(Seconds{2.0});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(), ref[b].temperature(tmpl->die))
          << "instance " << b << " step " << step;
    }
    ASSERT_BITS_EQ(batch.min_time_constant(2).value(), ref[2].min_time_constant());
  }
}

TEST(RcBatch, StepRangeAdvancesOnlyTheRange) {
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 3};
  for (std::size_t b = 0; b < 3; ++b) {
    batch.set_power(b, tmpl->die, Watts{80.0});
  }
  const double before = batch.temperature(2, tmpl->die).value();
  batch.step_range(Seconds{0.05}, 0, 2);
  EXPECT_BITS_EQ(batch.temperature(2, tmpl->die).value(), before);
  EXPECT_NE(bits(batch.temperature(0, tmpl->die).value()), bits(before));
}

TEST(RcBatch, SettleAndStalePlanQuirkMatchReference) {
  // RcBatch's known wart: set_resistance marks the substep plan stale, but
  // reading min_time_constant() (which settle() does) clears the flag
  // without refreshing the cached plan, so the next step at an unchanged dt
  // runs on the pre-change substep count. Two instances get the same drive;
  // only instance 0 reads min_time_constant between set_resistance and
  // step. Instance 0 must equal the reference stepped with the stale count,
  // instance 1 the normal reference.
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 2};
  ReferenceRcNetwork stale_ref{tmpl->net};  // instance 0
  ReferenceRcNetwork ref{tmpl->net};        // instance 1

  auto drive = [&](double power, double r_conv) {
    for (std::size_t b = 0; b < 2; ++b) {
      batch.set_power(b, tmpl->die, Watts{power});
      batch.set_resistance(b, tmpl->conv, KelvinPerWatt{r_conv});
    }
    for (ReferenceRcNetwork* r : {&stale_ref, &ref}) {
      r->set_power(tmpl->die, Watts{power});
      r->set_resistance(tmpl->conv, KelvinPerWatt{r_conv});
    }
  };
  auto check = [&](const char* what) {
    ASSERT_BITS_EQ(batch.temperature(0, tmpl->die).value(), stale_ref.temperature(tmpl->die))
        << what;
    ASSERT_BITS_EQ(batch.temperature(0, tmpl->hs).value(), stale_ref.temperature(tmpl->hs))
        << what;
    ASSERT_BITS_EQ(batch.temperature(1, tmpl->die).value(), ref.temperature(tmpl->die))
        << what;
    ASSERT_BITS_EQ(batch.temperature(1, tmpl->hs).value(), ref.temperature(tmpl->hs)) << what;
  };

  // Prime a plan at dt = 1.0.
  const Seconds dt{1.0};
  drive(40.0, 0.5);
  batch.step_all(dt);
  stale_ref.step(dt);
  ref.step(dt);
  check("after priming step");
  const int primed_substeps = ref.substeps(dt);

  // Shrink the heatsink time constant below the die's, so the plan needs
  // more substeps; then instance 0 reads min_time_constant.
  drive(40.0, 0.01);
  ASSERT_GT(ref.substeps(dt), primed_substeps);
  ASSERT_BITS_EQ(batch.min_time_constant(0).value(), ref.min_time_constant());
  batch.step_all(dt);
  stale_ref.step(dt, primed_substeps);
  ref.step(dt);
  check("after stale-plan step");
  ASSERT_NE(bits(batch.temperature(0, tmpl->die).value()),
            bits(batch.temperature(1, tmpl->die).value()))
      << "the stale plan must be observable";

  // settle() agrees bitwise with the reference settle.
  drive(25.0, 0.3);
  batch.settle(0);
  batch.settle(1);
  stale_ref.settle();
  ref.settle();
  check("after settle");
}

TEST(RcBatch, SettleRangeMatchesReferencePerInstance) {
  // settle_range marches blocks of instances in lockstep, but every column
  // must land on the bits of settling it alone: its own h (stale plan and
  // all), its own convergence iteration, its own cap. 1100 instances leave a
  // partial last block, and the range starts off a block boundary.
  constexpr std::size_t kCount = 1100;
  constexpr std::size_t kBegin = 37;
  constexpr std::size_t kAtRest = 500;  // zero power at ambient: converges on iteration 1
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kCount};
  std::vector<ReferenceRcNetwork> refs(kCount, ReferenceRcNetwork{tmpl->net});

  // Prime every instance's substep plan at dt.
  const Seconds dt{1.0};
  std::vector<int> primed(kCount);
  for (std::size_t b = 0; b < kCount; ++b) {
    const Watts p{b == kAtRest ? 0.0 : 5.0 + 0.9 * static_cast<double>(b % 97)};
    const Celsius amb{18.0 + static_cast<double>(b % 11)};
    batch.set_power(b, tmpl->die, p);
    batch.set_fixed_temperature(b, tmpl->amb, amb);
    refs[b].set_power(tmpl->die, p);
    refs[b].set_fixed_temperature(tmpl->amb, amb);
    primed[b] = refs[b].substeps(dt);
  }
  batch.step_all(dt);
  for (auto& r : refs) {
    r.step(dt);
  }
  // Two instances in three get a new convection resistance, some small
  // enough to need more substeps than the primed plan: settle's
  // min_time_constant read leaves those plans stale.
  std::size_t stale = 0;
  for (std::size_t b = 0; b < kCount; ++b) {
    if (b % 3 != 0 && b != kAtRest) {
      const KelvinPerWatt r{0.005 + 0.01 * static_cast<double>(b % 53)};
      batch.set_resistance(b, tmpl->conv, r);
      refs[b].set_resistance(tmpl->conv, r);
      stale += refs[b].substeps(dt) != primed[b] ? 1 : 0;
    }
  }
  ASSERT_GT(stale, 0u) << "the stale plan must be exercised";
  const Celsius rest_amb{18.0 + static_cast<double>(kAtRest % 11)};
  for (const NodeId n : {tmpl->die, tmpl->hs}) {
    batch.set_temperature(kAtRest, n, rest_amb);
    refs[kAtRest].set_temperature(n, rest_amb);
  }

  std::vector<double> untouched;
  for (std::size_t b = 0; b < kBegin; ++b) {
    untouched.push_back(batch.temperature(b, tmpl->die).value());
  }
  EXPECT_EQ(batch.settle_range(kBegin, kCount), 0u);
  for (std::size_t b = kBegin; b < kCount; ++b) {
    refs[b].settle();
  }
  for (std::size_t b = 0; b < kBegin; ++b) {
    ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(), untouched[b]) << "instance " << b;
  }
  auto check = [&](const char* what) {
    for (std::size_t b = kBegin; b < kCount; ++b) {
      for (const NodeId n : {tmpl->die, tmpl->hs, tmpl->amb}) {
        ASSERT_BITS_EQ(batch.temperature(b, n).value(), refs[b].temperature(n))
            << what << ": instance " << b << " node " << n.index;
      }
    }
  };
  check("after settle_range");
  ASSERT_BITS_EQ(batch.temperature(kAtRest, tmpl->die).value(), rest_amb.value());

  // The step after settling runs every instance on its primed plan.
  batch.step_range(dt, kBegin, kCount);
  for (std::size_t b = kBegin; b < kCount; ++b) {
    refs[b].step(dt, primed[b]);
  }
  check("after the stale-plan step");
}

TEST(RcBatch, SettleRangeCountsInstancesThatHitTheCap) {
  // Instance 0 is hot and far from equilibrium; instance 1 sits at rest at
  // ambient with no power, so its first iteration moves nothing.
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 2};
  batch.set_power(0, tmpl->die, Watts{80.0});
  const Celsius amb = batch.temperature(1, tmpl->amb);
  batch.set_power(1, tmpl->die, Watts{0.0});
  batch.set_temperature(1, tmpl->die, amb);
  batch.set_temperature(1, tmpl->hs, amb);

  EXPECT_EQ(batch.settle_range(0, 2, 1), 1u);
  EXPECT_EQ(batch.settle(0, 1), 1u);
  EXPECT_EQ(batch.settle(1, 1), 0u);
  EXPECT_EQ(batch.settle(0), 0u);
  EXPECT_EQ(batch.settle(0, 1), 0u) << "a settled column is at equilibrium";
}

TEST(RcBatch, MatchesRejectsStructuralDifferences) {
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 1};

  // Same structure, different state: still a match.
  auto same = make_package_wiring();
  same->net.set_power(same->die, Watts{99.0});
  same->net.set_resistance(same->conv, KelvinPerWatt{0.17});
  same->net.set_temperature(same->die, Celsius{70.0});
  EXPECT_TRUE(batch.matches(same->net));

  // Different capacitance (a beefier heatsink): structural, no match.
  {
    RcNetwork other;
    const PackageParams p;
    const NodeId die = other.add_node("die", p.c_die, Celsius{40.0});
    const NodeId hs = other.add_node("heatsink", JoulesPerKelvin{300.0}, Celsius{35.0});
    const NodeId amb = other.add_fixed_node("ambient", p.ambient);
    other.add_edge(die, hs, p.r_die_heatsink);
    other.add_edge(hs, amb, KelvinPerWatt{0.5});
    EXPECT_FALSE(batch.matches(other));
  }
  // Extra node (e.g. a second die): no match.
  {
    auto other = make_package_wiring();
    other->net.add_node("die2", JoulesPerKelvin{22.0}, Celsius{40.0});
    EXPECT_FALSE(batch.matches(other->net));
  }
  // Same counts, different edge wiring: no match.
  {
    RcNetwork other;
    const PackageParams p;
    const NodeId die = other.add_node("die", p.c_die, Celsius{40.0});
    const NodeId hs = other.add_node("heatsink", p.c_heatsink, Celsius{35.0});
    const NodeId amb = other.add_fixed_node("ambient", p.ambient);
    other.add_edge(die, amb, p.r_die_heatsink);  // die vented straight out
    other.add_edge(hs, amb, KelvinPerWatt{0.5});
    EXPECT_FALSE(batch.matches(other));
  }
  // Fixed/dynamic flip: no match.
  {
    RcNetwork other;
    const PackageParams p;
    const NodeId die = other.add_node("die", p.c_die, Celsius{40.0});
    const NodeId hs = other.add_node("heatsink", p.c_heatsink, Celsius{35.0});
    const NodeId amb = other.add_node("ambient", JoulesPerKelvin{1e6}, p.ambient);
    other.add_edge(die, hs, p.r_die_heatsink);
    other.add_edge(hs, amb, KelvinPerWatt{0.5});
    EXPECT_FALSE(batch.matches(other));
  }
}

TEST(RcBatch, MixedFleetStepsTheOddOneOutStandalone) {
  // A fleet where one machine has different hardware: the batch carries the
  // homogeneous majority, the odd network steps in a one-instance batch of
  // its own, and both match their references bitwise — two batches never
  // interfere.
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 2};
  std::vector<ReferenceRcNetwork> ref(2, ReferenceRcNetwork{tmpl->net});

  // The odd machine: extra chassis node between heatsink and ambient.
  RcNetwork odd;
  const PackageParams p;
  const NodeId odie = odd.add_node("die", p.c_die, Celsius{40.0});
  const NodeId ohs = odd.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  const NodeId ochassis = odd.add_node("chassis", JoulesPerKelvin{400.0}, Celsius{30.0});
  const NodeId oamb = odd.add_fixed_node("ambient", p.ambient);
  odd.add_edge(odie, ohs, p.r_die_heatsink);
  odd.add_edge(ohs, ochassis, KelvinPerWatt{0.2});
  odd.add_edge(ochassis, oamb, KelvinPerWatt{0.4});
  ASSERT_FALSE(batch.matches(odd));
  odd.set_power(odie, Watts{55.0});
  RcBatch odd_batch{odd, 1};
  ReferenceRcNetwork odd_ref{odd};

  for (std::size_t b = 0; b < 2; ++b) {
    batch.set_power(b, tmpl->die, Watts{55.0});
    ref[b].set_power(tmpl->die, Watts{55.0});
  }
  const double odd_start = odd_batch.temperature(0, odie).value();
  for (int step = 0; step < 200; ++step) {
    batch.step_all(Seconds{0.05});
    odd_batch.step_all(Seconds{0.05});
    odd_ref.step(Seconds{0.05});
    for (std::size_t b = 0; b < 2; ++b) {
      ref[b].step(Seconds{0.05});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(), ref[b].temperature(tmpl->die));
    }
    for (const NodeId n : {odie, ohs, ochassis}) {
      ASSERT_BITS_EQ(odd_batch.temperature(0, n).value(), odd_ref.temperature(n));
    }
  }
  EXPECT_GT(odd_batch.temperature(0, odie).value(), odd_start);  // odd one still simulated
}

// The vectorized substep sweeps process instances in SIMD lanes; counts not
// divisible by the vector width leave scalar tail iterations, and step_range
// can start/end mid-register. Every such shape must stay bit-exact against
// the per-instance reference. Widths up to 8 doubles (AVX-512) are covered by counts
// 1..13.
class RcBatchTailSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RcBatchTailSweep, OddInstanceCountsStayBitExact) {
  const std::size_t instances = GetParam();
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, instances};
  std::vector<ReferenceRcNetwork> ref(instances, ReferenceRcNetwork{tmpl->net});
  for (std::size_t b = 0; b < instances; ++b) {
    // Distinct per-instance powers so a lane mixup cannot cancel out.
    const double power = 20.0 + 7.0 * static_cast<double>(b);
    batch.set_power(b, tmpl->die, Watts{power});
    ref[b].set_power(tmpl->die, Watts{power});
  }
  for (int step = 0; step < 400; ++step) {
    batch.step_all(Seconds{0.05});
    for (std::size_t b = 0; b < instances; ++b) {
      ref[b].step(Seconds{0.05});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(), ref[b].temperature(tmpl->die))
          << "instance " << b << " of " << instances << " step " << step;
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->hs).value(), ref[b].temperature(tmpl->hs))
          << "instance " << b << " of " << instances << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TailCounts, RcBatchTailSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 13u));

TEST(RcBatch, StepRangeMisalignedBoundsStayBitExact) {
  // Shard boundaries land mid-register: step [0,3), [3,10) and [10,13)
  // separately (as the sharded engine would) and require bitwise agreement
  // with 13 references stepped with the same dt.
  constexpr std::size_t kInstances = 13;
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kInstances};
  std::vector<ReferenceRcNetwork> ref(kInstances, ReferenceRcNetwork{tmpl->net});
  for (std::size_t b = 0; b < kInstances; ++b) {
    const double power = 15.0 + 5.0 * static_cast<double>(b);
    batch.set_power(b, tmpl->die, Watts{power});
    ref[b].set_power(tmpl->die, Watts{power});
  }
  const std::size_t bounds[] = {0, 3, 10, 13};
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s + 1 < 4; ++s) {
      batch.step_range(Seconds{0.05}, bounds[s], bounds[s + 1]);
    }
    for (std::size_t b = 0; b < kInstances; ++b) {
      ref[b].step(Seconds{0.05});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(), ref[b].temperature(tmpl->die))
          << "instance " << b << " step " << step;
    }
  }
}

TEST(RcBatch, MemoryFootprintScalesWithInstances) {
  auto tmpl = make_package_wiring();
  RcBatch small{tmpl->net, 16};
  RcBatch large{tmpl->net, 1024};
  EXPECT_GT(small.memory_bytes(), 0u);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
  // The hot per-instance state is (K temps + K powers + K flux + 2E conds)
  // doubles = (3*3 + 2*2)*8 = 104 bytes/instance for the package wiring;
  // shared structure amortizes away at scale.
  const std::size_t delta = large.memory_bytes() - small.memory_bytes();
  EXPECT_NEAR(static_cast<double>(delta) / (1024 - 16), 104.0 + 8.0 * 2 + 1.0 + 4.0, 40.0);
}

}  // namespace
}  // namespace thermctl::thermal
