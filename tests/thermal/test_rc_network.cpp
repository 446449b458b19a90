// RC network physics, simulated as a one-instance RcBatch.
//
// RcNetwork is the builder (topology + initial state) and RcBatch the one
// integrator, so these solver checks — analytic steady state, exponential
// rise, cooling, stability, energy conservation — run on `RcBatch{net, 1}`.
// The builder's own contract (its argument checks) is tested directly.
#include "thermal/rc_network.hpp"

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "thermal/rc_batch.hpp"

namespace thermctl::thermal {
namespace {

using namespace thermctl::literals;

// A single node R-C against a fixed ambient: T(t) = T_amb + P*R*(1 - e^(-t/RC)).
struct SingleNodeRig {
  RcNetwork net;
  NodeId node;
  NodeId amb;
  EdgeId edge;
  std::optional<RcBatch> batch;

  SingleNodeRig(double c, double r, double t_amb = 25.0) {
    node = net.add_node("n", JoulesPerKelvin{c}, Celsius{t_amb});
    amb = net.add_fixed_node("amb", Celsius{t_amb});
    edge = net.add_edge(node, amb, KelvinPerWatt{r});
    batch.emplace(net, 1);
  }
  void set_power(Watts p) { batch->set_power(0, node, p); }
  void step(Seconds dt) { batch->step_one(0, dt); }
  void settle() { batch->settle(0); }
  [[nodiscard]] double temperature(NodeId n) const { return batch->temperature(0, n).value(); }
};

TEST(RcNetwork, SteadyStateMatchesAnalyticSolution) {
  SingleNodeRig rig{100.0, 0.5};
  rig.set_power(40.0_W);
  rig.settle();
  // T_ss = 25 + 40 * 0.5 = 45.
  EXPECT_NEAR(rig.temperature(rig.node), 45.0, 1e-4);
}

TEST(RcNetwork, ExponentialRiseMatchesAnalytic) {
  SingleNodeRig rig{100.0, 0.5};  // tau = 50 s
  rig.set_power(40.0_W);
  rig.step(Seconds{50.0});  // one time constant
  const double expected = 25.0 + 20.0 * (1.0 - std::exp(-1.0));
  // Explicit Euler at tau/4 sub-steps carries a few-percent local error.
  EXPECT_NEAR(rig.temperature(rig.node), expected, 0.6);
}

TEST(RcNetwork, CoolsBackToAmbientWhenPowerRemoved) {
  SingleNodeRig rig{50.0, 0.4};
  rig.set_power(60.0_W);
  rig.settle();
  rig.set_power(0.0_W);
  rig.step(Seconds{500.0});
  EXPECT_NEAR(rig.temperature(rig.node), 25.0, 0.05);
}

TEST(RcNetwork, TemperatureNeverOvershootsSteadyStateFromBelow) {
  SingleNodeRig rig{20.0, 0.3};
  rig.set_power(80.0_W);
  const double t_ss = 25.0 + 80.0 * 0.3;
  double prev = 25.0;
  for (int i = 0; i < 400; ++i) {
    rig.step(Seconds{0.25});
    const double t = rig.temperature(rig.node);
    EXPECT_GE(t + 1e-9, prev);  // monotone rise
    EXPECT_LE(t, t_ss + 1e-6);  // no overshoot (first-order system)
    prev = t;
  }
}

TEST(RcNetwork, TwoNodeChainSteadyState) {
  RcNetwork net;
  const NodeId die = net.add_node("die", JoulesPerKelvin{20.0}, 25.0_degC);
  const NodeId hs = net.add_node("hs", JoulesPerKelvin{300.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  net.add_edge(die, hs, KelvinPerWatt{0.12});
  net.add_edge(hs, amb, KelvinPerWatt{0.30});
  net.set_power(die, 50.0_W);
  RcBatch batch{net, 1};
  batch.settle(0);
  // All power flows through both resistances in series.
  EXPECT_NEAR(batch.temperature(0, hs).value(), 25.0 + 50.0 * 0.30, 1e-3);
  EXPECT_NEAR(batch.temperature(0, die).value(), 25.0 + 50.0 * 0.42, 1e-3);
}

TEST(RcNetwork, ResistanceUpdateShiftsEquilibrium) {
  SingleNodeRig rig{50.0, 0.5};
  rig.set_power(40.0_W);
  rig.settle();
  EXPECT_NEAR(rig.temperature(rig.node), 45.0, 1e-3);
  // Fan speeds up: resistance halves, equilibrium drops.
  rig.batch->set_resistance(0, rig.edge, KelvinPerWatt{0.25});
  rig.settle();
  EXPECT_NEAR(rig.temperature(rig.node), 35.0, 1e-3);
}

TEST(RcNetwork, ResistanceAccessorRoundTrips) {
  SingleNodeRig rig{10.0, 0.5};
  EXPECT_NEAR(rig.net.resistance(rig.edge).value(), 0.5, 1e-12);
  EXPECT_NEAR(rig.batch->resistance(0, rig.edge).value(), 0.5, 1e-12);
  rig.net.set_resistance(rig.edge, KelvinPerWatt{0.125});
  rig.batch->set_resistance(0, rig.edge, KelvinPerWatt{0.125});
  EXPECT_NEAR(rig.net.resistance(rig.edge).value(), 0.125, 1e-12);
  EXPECT_NEAR(rig.batch->resistance(0, rig.edge).value(), 0.125, 1e-12);
}

TEST(RcNetwork, FixedNodeTemperatureIsBoundary) {
  SingleNodeRig rig{50.0, 0.5};
  rig.set_power(40.0_W);
  rig.step(Seconds{100.0});
  EXPECT_DOUBLE_EQ(rig.temperature(rig.amb), 25.0);
  rig.batch->set_fixed_temperature(0, rig.amb, 35.0_degC);
  rig.settle();
  EXPECT_NEAR(rig.temperature(rig.node), 55.0, 1e-3);
}

TEST(RcNetwork, MinTimeConstantIsSmallestTau) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{10.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  net.add_edge(a, amb, KelvinPerWatt{0.5});  // tau = 5 s
  EXPECT_NEAR(RcBatch(net, 1).min_time_constant(0).value(), 5.0, 1e-9);

  const NodeId b = net.add_node("b", JoulesPerKelvin{1.0}, 25.0_degC);
  net.add_edge(b, amb, KelvinPerWatt{0.5});  // tau = 0.5 s
  EXPECT_NEAR(RcBatch(net, 1).min_time_constant(0).value(), 0.5, 1e-9);
}

TEST(RcNetwork, LargeStepRemainsStable) {
  // Sub-stepping must keep explicit Euler stable even for steps far beyond
  // the smallest time constant.
  SingleNodeRig rig{1.0, 0.1};  // tau = 0.1 s
  rig.set_power(50.0_W);
  rig.step(Seconds{10.0});  // 100x tau in one call
  EXPECT_NEAR(rig.temperature(rig.node), 30.0, 0.05);
}

TEST(RcNetwork, EnergyConservationInClosedPair) {
  // Two dynamic nodes exchanging heat with no boundary: total thermal energy
  // (C*T summed) must be conserved.
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{10.0}, 80.0_degC);
  const NodeId b = net.add_node("b", JoulesPerKelvin{30.0}, 20.0_degC);
  net.add_edge(a, b, KelvinPerWatt{0.5});
  RcBatch batch{net, 1};
  const double e0 = 10.0 * 80.0 + 30.0 * 20.0;
  batch.step_one(0, Seconds{5.0});
  const double e1 = 10.0 * batch.temperature(0, a).value() + 30.0 * batch.temperature(0, b).value();
  EXPECT_NEAR(e0, e1, 1e-6);
  // And they relax toward the common temperature e0 / (C_a + C_b) = 35.
  batch.step_one(0, Seconds{500.0});
  EXPECT_NEAR(batch.temperature(0, a).value(), 35.0, 0.01);
  EXPECT_NEAR(batch.temperature(0, b).value(), 35.0, 0.01);
}

TEST(RcNetwork, NodeNamesStored) {
  RcNetwork net;
  const NodeId a = net.add_node("die", JoulesPerKelvin{1.0}, 25.0_degC);
  EXPECT_EQ(net.node_name(a), "die");
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(RcBatch(net, 1).node_name(a), "die");
}

TEST(RcNetworkDeath, RejectsNonPositiveResistance) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{1.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  EXPECT_DEATH(net.add_edge(a, amb, KelvinPerWatt{0.0}), "positive");
}

TEST(RcNetworkDeath, RejectsPowerIntoFixedNode) {
  RcNetwork net;
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  EXPECT_DEATH(net.set_power(amb, Watts{1.0}), "fixed");
}

TEST(RcNetworkDeath, RejectsSelfEdge) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{1.0}, 25.0_degC);
  EXPECT_DEATH(net.add_edge(a, a, KelvinPerWatt{1.0}), "self");
}

// Property sweep: steady state is linear in power for a range of (P, R).
class RcSteadyStateSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RcSteadyStateSweep, SteadyStateLinearInPowerAndResistance) {
  const auto [power, resistance] = GetParam();
  SingleNodeRig rig{40.0, resistance};
  rig.set_power(Watts{power});
  rig.settle();
  EXPECT_NEAR(rig.temperature(rig.node), 25.0 + power * resistance, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(PowerResistanceGrid, RcSteadyStateSweep,
                         ::testing::Combine(::testing::Values(5.0, 20.0, 65.0, 110.0),
                                            ::testing::Values(0.1, 0.3, 0.6, 1.2)));

}  // namespace
}  // namespace thermctl::thermal
