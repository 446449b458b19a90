// The seed RC integrator, kept as the test reference RcBatch is held to.
//
// A line-for-line port of the original edge-list solver: edge-ordered flux
// accumulation, the minimum time constant recomputed (with allocation) on
// every step, no caching anywhere. RcBatch's contract is bitwise agreement
// with this reference under the same call sequence; its plan cache is an
// optimization the reference deliberately does not have.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {

class ReferenceRcNetwork {
 public:
  /// Copies `net`'s nodes, edges, conductances, temperatures and powers.
  explicit ReferenceRcNetwork(const RcNetwork& net) {
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      const NodeId n{i};
      fixed_.push_back(net.is_fixed(n));
      cap_.push_back(fixed_.back() ? 0.0 : net.capacitance(n).value());
      temp_.push_back(net.temperature(n).value());
      power_.push_back(fixed_.back() ? 0.0 : net.power(n).value());
    }
    for (std::size_t e = 0; e < net.edge_count(); ++e) {
      const auto [a, b] = net.edge_nodes(EdgeId{e});
      ea_.push_back(a.index);
      eb_.push_back(b.index);
      g_.push_back(net.edge_conductance(EdgeId{e}));
    }
  }

  void set_resistance(EdgeId e, KelvinPerWatt r) { g_[e.index] = 1.0 / r.value(); }
  void set_power(NodeId n, Watts p) { power_[n.index] = p.value(); }
  void set_fixed_temperature(NodeId n, Celsius t) { temp_[n.index] = t.value(); }
  void set_temperature(NodeId n, Celsius t) { temp_[n.index] = t.value(); }
  [[nodiscard]] double temperature(NodeId n) const { return temp_[n.index]; }

  [[nodiscard]] double min_time_constant() const {
    std::vector<double> conductance(cap_.size(), 0.0);
    for (std::size_t e = 0; e < g_.size(); ++e) {
      conductance[ea_[e]] += g_[e];
      conductance[eb_[e]] += g_[e];
    }
    double min_tau = 1e30;
    for (std::size_t i = 0; i < cap_.size(); ++i) {
      if (!fixed_[i] && conductance[i] > 0.0) {
        min_tau = std::min(min_tau, cap_[i] / conductance[i]);
      }
    }
    return min_tau;
  }

  /// Substep count for a step of `dt` under the current resistances: every
  /// substep at most min_tau/8.
  [[nodiscard]] int substeps(Seconds dt) const {
    const double max_sub = std::max(1e-6, min_time_constant() / 8.0);
    return std::max(1, static_cast<int>(std::ceil(dt.value() / max_sub)));
  }

  void step(Seconds dt) { step(dt, substeps(dt)); }

  /// Steps with an explicit substep count, e.g. a plan computed before a
  /// resistance change.
  void step(Seconds dt, int substeps) {
    const double h = dt.value() / substeps;
    for (int s = 0; s < substeps; ++s) {
      euler_substep(h);
    }
  }

  /// Marches with large (but stable) steps, h = min_tau/2, until quiescent.
  void settle(int max_iterations = 200000, double tolerance_kelvin = 1e-7) {
    const double h = min_time_constant() / 2.0;
    for (int it = 0; it < max_iterations; ++it) {
      const std::vector<double> before = temp_;
      euler_substep(h);
      double delta = 0.0;
      for (std::size_t i = 0; i < temp_.size(); ++i) {
        delta = std::max(delta, std::abs(temp_[i] - before[i]));
      }
      if (delta < tolerance_kelvin) {
        return;
      }
    }
  }

 private:
  void euler_substep(double dt) {
    std::vector<double> flux(cap_.size(), 0.0);
    for (std::size_t e = 0; e < g_.size(); ++e) {
      const double q = (temp_[ea_[e]] - temp_[eb_[e]]) * g_[e];
      flux[ea_[e]] -= q;
      flux[eb_[e]] += q;
    }
    for (std::size_t i = 0; i < cap_.size(); ++i) {
      if (!fixed_[i]) {
        temp_[i] += dt * (power_[i] + flux[i]) / cap_[i];
      }
    }
  }

  std::vector<double> cap_;
  std::vector<double> temp_;
  std::vector<double> power_;
  std::vector<bool> fixed_;
  std::vector<std::size_t> ea_;
  std::vector<std::size_t> eb_;
  std::vector<double> g_;
};

}  // namespace thermctl::thermal
