// Lumped-parameter RC thermal network: topology and initial state.
//
// The standard compact model for package-level thermals (cf. Skadron et al.,
// "Temperature-aware microarchitecture", and the RC web-farm model of
// Ferreira et al. cited by the paper): temperatures are node potentials, heat
// flows are currents, thermal resistances are conductances between nodes, and
// heat capacities integrate the imbalance.
//
//   C_i * dT_i/dt = P_i(t) + sum_j (T_j - T_i) / R_ij
//
// Nodes are either *dynamic* (finite capacitance, integrated) or *fixed*
// (boundary conditions such as ambient air). Edge resistances may be updated
// between steps — that is how fan-speed-dependent convection enters the model.
//
// RcNetwork is the builder: it records nodes, edges and an initial state,
// and RcBatch (rc_batch.hpp) is constructed from it to integrate one or
// many instances. A single network is simulated as `RcBatch{net, 1}`; there
// is no second integrator here.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace thermctl::thermal {

/// Handle to a network node.
struct NodeId {
  std::size_t index = 0;
  friend constexpr bool operator==(NodeId, NodeId) = default;
};

/// Handle to a network edge (thermal resistance between two nodes).
struct EdgeId {
  std::size_t index = 0;
  friend constexpr bool operator==(EdgeId, EdgeId) = default;
};

class RcNetwork {
 public:
  /// Adds a dynamic node with heat capacity `c` and initial temperature `t0`.
  NodeId add_node(std::string name, JoulesPerKelvin c, Celsius t0);

  /// Adds a fixed-temperature boundary node (e.g. ambient air).
  NodeId add_fixed_node(std::string name, Celsius t);

  /// Connects two nodes with thermal resistance `r` (> 0).
  EdgeId add_edge(NodeId a, NodeId b, KelvinPerWatt r);

  /// Sets an edge's initial resistance.
  void set_resistance(EdgeId e, KelvinPerWatt r);
  [[nodiscard]] KelvinPerWatt resistance(EdgeId e) const;

  /// Sets the initial power injected into a dynamic node.
  void set_power(NodeId n, Watts p) {
    THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
    THERMCTL_ASSERT(!nodes_[n.index].fixed, "cannot inject power into a fixed node");
    nodes_[n.index].power = p.value();
  }
  [[nodiscard]] Watts power(NodeId n) const;

  /// Sets a fixed node's boundary temperature.
  void set_fixed_temperature(NodeId n, Celsius t);

  /// Sets a node's initial temperature.
  void set_temperature(NodeId n, Celsius t);

  [[nodiscard]] Celsius temperature(NodeId n) const {
    THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
    return Celsius{nodes_[n.index].temperature};
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId n) const;

  // ---- structure introspection (used by RcBatch to lift networks into a
  // shared-topology SoA batch) ----
  [[nodiscard]] bool is_fixed(NodeId n) const {
    THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
    return nodes_[n.index].fixed;
  }
  [[nodiscard]] JoulesPerKelvin capacitance(NodeId n) const {
    THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
    return JoulesPerKelvin{nodes_[n.index].capacitance};
  }
  /// The two endpoints of edge `e`, in insertion (a, b) order.
  [[nodiscard]] std::pair<NodeId, NodeId> edge_nodes(EdgeId e) const {
    THERMCTL_ASSERT(e.index < edges_.size(), "edge out of range");
    return {NodeId{edges_[e.index].a}, NodeId{edges_[e.index].b}};
  }
  /// Raw stored conductance (1/R, W/K) of edge `e`. RcBatch replicates state
  /// through this instead of resistance() because the double reciprocal
  /// round-trip 1/(1/g) is not bitwise lossless for every g.
  [[nodiscard]] double edge_conductance(EdgeId e) const {
    THERMCTL_ASSERT(e.index < edges_.size(), "edge out of range");
    return edges_[e.index].conductance;
  }

 private:
  struct Node {
    std::string name;
    double capacitance = 0.0;  // J/K; 0 marks a fixed node
    double temperature = 0.0;  // degC
    double power = 0.0;        // W
    bool fixed = false;
  };
  struct Edge {
    std::size_t a = 0;
    std::size_t b = 0;
    double conductance = 0.0;  // W/K
  };

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace thermctl::thermal
