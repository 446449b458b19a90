#include "thermal/rc_network.hpp"

#include "common/assert.hpp"

namespace thermctl::thermal {

NodeId RcNetwork::add_node(std::string name, JoulesPerKelvin c, Celsius t0) {
  THERMCTL_ASSERT(c.value() > 0.0, "dynamic node needs positive capacitance");
  nodes_.push_back(Node{std::move(name), c.value(), t0.value(), 0.0, false});
  return NodeId{nodes_.size() - 1};
}

NodeId RcNetwork::add_fixed_node(std::string name, Celsius t) {
  nodes_.push_back(Node{std::move(name), 0.0, t.value(), 0.0, true});
  return NodeId{nodes_.size() - 1};
}

EdgeId RcNetwork::add_edge(NodeId a, NodeId b, KelvinPerWatt r) {
  THERMCTL_ASSERT(a.index < nodes_.size() && b.index < nodes_.size(), "edge node out of range");
  THERMCTL_ASSERT(a.index != b.index, "self-edge");
  THERMCTL_ASSERT(r.value() > 0.0, "thermal resistance must be positive");
  edges_.push_back(Edge{a.index, b.index, 1.0 / r.value()});
  return EdgeId{edges_.size() - 1};
}

void RcNetwork::set_resistance(EdgeId e, KelvinPerWatt r) {
  THERMCTL_ASSERT(e.index < edges_.size(), "edge out of range");
  THERMCTL_ASSERT(r.value() > 0.0, "thermal resistance must be positive");
  edges_[e.index].conductance = 1.0 / r.value();
}

KelvinPerWatt RcNetwork::resistance(EdgeId e) const {
  THERMCTL_ASSERT(e.index < edges_.size(), "edge out of range");
  return KelvinPerWatt{1.0 / edges_[e.index].conductance};
}

Watts RcNetwork::power(NodeId n) const {
  THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
  return Watts{nodes_[n.index].power};
}

void RcNetwork::set_fixed_temperature(NodeId n, Celsius t) {
  THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
  THERMCTL_ASSERT(nodes_[n.index].fixed, "not a fixed node");
  nodes_[n.index].temperature = t.value();
}

void RcNetwork::set_temperature(NodeId n, Celsius t) {
  THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
  nodes_[n.index].temperature = t.value();
}

const std::string& RcNetwork::node_name(NodeId n) const {
  THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
  return nodes_[n.index].name;
}

}  // namespace thermctl::thermal
