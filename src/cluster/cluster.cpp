#include "cluster/cluster.hpp"

#include "common/assert.hpp"

namespace thermctl::cluster {

Cluster::Cluster(std::size_t count, const NodeParams& base) {
  THERMCTL_ASSERT(count > 0, "cluster needs at least one node");
  // All nodes are built from one base params, so the fleet is homogeneous by
  // construction and every node can view the shared batch.
  fleet_ = std::make_unique<FleetState>(base.package, count);
  nodes_.reserve(count);
  raw_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    NodeParams params = base;
    params.seed = base.seed + i * 7919;  // distinct noise streams per node
    nodes_.push_back(std::make_unique<Node>(static_cast<int>(i), params, *fleet_, i));
    raw_.push_back(nodes_.back().get());
    ipmi_.attach(static_cast<int>(i), &nodes_.back()->bmc());
  }
  // Every node above shares `base`'s hardware constants (only the noise seed
  // differs), so one sweep can batch the whole rack's device/OS work.
  sweep_ = std::make_unique<FleetSweep>(*fleet_, base, raw_);
}

void Cluster::set_inlet_temperature(std::size_t i, Celsius t) {
  node(i).package().set_ambient(t);
}

Watts Cluster::total_power() const {
  double sum = 0.0;
  for (const auto& n : nodes_) {
    sum += n->meter().read().value();
  }
  return Watts{sum};
}

void Cluster::settle_all() {
  for (auto& n : nodes_) {
    n->settle();
  }
}

}  // namespace thermctl::cluster
