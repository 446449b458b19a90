#include "cluster/cluster.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::cluster {

Cluster::Cluster(std::size_t count, const NodeParams& base) : base_(base) {
  THERMCTL_ASSERT(count > 0, "cluster needs at least one node");
  // All nodes are built from one base params, so the fleet is homogeneous by
  // construction and every node can view the shared batch.
  fleet_ = std::make_unique<FleetState>(base.package, count);
  nodes_.reserve(count);
  raw_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    NodeParams params = base;
    params.seed = base.seed + i * 7919;  // distinct noise streams per node
    nodes_.push_back(std::unique_ptr<Node>(new Node(static_cast<int>(i), params, *fleet_, i)));
    raw_.push_back(nodes_.back().get());
    ipmi_.attach(static_cast<int>(i), &nodes_.back()->bmc());
  }
  // Every node above shares `base`'s hardware constants (only the noise seed
  // differs), so one sweep steps the whole rack, and each node's Node::step
  // runs it over the node's own slot.
  sweep_ = std::make_unique<FleetSweep>(*fleet_, base_, raw_);
  for (Node* n : raw_) {
    n->sweep_ = sweep_.get();
  }
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
  // Node::settle's stages run stage-major: each stage over every node, then
  // one batched equilibrium solve of the whole fleet. A stage and a solve
  // only touch their node's own column, so every node sees exactly the
  // sequence Node::settle would run for it alone.
  std::size_t capped = 0;
  for (int stage = 0; stage < Node::kSettleStages; ++stage) {
    if (stage > 0) {
      capped += fleet_->batch().settle_range(0, nodes_.size());
    }
    for (auto& n : nodes_) {
      n->settle_stage(stage);
    }
  }
  if (capped != 0) {
    THERMCTL_LOG_WARN("cluster", "%zu node equilibrium solves hit the iteration cap", capped);
  }
}

}  // namespace thermctl::cluster
