// A rack of simulated nodes plus their shared management plane.
//
// Owns the shared FleetState (SoA hot state + batched RC solver), the Node
// views over it, the FleetSweep that steps them as contiguous array passes,
// the IPMI network connecting their BMCs, and the rack's ambient model (a
// per-node inlet temperature that experiments can perturb to create hot
// spots, the motivating phenomenon of the paper's introduction).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/fleet_sweep.hpp"
#include "cluster/node.hpp"
#include "common/assert.hpp"
#include "sysfs/ipmi.hpp"

namespace thermctl::cluster {

class Cluster {
 public:
  /// Builds `count` nodes from `base`, giving node i the seed
  /// `base.seed + i * 7919`. The nodes are views over one shared FleetState.
  Cluster(std::size_t count, const NodeParams& base);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) {
    THERMCTL_ASSERT(i < nodes_.size(), "node index out of range");
    return *nodes_[i];
  }
  [[nodiscard]] const Node& node(std::size_t i) const {
    THERMCTL_ASSERT(i < nodes_.size(), "node index out of range");
    return *nodes_[i];
  }
  /// Unchecked flat node-pointer array for the engine's hot loops.
  [[nodiscard]] const std::vector<Node*>& raw_nodes() const { return raw_; }

  /// The shared SoA state (never null).
  [[nodiscard]] FleetState* fleet() { return fleet_.get(); }
  [[nodiscard]] const FleetState* fleet() const { return fleet_.get(); }

  /// The per-node step over the fleet arrays — how the engine steps every
  /// node, and what each node's Node::step runs over its own slot.
  [[nodiscard]] FleetSweep& sweep() { return *sweep_; }

  [[nodiscard]] sysfs::IpmiNetwork& ipmi() { return ipmi_; }

  /// Sets one node's inlet (ambient) temperature — rack hot spots.
  void set_inlet_temperature(std::size_t i, Celsius t);

  /// Total wall power across the rack right now.
  [[nodiscard]] Watts total_power() const;

  /// Brings every node to equilibrium at its current load.
  void settle_all();

 private:
  NodeParams base_;                    // the sweep reads its constants here
  std::unique_ptr<FleetState> fleet_;  // must outlive the nodes viewing it
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Node*> raw_;
  std::unique_ptr<FleetSweep> sweep_;
  sysfs::IpmiNetwork ipmi_;
};

}  // namespace thermctl::cluster
