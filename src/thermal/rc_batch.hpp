// Batched RC thermal networks: the one RC integrator.
//
// A datacenter rack is thousands of *structurally identical* package models
// (same nodes, capacitances and edges; only temperatures, powers and the
// fan-dependent convection conductance differ per machine). RcBatch lifts B
// instances of one template topology, described by an RcNetwork builder,
// into structure-of-arrays storage: the CSR adjacency, capacitances and
// fixed-node mask are shared, while temperatures, injected powers and edge
// conductances live in node-major rows of length B (`temp[k*B + b]`). One
// euler_substep pass then advances *every* instance with tight unit-stride
// loops over the instance axis that the compiler auto-vectorizes — no
// per-instance dispatch at all. A single network is simply `RcBatch{net, 1}`.
//
// Integration is explicit Euler with automatic sub-stepping: a requested
// step is split so that every substep is comfortably below the instance's
// smallest node time constant, which keeps the scheme stable for the stiff
// die/heatsink combination without dragging in an implicit solver.
//
// Bit-exactness contract: an instance's trajectory is bitwise identical to
// the seed edge-list solver (the reference in
// tests/thermal/reference_rc_network.hpp) under the same call sequence. Flux
// accumulation visits half-edges in edge-insertion order, min-time-constant
// accumulation runs in edge-insertion order, and the per-instance substep
// plan is recomputed whenever a conductance or dt changes — with one known
// quirk: reading min_time_constant() (which settle_range() does) clears the
// recompute flag without refreshing an already-cached plan, so the next
// step at an unchanged dt runs on the old substep count.
//
// The equilibrium solve batches the same way: settle_range marches blocks of
// instances in lockstep, each with its own step, convergence test and
// iteration budget, freezing a converged column by select — so every column
// lands on the bits the one-column solve (settle(b) == settle_range(b, b+1))
// gives it.
//
// Structurally different networks fail `matches()` and need a batch of their
// own; the batch makes no attempt to mask or gather across structural
// differences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {

class RcBatch {
 public:
  /// Builds a batch of `instances` copies of `tmpl`: shared topology, and
  /// every instance's temperatures/powers/conductances initialized from the
  /// template's current state.
  RcBatch(const RcNetwork& tmpl, std::size_t instances);

  /// True if `candidate` has the template's structure (node count, fixed
  /// mask, capacitances, edge endpoints) and could therefore be an instance
  /// of this batch. Conductances/temperatures/powers are per-instance state,
  /// not structure.
  [[nodiscard]] bool matches(const RcNetwork& candidate) const;

  [[nodiscard]] std::size_t instance_count() const { return instances_; }
  [[nodiscard]] std::size_t rc_node_count() const { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const { return edge_slots_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId n) const;

  // ---- per-instance state, mirroring the RcNetwork builder's setters ----
  void set_power(std::size_t b, NodeId n, Watts p);
  [[nodiscard]] Watts power(std::size_t b, NodeId n) const;
  void set_resistance(std::size_t b, EdgeId e, KelvinPerWatt r);
  [[nodiscard]] KelvinPerWatt resistance(std::size_t b, EdgeId e) const;
  void set_temperature(std::size_t b, NodeId n, Celsius t);
  void set_fixed_temperature(std::size_t b, NodeId n, Celsius t);
  [[nodiscard]] Celsius temperature(std::size_t b, NodeId n) const;
  [[nodiscard]] Seconds min_time_constant(std::size_t b) const;

  /// Advances instances [begin, end) by `dt`, sub-stepping per instance for
  /// stability. Contiguous runs of instances that agree on the substep count
  /// (the homogeneous common case: all of them) advance in one vectorized
  /// pass; disagreeing instances split the range, never the arithmetic.
  ///
  /// Thread-safety: concurrent step_range calls on DISJOINT instance ranges
  /// are safe (all touched state is per-instance columns) — this is what the
  /// sharded engine relies on. set_resistance/set_power on an instance inside
  /// a shard's range are likewise column-local. Everything else on this class
  /// is single-threaded.
  void step_range(Seconds dt, std::size_t begin, std::size_t end);
  void step_all(Seconds dt) { step_range(dt, 0, instances_); }
  void step_one(std::size_t b, Seconds dt) { step_range(dt, b, b + 1); }

  /// Solves instances [begin, end) for the steady state under their current
  /// powers and resistances by marching with large stable steps
  /// (h = min_tau/2, per instance) until quiescent, and leaves the result in
  /// their temperatures. Used to prime experiments that start from thermal
  /// equilibrium. Blocks of instances march in lockstep; each instance keeps
  /// its own step, convergence test (max node |dT| < tolerance) and
  /// iteration budget, so every column is bit-identical to settling it
  /// alone. Returns how many instances hit `max_iterations` unconverged.
  std::size_t settle_range(std::size_t begin, std::size_t end, int max_iterations = 200000,
                           double tolerance_kelvin = 1e-7);
  std::size_t settle(std::size_t b, int max_iterations = 200000,
                     double tolerance_kelvin = 1e-7) {
    return settle_range(b, b + 1, max_iterations, tolerance_kelvin);
  }

  /// Stable pointers to one instance's state cells, for per-node views
  /// (PackageModel) that access a fixed (instance, node) coordinate every
  /// physics step. Range/fixed-node validation happens here, once, instead
  /// of per access; the SoA arrays never reallocate after construction, so
  /// the pointers live as long as the batch. Writing through
  /// power_cell is exactly set_power (a plain cell write with no bookkeeping);
  /// temperature_cell reads are exactly temperature().
  [[nodiscard]] double* power_cell(std::size_t b, NodeId n) {
    THERMCTL_ASSERT(b < instances_, "instance out of range");
    THERMCTL_ASSERT(n.index < node_count_, "node out of range");
    THERMCTL_ASSERT(!fixed_[n.index], "cannot inject power into a fixed node");
    return &row(power_, n.index)[b];
  }
  [[nodiscard]] const double* temperature_cell(std::size_t b, NodeId n) const {
    THERMCTL_ASSERT(b < instances_, "instance out of range");
    THERMCTL_ASSERT(n.index < node_count_, "node out of range");
    return &row(temp_, n.index)[b];
  }

  /// Heap footprint of the SoA arrays (bytes) — the "hot" per-node state the
  /// scaling benchmark reports as bytes/node.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Instances settle_range marches in lockstep: enough to amortise the
  /// per-row kernel calls, few enough that a block's rows stay in L1.
  static constexpr std::size_t kSettleBlock = 256;

  /// Marches the block of `n` instances starting at `i` (n <= kSettleBlock)
  /// to quiescence; returns how many hit `max_iterations`.
  template <typename Count>
  std::size_t settle_block(std::size_t i, Count n, int max_iterations, double tolerance_kelvin);

  /// One Jacobi substep of length `h` for instances [begin, end).
  void euler_substep_range(double h, std::size_t begin, std::size_t end);
  /// Full per-node tau rebuild for instance b. Only needed at construction;
  /// afterwards
  /// set_resistance keeps node_tau_/min_tau_ fresh incrementally.
  void rebuild_taus(std::size_t b);
  /// Recomputes node k's tau for instance b from its CSR row. The row holds
  /// the node's half-edges in edge-insertion order, so the partial sums are
  /// the same addends in the same order as the full edge-order accumulation
  /// — bitwise identical result.
  void refresh_node_tau(std::size_t k, std::size_t b);
  /// min over the cached per-node taus, in node order (fixed and
  /// zero-conductance nodes hold the 1e30 sentinel and never win).
  [[nodiscard]] double min_over_taus(std::size_t b) const;
  /// Refreshes instance b's substep plan if its recompute condition fires.
  void ensure_plan(std::size_t b, double dt);

  [[nodiscard]] double* row(AlignedVector<double>& v, std::size_t k) {
    return v.data() + k * instances_;
  }
  [[nodiscard]] const double* row(const AlignedVector<double>& v, std::size_t k) const {
    return v.data() + k * instances_;
  }

  // Shared structure.
  std::size_t node_count_ = 0;
  std::size_t instances_ = 0;
  std::vector<double> capacitance_;             // [K]; 0 marks a fixed node
  std::vector<std::uint8_t> fixed_;             // [K]
  std::vector<std::string> names_;              // [K]
  std::vector<std::size_t> csr_offset_;         // [K+1]
  std::vector<std::size_t> csr_neighbor_;       // [2E]
  std::vector<std::pair<std::size_t, std::size_t>> edge_slots_;  // [E]
  std::vector<std::pair<std::size_t, std::size_t>> edge_nodes_;  // [E]

  // Per-instance SoA state: node-major rows of length B, each array on a
  // cache-line boundary for the vectorized substep sweeps.
  AlignedVector<double> temp_;   // [K*B]
  AlignedVector<double> power_;  // [K*B]
  AlignedVector<double> cond_;   // [2E*B], slot-major rows
  AlignedVector<double> flux_;   // [K*B] scratch

  // Per-instance substep plan cache. min_tau_ is kept *always fresh*:
  // set_resistance refreshes only the touched edge's endpoint taus
  // (node_tau_) and re-takes the min, so a slewing fan costs O(degree) per
  // step instead of a full O(E+K) rescan. plan_stale_ is the substep-plan
  // recompute flag — including the quirk that reading min_time_constant()
  // clears it without refreshing an already-cached plan.
  AlignedVector<double> node_tau_;               // [K*B]; 1e30 = never wins
  mutable std::vector<double> min_tau_;          // [B]
  mutable std::vector<std::uint8_t> plan_stale_;  // [B]
  std::vector<double> cached_dt_;                // [B]
  std::vector<int> cached_substeps_;             // [B]
};

}  // namespace thermctl::thermal
