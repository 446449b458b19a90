#include "thermal/rc_batch.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace thermctl::thermal {

RcBatch::RcBatch(const RcNetwork& tmpl, std::size_t instances)
    : node_count_(tmpl.node_count()), instances_(instances) {
  THERMCTL_ASSERT(instances > 0, "batch needs at least one instance");
  THERMCTL_ASSERT(node_count_ > 0, "template network is empty");

  capacitance_.resize(node_count_);
  fixed_.resize(node_count_);
  names_.resize(node_count_);
  for (std::size_t k = 0; k < node_count_; ++k) {
    const NodeId n{k};
    fixed_[k] = tmpl.is_fixed(n) ? 1 : 0;
    capacitance_[k] = fixed_[k] ? 0.0 : tmpl.capacitance(n).value();
    names_[k] = tmpl.node_name(n);
  }

  // CSR built with a counting-sort fill so each node's half-edges sit in
  // edge-insertion order — the flux accumulation order of the seed edge-list
  // solver, which the bit-exactness contract depends on.
  const std::size_t e_count = tmpl.edge_count();
  edge_nodes_.resize(e_count);
  csr_offset_.assign(node_count_ + 1, 0);
  for (std::size_t e = 0; e < e_count; ++e) {
    const auto [a, b] = tmpl.edge_nodes(EdgeId{e});
    edge_nodes_[e] = {a.index, b.index};
    ++csr_offset_[a.index + 1];
    ++csr_offset_[b.index + 1];
  }
  for (std::size_t k = 0; k < node_count_; ++k) {
    csr_offset_[k + 1] += csr_offset_[k];
  }
  csr_neighbor_.assign(2 * e_count, 0);
  edge_slots_.assign(e_count, {0, 0});
  std::vector<std::size_t> cursor(csr_offset_.begin(), csr_offset_.end() - 1);
  for (std::size_t e = 0; e < e_count; ++e) {
    const std::size_t slot_a = cursor[edge_nodes_[e].first]++;
    const std::size_t slot_b = cursor[edge_nodes_[e].second]++;
    csr_neighbor_[slot_a] = edge_nodes_[e].second;
    csr_neighbor_[slot_b] = edge_nodes_[e].first;
    edge_slots_[e] = {slot_a, slot_b};
  }

  // Instance state: every column starts as a copy of the template.
  temp_.resize(node_count_ * instances_);
  power_.resize(node_count_ * instances_);
  flux_.assign(node_count_ * instances_, 0.0);
  for (std::size_t k = 0; k < node_count_; ++k) {
    const double t0 = tmpl.temperature(NodeId{k}).value();
    const double p0 = fixed_[k] ? 0.0 : tmpl.power(NodeId{k}).value();
    std::fill_n(row(temp_, k), instances_, t0);
    std::fill_n(row(power_, k), instances_, p0);
  }
  cond_.resize(2 * e_count * instances_);
  for (std::size_t e = 0; e < e_count; ++e) {
    const double g = tmpl.edge_conductance(EdgeId{e});
    std::fill_n(row(cond_, edge_slots_[e].first), instances_, g);
    std::fill_n(row(cond_, edge_slots_[e].second), instances_, g);
  }

  node_tau_.assign(node_count_ * instances_, 0.0);
  min_tau_.assign(instances_, 0.0);
  plan_stale_.assign(instances_, 1);
  cached_dt_.assign(instances_, -1.0);
  cached_substeps_.assign(instances_, 1);
  // All columns start identical; rebuilding instance 0 and replicating its
  // taus gives the same bits as rebuilding each column from its (equal)
  // conductances.
  rebuild_taus(0);
  for (std::size_t k = 0; k < node_count_; ++k) {
    std::fill_n(row(node_tau_, k), instances_, row(node_tau_, k)[0]);
  }
  std::fill(min_tau_.begin(), min_tau_.end(), min_tau_[0]);
}

bool RcBatch::matches(const RcNetwork& candidate) const {
  if (candidate.node_count() != node_count_ || candidate.edge_count() != edge_slots_.size()) {
    return false;
  }
  for (std::size_t k = 0; k < node_count_; ++k) {
    const NodeId n{k};
    if (candidate.is_fixed(n) != (fixed_[k] != 0)) {
      return false;
    }
    if (!fixed_[k] && candidate.capacitance(n).value() != capacitance_[k]) {
      return false;
    }
  }
  for (std::size_t e = 0; e < edge_nodes_.size(); ++e) {
    const auto [a, b] = candidate.edge_nodes(EdgeId{e});
    if (a.index != edge_nodes_[e].first || b.index != edge_nodes_[e].second) {
      return false;
    }
  }
  return true;
}

const std::string& RcBatch::node_name(NodeId n) const {
  THERMCTL_ASSERT(n.index < node_count_, "node out of range");
  return names_[n.index];
}

void RcBatch::set_power(std::size_t b, NodeId n, Watts p) {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(n.index < node_count_, "node out of range");
  THERMCTL_ASSERT(!fixed_[n.index], "cannot inject power into a fixed node");
  row(power_, n.index)[b] = p.value();
}

Watts RcBatch::power(std::size_t b, NodeId n) const {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(n.index < node_count_, "node out of range");
  return Watts{row(power_, n.index)[b]};
}

void RcBatch::set_resistance(std::size_t b, EdgeId e, KelvinPerWatt r) {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(e.index < edge_slots_.size(), "edge out of range");
  THERMCTL_ASSERT(r.value() > 0.0, "thermal resistance must be positive");
  const double g = 1.0 / r.value();
  double* slot_a = &row(cond_, edge_slots_[e.index].first)[b];
  if (g == *slot_a) {
    return;  // steady fans re-set the same convection value every step
  }
  *slot_a = g;
  row(cond_, edge_slots_[e.index].second)[b] = g;
  // Incremental min-tau maintenance: only this edge's endpoints changed
  // conductance, so only their taus need refreshing before re-taking the
  // min. This keeps a slewing fan (one convection edge retargeted every
  // step) at O(degree) instead of a full O(E+K) rescan per step.
  refresh_node_tau(edge_nodes_[e.index].first, b);
  refresh_node_tau(edge_nodes_[e.index].second, b);
  min_tau_[b] = min_over_taus(b);
  plan_stale_[b] = 1;
}

KelvinPerWatt RcBatch::resistance(std::size_t b, EdgeId e) const {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(e.index < edge_slots_.size(), "edge out of range");
  return KelvinPerWatt{1.0 / row(cond_, edge_slots_[e.index].first)[b]};
}

void RcBatch::set_temperature(std::size_t b, NodeId n, Celsius t) {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(n.index < node_count_, "node out of range");
  row(temp_, n.index)[b] = t.value();
}

void RcBatch::set_fixed_temperature(std::size_t b, NodeId n, Celsius t) {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(n.index < node_count_, "node out of range");
  THERMCTL_ASSERT(fixed_[n.index], "not a fixed node");
  row(temp_, n.index)[b] = t.value();
}

Celsius RcBatch::temperature(std::size_t b, NodeId n) const {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  THERMCTL_ASSERT(n.index < node_count_, "node out of range");
  return Celsius{row(temp_, n.index)[b]};
}

void RcBatch::refresh_node_tau(std::size_t k, std::size_t b) {
  if (fixed_[k]) {
    return;  // fixed nodes keep the sentinel; they never bound the substep
  }
  // Sum the node's incident conductances from its CSR row. The row was
  // filled in edge-insertion order, so the addends arrive in the same order
  // as a per-edge accumulation over the edge list — same partial sums, same
  // rounding, same bits.
  double g_sum = 0.0;
  const std::size_t slot_end = csr_offset_[k + 1];
  for (std::size_t s = csr_offset_[k]; s < slot_end; ++s) {
    g_sum += row(cond_, s)[b];
  }
  row(node_tau_, k)[b] = g_sum > 0.0 ? capacitance_[k] / g_sum : 1e30;
}

double RcBatch::min_over_taus(std::size_t b) const {
  // Scans nodes in index order starting from 1e30; sentinel entries (fixed /
  // zero-conductance nodes) are absorbed without changing the result, so the
  // chain is bitwise identical to a scan that skips them.
  double min_tau = 1e30;
  for (std::size_t k = 0; k < node_count_; ++k) {
    min_tau = std::min(min_tau, row(node_tau_, k)[b]);
  }
  return min_tau;
}

void RcBatch::rebuild_taus(std::size_t b) {
  for (std::size_t k = 0; k < node_count_; ++k) {
    row(node_tau_, k)[b] = 1e30;
    refresh_node_tau(k, b);
  }
  min_tau_[b] = min_over_taus(b);
}

Seconds RcBatch::min_time_constant(std::size_t b) const {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  // min_tau_ is always fresh, but reading it clears plan_stale_ — which
  // leaves a then-stale substep plan cached (the known quirk; see the
  // header).
  plan_stale_[b] = 0;
  return Seconds{min_tau_[b]};
}

void RcBatch::ensure_plan(std::size_t b, double dt) {
  // Explicit Euler is stable for h < 2*tau; keep substeps below tau/8 for
  // accuracy on top of the stability margin. Recompute only after a
  // conductance change or when the caller varies dt.
  if (plan_stale_[b] || dt != cached_dt_[b]) {
    const double max_sub = std::max(1e-6, min_tau_[b] / 8.0);
    cached_substeps_[b] = std::max(1, static_cast<int>(std::ceil(dt / max_sub)));
    cached_dt_[b] = dt;
    plan_stale_[b] = 0;
  }
}

namespace {

// The substep inner loops, hoisted into free functions whose pointer
// parameters are restrict-qualified. The rows they receive never overlap:
// flux/cond/power are distinct arrays, and the two temp_ rows belong to
// distinct RC nodes (self-edges are rejected at add_edge). Declaring that at
// the parameter level — where GCC honours restrict — lets the vectorizer
// emit one straight-line SIMD loop instead of versioning every invocation
// with runtime overlap tests. noinline keeps the restrict contract from
// being discarded by inlining back into the (aliasing-opaque) caller.
[[gnu::noinline]] void flux_accumulate(double* __restrict f, const double* __restrict tk,
                                       const double* __restrict tn,
                                       const double* __restrict g, std::size_t begin,
                                       std::size_t end) {
  for (std::size_t b = begin; b < end; ++b) {
    f[b] += (tn[b] - tk[b]) * g[b];
  }
}

[[gnu::noinline]] void temp_update(double* __restrict tk, const double* __restrict f,
                                   const double* __restrict p, double c, double h,
                                   std::size_t begin, std::size_t end) {
  for (std::size_t b = begin; b < end; ++b) {
    tk[b] += h * (p[b] + f[b]) / c;
  }
}

}  // namespace

void RcBatch::euler_substep_range(double h, std::size_t begin, std::size_t end) {
  // Two passes (flux from pre-step temperatures, then update) keep the
  // scheme Jacobi. Within each node row the instance loop is unit-stride and
  // data-independent across instances — the vectorizable axis.
  for (std::size_t k = 0; k < node_count_; ++k) {
    if (fixed_[k]) {
      continue;
    }
    double* f = row(flux_, k);
    const double* tk = row(temp_, k);
    for (std::size_t b = begin; b < end; ++b) {
      f[b] = 0.0;
    }
    const std::size_t slot_end = csr_offset_[k + 1];
    for (std::size_t s = csr_offset_[k]; s < slot_end; ++s) {
      flux_accumulate(f, tk, row(temp_, csr_neighbor_[s]), row(cond_, s), begin, end);
    }
  }
  for (std::size_t k = 0; k < node_count_; ++k) {
    if (fixed_[k]) {
      continue;
    }
    temp_update(row(temp_, k), row(flux_, k), row(power_, k), capacitance_[k], h, begin,
                end);
  }
}

void RcBatch::step_range(Seconds dt, std::size_t begin, std::size_t end) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  THERMCTL_ASSERT(begin <= end && end <= instances_, "instance range out of bounds");
  for (std::size_t b = begin; b < end; ++b) {
    ensure_plan(b, dt.value());
  }
  // Advance maximal runs of instances that agree on the substep count in one
  // vectorized pass each; a heterogeneous plan splits the range, not the
  // arithmetic, so every instance's trajectory is independent of its
  // neighbours' plans.
  std::size_t i = begin;
  while (i < end) {
    const int subs = cached_substeps_[i];
    std::size_t j = i + 1;
    while (j < end && cached_substeps_[j] == subs) {
      ++j;
    }
    const double h = dt.value() / subs;
    for (int s = 0; s < subs; ++s) {
      euler_substep_range(h, i, j);
    }
    i = j;
  }
}

void RcBatch::settle(std::size_t b, int max_iterations, double tolerance_kelvin) {
  THERMCTL_ASSERT(b < instances_, "instance out of range");
  // March the instance with large (but stable) steps until quiescent, one
  // column at a time.
  const double h = min_time_constant(b).value() / 2.0;
  std::vector<double> before(node_count_);
  for (int it = 0; it < max_iterations; ++it) {
    for (std::size_t k = 0; k < node_count_; ++k) {
      before[k] = row(temp_, k)[b];
    }
    euler_substep_range(h, b, b + 1);
    double delta = 0.0;
    for (std::size_t k = 0; k < node_count_; ++k) {
      delta = std::max(delta, std::abs(row(temp_, k)[b] - before[k]));
    }
    if (delta < tolerance_kelvin) {
      return;
    }
  }
}

std::size_t RcBatch::memory_bytes() const {
  auto vec_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return vec_bytes(temp_) + vec_bytes(power_) + vec_bytes(cond_) + vec_bytes(flux_) +
         vec_bytes(node_tau_) + vec_bytes(min_tau_) + vec_bytes(plan_stale_) +
         vec_bytes(cached_dt_) + vec_bytes(cached_substeps_) + vec_bytes(capacitance_) +
         vec_bytes(fixed_) + vec_bytes(csr_offset_) + vec_bytes(csr_neighbor_) +
         vec_bytes(edge_slots_) + vec_bytes(edge_nodes_);
}

}  // namespace thermctl::thermal
