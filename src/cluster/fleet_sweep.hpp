// Batched per-node device/OS sweep over FleetState's SoA arrays.
//
// RcBatch batches the RC physics, but the per-step device/OS work —
// utilization latching, fan rotor dynamics, the CPU power model, the fan
// chip's measurement protocol, meter integration, counter advance, the
// protection ladder, jiffy accounting and the sensor sampling schedule — is
// an object-graph walk per node in Node::step. At fleet scale such walks
// dominate:
// each Node's scalars sit on their own cache lines, so 100k nodes per step
// touch 100k scattered objects. With every hot field now fleet-resident
// (bind_state across CpuDevice/FanDevice/Adt7467/PowerMeter/ThermalSensor/
// PackageModel/Node), FleetSweep replays Node::step (split at the RC solve)
// and the sensor sampling schedule as contiguous array passes. It is the
// only way the engine steps a cluster.
//
// Bit-exactness contract: for every node, the sweep performs the *same
// arithmetic in the same per-node order* as Node::step — it reads and writes
// the very same storage the Node objects are bound to. Cross-node reordering
// (pass-at-a-time instead of node-at-a-time) is safe because the pre/post
// passes only touch their own node's state. The FleetState unit tests hold
// the sweep to bitwise identity with standalone Nodes stepped by
// Node::step, and the golden-digest tests pin the whole rig's behaviour.
//
// Rare events fall back to the objects they model: an integer-degree change
// of the chip's temperature register re-runs the Adt7467 auto-curve through
// the register object, and a due sensor schedule samples through the node's
// ThermalSensor (per-node RNG). The sweep caches one NodeParams' constants,
// so it requires a homogeneous fleet — which Cluster guarantees by building
// every node from one base params.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/fleet_state.hpp"
#include "cluster/node.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "thermal/convection.hpp"

namespace thermctl::cluster {

class FleetSweep {
 public:
  /// Builds a sweep over `fleet`'s arrays for `nodes` (the Node views over
  /// `fleet`, in slot order). `base` must be the NodeParams every node was
  /// built from — the sweep caches the shared constants once.
  FleetSweep(FleetState& fleet, const NodeParams& base, const std::vector<Node*>& nodes);

  /// Node::step up to the RC solve, for slots [begin, end): utilization/die
  /// latch, fan rotor step, CPU power into the batch, airflow → convection.
  void pre_range(std::size_t begin, std::size_t end, Seconds dt);

  /// Node::step after the RC solve, for slots [begin, end): chip protocol,
  /// meter, counters, PROCHOT/THERMTRIP ladder, jiffy accounting.
  void post_range(std::size_t begin, std::size_t end, Seconds dt);

  /// The engine's per-node sensor sampling loop over the contiguous schedule
  /// array; returns the number of samples taken.
  std::uint64_t sample_range(std::size_t begin, std::size_t end, SimTime after);

  // ---- record-phase helpers (Engine::record_sample's fast path) ----

  /// Post-solve die temperatures, contiguous across slots.
  [[nodiscard]] const double* die_temp_row() const { return die_temp_; }

  /// Node::wall_power() — memo-aware CPU power (recomputes and stores the
  /// memo exactly like CpuDevice::power() when a controller invalidated it)
  /// plus fan power, through the meter's display rounding.
  [[nodiscard]] double wall_power_w(std::size_t i);

  /// cpufreq-visible (OS-selected) frequency for slot i, GHz.
  [[nodiscard]] double nominal_freq_ghz(std::size_t i) const {
    return pstate_freq_[pstate_[i]];
  }

 private:
  /// CpuDevice::power() on slot i: returns the memoized value, recomputing
  /// and storing it with identical arithmetic when stale.
  double cpu_power_w(std::size_t i);

  FleetState& fleet_;
  std::vector<Node*> nodes_;

  // Batch rows (stride-1 across instances; see RcBatch layout).
  const double* die_temp_ = nullptr;
  double* die_power_ = nullptr;
  thermal::EdgeId hs_amb_{};

  // Raw SoA arrays (fixed for the fleet's lifetime).
  double* fan_duty_ = nullptr;
  double* fan_rpm_ = nullptr;
  const std::uint8_t* fan_stuck_ = nullptr;
  const double* sensor_last_ = nullptr;
  const std::uint32_t* pstate_ = nullptr;
  double* cpu_util_ = nullptr;
  double* cpu_die_temp_ = nullptr;
  double* power_cache_ = nullptr;
  std::uint8_t* power_valid_ = nullptr;
  std::uint64_t* power_gen_ = nullptr;
  std::uint8_t* throttled_ = nullptr;
  std::uint64_t* aperf_ = nullptr;
  std::uint64_t* mperf_ = nullptr;
  std::uint64_t* energy_uj_ = nullptr;
  double* aperf_frac_ = nullptr;
  double* mperf_frac_ = nullptr;
  double* energy_frac_ = nullptr;
  const double* inj_dyn_ = nullptr;
  const double* inj_leak_ = nullptr;
  const double* inj_thr_ = nullptr;
  const std::uint64_t* inj_gen_ = nullptr;
  std::int8_t* chip_temp_reg_ = nullptr;
  std::uint16_t* chip_tach_ = nullptr;
  double* chip_last_rpm_ = nullptr;
  const double* chip_out_duty_ = nullptr;
  double* meter_energy_ = nullptr;
  double* meter_elapsed_ = nullptr;
  double* airflow_ = nullptr;
  std::uint8_t* airflow_set_ = nullptr;
  double* util_ = nullptr;
  std::uint64_t* busy_jiffies_ = nullptr;
  std::uint64_t* total_jiffies_ = nullptr;
  double* jiffy_rem_busy_ = nullptr;
  double* jiffy_rem_total_ = nullptr;
  std::int32_t* prochot_events_ = nullptr;
  double* prochot_seconds_ = nullptr;
  std::uint8_t* halted_ = nullptr;
  const double* bmc_duty_ = nullptr;
  const std::uint8_t* bmc_set_ = nullptr;
  PeriodicSchedule* sample_schedule_ = nullptr;

  // Shared constants, cached from the (homogeneous) base NodeParams.
  std::vector<double> pstate_freq_;  // GHz per P-state
  std::vector<double> pstate_v2_;    // voltage^2 per P-state
  double min_freq_ = 0.0;            // slowest P-state (PROCHOT rate)
  double max_freq_ = 0.0;            // fastest P-state (MPERF base)
  double k_dyn_ = 0.0;
  double k_leak_ = 0.0;
  double leak_alpha_ = 0.0;
  double t_ref_ = 0.0;
  double idle_activity_ = 0.0;
  double fan_max_rpm_ = 0.0;
  double fan_stall_pct_ = 0.0;
  double fan_max_airflow_ = 0.0;
  double fan_idle_w_ = 0.0;
  double fan_max_w_ = 0.0;
  double rotor_tau_ = 0.0;
  thermal::ConvectionModel convection_;
  double meter_base_w_ = 0.0;
  double meter_eff_ = 0.0;
  double meter_res_w_ = 0.0;
  bool critical_enabled_ = false;
  bool prochot_enabled_ = false;
  double critical_c_ = 0.0;
  double prochot_c_ = 0.0;
  double prochot_release_c_ = 0.0;
};

}  // namespace thermctl::cluster
