// The per-node physics step, as contiguous passes over FleetState's arrays.
//
// Every physics step of every node runs here: utilization latching, fan
// rotor dynamics, the CPU power model, the fan chip's measurement protocol,
// meter integration, counter advance, the protection ladder, jiffy
// accounting and the sensor sampling schedule. The engine steps a cluster by
// pre_range → RcBatch::step_range → post_range over a shard of slots, and
// Node::step runs the same three calls over its own slot: a standalone Node
// owns a one-node sweep over its one-slot fleet, a cluster node uses its
// cluster's sweep. There is no second per-node step.
//
// Each pass is one loop over slots, and each slot's work only touches that
// node's own state, so pass-at-a-time order over a range gives every node
// the same bits as stepping it alone. The device formulas are not restated
// here: the sweep calls the same inline functions over plain values that the
// device classes call (hw::cpu_power_w, hw::fan_rotor_step,
// hw::meter_integrate, hw::adt7467_latch_tach, ...), with the constants read
// from the NodeParams the sweep was built from. A test reference
// (tests/cluster/reference_node_step.hpp) replays the step as a sequence of
// device-method calls and holds the sweep to it bitwise; the golden-digest
// tests pin the whole rig's behaviour.
//
// Rare events fall back to the objects they model: an integer-degree change
// of the chip's temperature register re-runs the Adt7467 auto-curve through
// the register object, and a due sensor schedule samples through the node's
// ThermalSensor (per-node RNG). One NodeParams serves every slot, so the
// fleet must be homogeneous — which Cluster guarantees by building every
// node from one base params.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/fleet_state.hpp"
#include "cluster/node.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace thermctl::cluster {

class FleetSweep {
 public:
  /// Builds a sweep over `fleet`'s arrays for `nodes` (the Node views over
  /// `fleet`, in slot order). `params` is the NodeParams every node was
  /// built from; the sweep reads its constants from it, so it must outlive
  /// the sweep.
  FleetSweep(FleetState& fleet, const NodeParams& params, std::vector<Node*> nodes);

  /// The step up to the RC solve, for slots [begin, end): utilization/die
  /// latch, fan rotor step, CPU power into the batch, airflow → convection.
  void pre_range(std::size_t begin, std::size_t end, Seconds dt);

  /// The step after the RC solve, for slots [begin, end): chip protocol,
  /// meter, counters, PROCHOT/THERMTRIP ladder, jiffy accounting.
  void post_range(std::size_t begin, std::size_t end, Seconds dt);

  /// The engine's per-node sensor sampling loop over the contiguous schedule
  /// array; returns the number of samples taken.
  std::uint64_t sample_range(std::size_t begin, std::size_t end, SimTime after);

  // ---- record-phase helpers (Engine::record_sample's fast path) ----

  /// Post-solve die temperatures, contiguous across slots.
  [[nodiscard]] const double* die_temp_row() const { return die_temp_; }

  /// Metered AC wall power of slot i (Node::wall_power()): memo-aware CPU
  /// power (recomputes and stores the memo exactly like CpuDevice::power()
  /// when a controller invalidated it) plus fan power, through the meter's
  /// display rounding.
  [[nodiscard]] double wall_power_w(std::size_t i);

  /// cpufreq-visible (OS-selected) frequency for slot i, GHz.
  [[nodiscard]] double nominal_freq_ghz(std::size_t i) const {
    return params_.cpu.pstates[pstate_[i]].frequency.value();
  }

 private:
  /// CpuDevice::power() on slot i: returns the memoized value, recomputing
  /// and storing it when stale.
  double cpu_power_w(std::size_t i);

  FleetState& fleet_;
  const NodeParams& params_;
  std::vector<Node*> nodes_;

  // Batch rows (stride-1 across instances; see RcBatch layout).
  const double* die_temp_ = nullptr;
  double* die_power_ = nullptr;
  thermal::EdgeId hs_amb_{};

  // Raw SoA arrays (fixed for the fleet's lifetime).
  double* fan_duty_ = nullptr;
  double* fan_rpm_ = nullptr;
  const std::uint8_t* fan_stuck_ = nullptr;
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
};

}  // namespace thermctl::cluster
