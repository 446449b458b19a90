// CPU package thermal model: die → heatsink → ambient.
//
// A three-node RC instantiation tuned to reproduce the thermal envelope the
// paper reports for its AMD Athlon64 4000+ nodes: idle die temperatures just
// below the static fan curve's Tmin (38 °C), sustained full-power temperatures
// in the 50–70 °C band depending on fan speed, die time constants of a few
// seconds (the "sudden" behaviour of Fig. 2) and heatsink time constants of
// tens of seconds (the "gradual" behaviour).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "thermal/convection.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {

struct PackageParams {
  /// Die + integrated heat spreader lumped capacitance (die transient of a
  /// couple of seconds — the Fig. 2 "sudden" timescale).
  JoulesPerKelvin c_die{22.0};
  /// Heatsink mass capacitance (minute-scale drift — the "gradual"
  /// timescale).
  JoulesPerKelvin c_heatsink{150.0};
  /// Die-to-heatsink (TIM + spreader) resistance; sets the instantaneous die
  /// jump on a load step (~6 °C at cpu-burn power).
  KelvinPerWatt r_die_heatsink{0.10};
  /// Chassis/inlet air temperature seen by the heatsink.
  Celsius ambient{29.5};
  ConvectionParams convection{};
};

/// Handles into the die—heatsink—ambient wiring (identical build order ⇒
/// identical ids in every batch built from it).
struct PackageWiring {
  NodeId die{};
  NodeId heatsink{};
  NodeId ambient{};
  EdgeId die_hs{};
  EdgeId hs_amb{};
};

/// The airflow memo PackageModel::set_airflow skips unchanged airflow by,
/// one slot per package: the last applied CFM and whether one was applied.
/// A fleet holds one column per field; a standalone package owns a one-slot
/// set.
struct AirflowColumns {
  /// `n` slots, each at the power-on state: no airflow applied yet.
  explicit AirflowColumns(std::size_t n) : cfm(n, 0.0), set(n, 0) {}

  std::vector<double> cfm;
  std::vector<std::uint8_t> set;
};

/// The die—heatsink—ambient RC model with fan-speed-dependent convection on
/// the heatsink-ambient edge.
///
/// A PackageModel is a *view* onto one instance column of an RcBatch built
/// by make_batch, plus the same slot of the AirflowColumns memo that lets
/// set_airflow skip unchanged airflow. In a cluster the batch and the memo
/// columns belong to FleetState; a standalone PackageModel owns a
/// one-instance batch and a one-slot memo and views slot 0 — the same
/// arithmetic either way.
class PackageModel {
 public:
  /// Standalone package: a one-instance batch of its own.
  explicit PackageModel(const PackageParams& params);
  /// View onto instance `slot` of `batch` and slot `slot` of `airflow`. The
  /// batch must have been built by `make_batch(params, ...)` so the wiring
  /// ids line up.
  PackageModel(const PackageParams& params, RcBatch& batch, AirflowColumns& airflow,
               std::size_t slot);

  // A view holds pointers into its batch and memo columns, so it must not be
  // duplicated. Callers build packages in place (prvalue construction
  // elides; no move needed).
  PackageModel(const PackageModel&) = delete;
  PackageModel& operator=(const PackageModel&) = delete;

  /// Builds the three-node chain into `net` (initial temperatures at
  /// ambient, still-air convection) and returns the handles.
  static PackageWiring wire_network(const PackageParams& params, RcNetwork& net);
  /// A batch of `instances` packages wired by wire_network; every column
  /// starts from the same state. Writes the handles to `wiring` if given.
  static RcBatch make_batch(const PackageParams& params, std::size_t instances,
                            PackageWiring* wiring = nullptr);

  /// Power dissipated in the die for subsequent steps.
  void set_cpu_power(Watts p) { *die_power_cell_ = p.value(); }  // == batch set_power
  /// Airflow delivered by the fan across the heatsink. The convection power
  /// law is only re-evaluated when the airflow actually moved — the fan's
  /// rotor settles between duty changes, making steady steps free.
  void set_airflow(Cfm v) {
    if (airflow_.set[slot_] != 0 && v.value() == airflow_.cfm[slot_]) {
      return;
    }
    airflow_.cfm[slot_] = v.value();
    airflow_.set[slot_] = 1;
    batch_.set_resistance(slot_, wiring_.hs_amb, convection_.resistance(v));
  }
  /// Chassis inlet temperature (hot-spot / HVAC scenarios).
  void set_ambient(Celsius t);

  /// Advances this package only. Fleet packages are normally advanced en
  /// masse via RcBatch::step_range by the engine; stepping one instance here
  /// is the same arithmetic on one column.
  void step(Seconds dt) { batch_.step_one(slot_, dt); }

  /// Primes the model at equilibrium for the current power/airflow. Returns
  /// 1 if the solve hit its iteration cap unconverged, else 0.
  std::size_t settle() { return batch_.settle(slot_); }

  /// Hottest read in the simulator (several per node per step): a cell
  /// pointer bound at construction.
  [[nodiscard]] Celsius die_temperature() const { return Celsius{*die_temp_cell_}; }
  [[nodiscard]] Celsius heatsink_temperature() const {
    return batch_.temperature(slot_, wiring_.heatsink);
  }
  [[nodiscard]] Celsius ambient_temperature() const {
    return batch_.temperature(slot_, wiring_.ambient);
  }
  [[nodiscard]] Cfm airflow() const { return Cfm{airflow_.cfm[slot_]}; }
  [[nodiscard]] Watts cpu_power() const { return batch_.power(slot_, wiring_.die); }

  /// Steady-state die temperature for a hypothetical (power, airflow) point —
  /// the analytic solution of the two-resistor chain. Useful for calibration
  /// and for the model-validation tests.
  [[nodiscard]] Celsius steady_state_die(Watts p, Cfm v) const;

  [[nodiscard]] const PackageParams& params() const { return params_; }

 private:
  /// What a standalone package owns: a one-instance batch and a one-slot
  /// airflow memo.
  struct Standalone {
    explicit Standalone(const PackageParams& params) : batch(make_batch(params, 1)) {}
    RcBatch batch;
    AirflowColumns airflow{1};
  };
  PackageModel(const PackageParams& params, std::unique_ptr<Standalone> owned);

  PackageParams params_;
  ConvectionModel convection_;
  std::unique_ptr<Standalone> owned_;  // set only for a standalone package
  RcBatch& batch_;
  AirflowColumns& airflow_;
  std::size_t slot_;
  PackageWiring wiring_{};
  // Cells for this view's fixed (slot, node) coordinates, validated once in
  // the constructor (see RcBatch::power_cell).
  double* die_power_cell_;
  const double* die_temp_cell_;
};

}  // namespace thermctl::thermal
