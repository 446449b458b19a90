// System power meter model (Watts up? Pro ES stand-in).
//
// Table 1's "Ave Power" and power-delay-product columns come from a wall
// meter sampling whole-system draw at ~1 Hz. The model sums component powers
// through a PSU-efficiency curve and integrates energy between samples, so
// averages computed from its reading history have the same semantics as the
// paper's instrument.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace thermctl::hw {

struct PowerMeterParams {
  /// Constant platform draw (board, DRAM, disk, NIC) behind the PSU.
  /// Calibrated so a loaded node meters ~95-100 W AC (Table 1's range).
  Watts base_load{35.0};
  /// PSU efficiency at the loads of interest (AC draw = DC load / eff).
  double psu_efficiency = 0.85;
  /// Meter display resolution.
  double resolution_watts = 0.1;
};

// The meter formulas over plain values. PowerMeter and the fleet sweep both
// call these, so the per-object API and the batched passes share one
// arithmetic.

/// AC draw (W) for a DC component sum: the platform base load plus the
/// components, through the PSU efficiency.
[[nodiscard]] inline double meter_ac_w(const PowerMeterParams& p, double dc_component_w) {
  return (p.base_load.value() + dc_component_w) / p.psu_efficiency;
}

/// The AC draw as the meter displays it (rounded to its resolution).
[[nodiscard]] inline double meter_display_w(const PowerMeterParams& p, double dc_component_w) {
  const double r = p.resolution_watts;
  return std::round(meter_ac_w(p, dc_component_w) / r) * r;
}

/// Advances the energy integral by `dt` seconds at a DC component sum.
inline void meter_integrate(const PowerMeterParams& p, double dc_component_w, double dt,
                            double& energy_joules, double& elapsed_seconds) {
  energy_joules += meter_ac_w(p, dc_component_w) * dt;
  elapsed_seconds += dt;
}

/// The meter's hot state, one slot per meter: the energy integral and the
/// time it covers. A fleet holds one column per field and the fleet sweep
/// integrates into them directly; a standalone PowerMeter owns a one-slot
/// set.
struct MeterColumns {
  /// `n` slots, each at the power-on state: nothing integrated yet.
  explicit MeterColumns(std::size_t n) : energy_joules(n, 0.0), elapsed_seconds(n, 0.0) {}

  std::vector<double> energy_joules;
  std::vector<double> elapsed_seconds;
};

class PowerMeter {
 public:
  /// Standalone meter over a one-slot MeterColumns of its own. `dc_load`
  /// returns the instantaneous DC-side component power sum (CPU + fan +
  /// anything else the node registers).
  PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params = {});
  /// View over slot `slot` of `columns`.
  PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params, MeterColumns& columns,
             std::size_t slot);

  // A view holds a reference into its columns, so it must not be duplicated.
  PowerMeter(const PowerMeter&) = delete;
  PowerMeter& operator=(const PowerMeter&) = delete;

  /// Instantaneous AC-side power as the meter would display it.
  [[nodiscard]] Watts read() const;

  /// read() for a caller-supplied DC component sum: identical arithmetic,
  /// minus the indirect dc_load_ call. For callers that already hold the
  /// component sum (the node does, every physics step).
  [[nodiscard]] Watts read_with(Watts dc_component) const {
    return Watts{meter_display_w(params_, dc_component.value())};
  }

  /// Advances the internal energy integral by `dt` at the current load.
  void integrate(Seconds dt) { integrate_with(dt, dc_load_()); }

  /// integrate() with the DC component sum supplied directly.
  void integrate_with(Seconds dt, Watts dc_component) {
    THERMCTL_ASSERT(dt.value() >= 0.0, "negative integration interval");
    meter_integrate(params_, dc_component.value(), dt.value(), cols_.energy_joules[slot_],
                    cols_.elapsed_seconds[slot_]);
  }

  /// Energy accumulated so far (the meter's kWh counter, in joules).
  [[nodiscard]] Joules energy() const { return Joules{cols_.energy_joules[slot_]}; }

  /// Average power over the integration window so far.
  [[nodiscard]] Watts average_power() const;

  void reset();

  [[nodiscard]] const PowerMeterParams& params() const { return params_; }

 private:
  PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params,
             std::unique_ptr<MeterColumns> owned);

  std::function<Watts()> dc_load_;
  PowerMeterParams params_;
  std::unique_ptr<MeterColumns> owned_;  // set only for a standalone meter
  MeterColumns& cols_;
  std::size_t slot_;
};

}  // namespace thermctl::hw
