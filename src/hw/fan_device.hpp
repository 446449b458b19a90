// PWM-controlled cooling fan model.
//
// Reproduces the out-of-band actuator of the paper's platform: a CPU fan with
// a 4300 RPM ceiling whose speed is commanded through a PWM duty cycle
// (Fig. 1). The model captures the properties the experiments depend on:
//
//  * PWM→RPM: linear above a stall threshold (a real fan does not spin below
//    a few percent duty).
//  * Rotor inertia: RPM follows the command with a first-order lag, so fan
//    response is fast (~1 s) but not instantaneous.
//  * Airflow ∝ RPM (fan laws), feeding the convection model.
//  * Electrical power ∝ RPM^3 (fan affinity laws) — the cost side of
//    aggressive fan policies in Figs. 5–7.
//  * Failure injection: a stuck rotor for the emergency scenarios.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/units.hpp"

namespace thermctl::hw {

struct FanParams {
  Rpm max_rpm{4300.0};
  /// Duty below which the rotor stalls (no rotation).
  DutyCycle stall_duty{4.0};
  /// Airflow at max RPM.
  Cfm max_airflow{32.0};
  /// Electrical power at max RPM (affinity-law cubic from here).
  Watts max_power{5.5};
  /// Standby electronics draw even when stalled.
  Watts idle_power{0.2};
  /// Rotor spin-up/down time constant.
  Seconds rotor_tau{0.8};
};

// The fan formulas over plain values. FanDevice and the fleet sweep both call
// these, so the per-object API and the batched passes share one arithmetic.

/// Steady-state RPM for a duty command (the rotor lag's fixed point):
/// linear from the stall point up to max RPM at 100% duty. Real fans keep
/// spinning slowly right at the stall threshold; the curve has a floor of
/// 15% RPM there for continuity with datasheet minimum-speed specs.
[[nodiscard]] inline double fan_target_rpm(const FanParams& p, double duty_pct) {
  if (duty_pct < p.stall_duty.percent()) {
    return 0.0;
  }
  const double span = 100.0 - p.stall_duty.percent();
  const double frac = (duty_pct - p.stall_duty.percent()) / span;
  constexpr double kMinFrac = 0.15;
  return p.max_rpm.value() * (kMinFrac + (1.0 - kMinFrac) * frac);
}

/// Smoothing factor of the rotor's exact discrete first-order lag for a
/// step of `dt` seconds.
[[nodiscard]] inline double fan_rotor_alpha(const FanParams& p, double dt) {
  return 1.0 - std::exp(-dt / p.rotor_tau.value());
}

/// One rotor step from `rpm` toward the target for `duty_pct` (zero while
/// the rotor is stuck); a rotor coasting below 1 RPM stops.
[[nodiscard]] inline double fan_rotor_step(const FanParams& p, double rpm, double duty_pct,
                                           bool stuck, double alpha) {
  const double target = stuck ? 0.0 : fan_target_rpm(p, duty_pct);
  rpm += (target - rpm) * alpha;
  if (rpm < 1.0 && target == 0.0) {
    rpm = 0.0;
  }
  return rpm;
}

/// Airflow ∝ RPM (fan laws).
[[nodiscard]] inline double fan_airflow_cfm(const FanParams& p, double rpm) {
  return p.max_airflow.value() * rpm / p.max_rpm.value();
}

/// Electrical power ∝ RPM^3 (affinity laws) on top of the standby draw.
[[nodiscard]] inline double fan_power_w(const FanParams& p, double rpm) {
  const double frac = rpm / p.max_rpm.value();
  return p.idle_power.value() + p.max_power.value() * frac * frac * frac;
}

class FanDevice {
 public:
  explicit FanDevice(FanParams params = {});

  // Duty and RPM may be rebound into fleet-owned SoA arrays (bind_state), so
  // the device must not be duplicated with pointers into the old storage.
  FanDevice(const FanDevice&) = delete;
  FanDevice& operator=(const FanDevice&) = delete;

  /// Rebinds the rotor state (duty %, RPM, stuck flag) onto external
  /// storage — the FleetState SoA arrays. Current values carry over; the
  /// device keeps behaving identically, it just keeps its hot state in the
  /// fleet arrays.
  void bind_state(double* duty_pct, double* rpm, std::uint8_t* stuck) {
    *duty_pct = *duty_pct_;
    *rpm = *rpm_;
    *stuck = *stuck_;
    duty_pct_ = duty_pct;
    rpm_ = rpm;
    stuck_ = stuck;
  }

  /// Commands a PWM duty cycle; takes effect through the rotor lag.
  void set_duty(DutyCycle duty) { *duty_pct_ = duty.percent(); }
  [[nodiscard]] DutyCycle duty() const { return DutyCycle{*duty_pct_}; }

  /// Advances rotor dynamics. First-order lag via the exact discrete update;
  /// the exponential smoothing factor only depends on dt, which the engine
  /// holds constant, so it is cached rather than recomputed per step.
  void step(Seconds dt) {
    if (dt.value() != alpha_dt_) {
      recompute_alpha(dt);
    }
    *rpm_ = fan_rotor_step(params_, *rpm_, duty().percent(), *stuck_ != 0, alpha_);
  }

  [[nodiscard]] Rpm rpm() const { return Rpm{*rpm_}; }
  [[nodiscard]] Cfm airflow() const { return Cfm{fan_airflow_cfm(params_, *rpm_)}; }
  [[nodiscard]] Watts power() const { return Watts{fan_power_w(params_, *rpm_)}; }

  /// Steady-state RPM for a duty command (see fan_target_rpm).
  [[nodiscard]] Rpm target_rpm(DutyCycle duty) const {
    return Rpm{fan_target_rpm(params_, duty.percent())};
  }

  /// Snaps the rotor to its steady state for the current duty (experiment
  /// priming).
  void settle() { *rpm_ = target_rpm(duty()).value(); }

  /// Injects a stuck-rotor fault: the fan ignores commands and coasts to a
  /// halt. `clear_fault` restores normal operation.
  void inject_stuck_fault() { *stuck_ = 1; }
  void clear_fault() { *stuck_ = 0; }
  [[nodiscard]] bool faulted() const { return *stuck_ != 0; }

  [[nodiscard]] const FanParams& params() const { return params_; }

 private:
  void recompute_alpha(Seconds dt);

  FanParams params_;
  // Rotor state defaults to inline storage; bind_state() repoints it into a
  // FleetState SoA slot without changing behaviour.
  double duty_pct_storage_ = 0.0;
  double rpm_storage_ = 0.0;
  std::uint8_t stuck_storage_ = 0;
  double* duty_pct_ = &duty_pct_storage_;
  double* rpm_ = &rpm_storage_;
  std::uint8_t* stuck_ = &stuck_storage_;
  // dt the cached smoothing factor was built for; NaN compares unequal to
  // every dt, forcing (and validating) the first computation.
  double alpha_dt_ = std::numeric_limits<double>::quiet_NaN();
  double alpha_ = 0.0;
};

}  // namespace thermctl::hw
