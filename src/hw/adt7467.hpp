// ADT7467 dBCool remote thermal monitor / fan controller model.
//
// The paper's out-of-band actuation path runs through this Analog Devices
// part: a custom Linux driver writes PWM registers over i2c, and the chip's
// *automatic* mode implements the traditional static fan curve of Fig. 1
// (duty = PWMmin below Tmin, rising linearly to 100% at Tmax).
//
// This model implements the subset of the register map the experiments
// exercise, with the real part's conventions (8-bit duty, tach period
// counters, identification registers). It is a simplification of the full
// datasheet — enough to keep the driver ↔ chip protocol honest, not a
// cycle-accurate replica.
//
// Register map (subset):
//   0x26  TEMP_REMOTE1   measured remote-diode temperature, signed °C (RO)
//   0x28  TACH1_LOW      fan tach period counter, low byte (RO)
//   0x29  TACH1_HIGH     fan tach period counter, high byte (RO)
//   0x30  PWM1_DUTY      current duty, 0..255; writable in manual mode
//   0x38  PWM1_MAX       ceiling applied to the automatic curve, 0..255
//   0x5C  PWM1_CONFIG    bits 7:5 = behaviour (0b111 manual, 0b101 auto)
//   0x64  PWM1_MIN       minimum duty for the automatic curve, 0..255
//   0x67  TMIN_REMOTE1   automatic-curve Tmin, signed °C
//   0x68  TRANGE_REMOTE1 automatic-curve range (Tmax - Tmin), °C
//   0x3D  DEVICE_ID      0x68
//   0x3E  COMPANY_ID     0x41 (Analog Devices)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "common/units.hpp"
#include "hw/i2c.hpp"

namespace thermctl::hw {

/// External storage the chip's latched measurements and output mirror can be
/// rebound onto (bind_state) — slots into FleetState's SoA arrays so the
/// fleet sweep can batch the measurement-side protocol without touching the
/// register objects.
struct ChipStateSlots {
  std::int8_t* temp_remote1 = nullptr;
  std::uint16_t* tach1 = nullptr;
  double* last_measured_rpm = nullptr;
  /// Mirror of reg_to_duty(PWM1_DUTY).percent(), refreshed whenever the duty
  /// register changes (auto-curve refresh or manual write).
  double* output_duty_pct = nullptr;
};

class Adt7467 final : public I2cSlave {
 public:
  // Register addresses (public so drivers and tests share one definition).
  static constexpr std::uint8_t kRegTempRemote1 = 0x26;
  static constexpr std::uint8_t kRegTach1Low = 0x28;
  static constexpr std::uint8_t kRegTach1High = 0x29;
  static constexpr std::uint8_t kRegPwm1Duty = 0x30;
  static constexpr std::uint8_t kRegPwm1Max = 0x38;
  static constexpr std::uint8_t kRegPwm1Config = 0x5C;
  static constexpr std::uint8_t kRegPwm1Min = 0x64;
  static constexpr std::uint8_t kRegTminRemote1 = 0x67;
  static constexpr std::uint8_t kRegTrangeRemote1 = 0x68;
  static constexpr std::uint8_t kRegDeviceId = 0x3D;
  static constexpr std::uint8_t kRegCompanyId = 0x3E;

  static constexpr std::uint8_t kDeviceId = 0x68;
  static constexpr std::uint8_t kCompanyId = 0x41;

  static constexpr std::uint8_t kBehaviourManual = 0b111;
  static constexpr std::uint8_t kBehaviourAutoRemote1 = 0b101;

  /// Datasheet tach convention: counter = 5.4e6 / RPM; 0xFFFF = stalled.
  static constexpr double kTachClock = 5.4e6;

  Adt7467();

  // Latched state may be rebound into fleet-owned SoA arrays (bind_state),
  // so the chip must not be duplicated with pointers into the old storage.
  Adt7467(const Adt7467&) = delete;
  Adt7467& operator=(const Adt7467&) = delete;

  /// Rebinds the latched measurements and the output-duty mirror onto
  /// external storage (FleetState SoA slots). Current values carry over.
  void bind_state(const ChipStateSlots& slots);

  // --- physical-side interface (wired by the node model, not by drivers) ---

  /// Latches the remote diode temperature measurement.
  void set_measured_temperature(Celsius t);

  /// Latches the fan tach feedback.
  void set_measured_rpm(Rpm rpm);

  /// Duty the chip is currently driving on its PWM output pin.
  [[nodiscard]] DutyCycle output_duty() const;

  /// True when bits 7:5 of PWM1_CONFIG select manual behaviour.
  [[nodiscard]] bool manual_mode() const;

  /// The automatic-mode curve evaluated at `t` (Fig. 1 of the paper):
  /// duty = PWM1_MIN below Tmin, linear to 100% at Tmin + Trange.
  [[nodiscard]] DutyCycle auto_curve(Celsius t) const;

  // --- I2cSlave protocol ---
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override;
  bool write_register(std::uint8_t reg, std::uint8_t value) override;

  /// Converts a percentage duty to the 8-bit register encoding and back.
  [[nodiscard]] static std::uint8_t duty_to_reg(DutyCycle d);
  [[nodiscard]] static DutyCycle reg_to_duty(std::uint8_t v);

 private:
  void refresh_output();
  void refresh_duty_mirror() { *output_duty_pct_ = reg_to_duty(pwm1_duty_).percent(); }

  // Latched measurements default to inline storage; bind_state() repoints
  // them into FleetState SoA slots without changing behaviour.
  std::int8_t temp_remote1_storage_ = 25;    // latched measurement, °C
  std::uint16_t tach1_storage_ = 0xFFFF;     // latched tach period
  double last_measured_rpm_storage_ = -1.0;  // skip tach recompute when unchanged
  double output_duty_pct_storage_ = 0.0;     // mirror of the PWM output pin
  std::int8_t* temp_remote1_ = &temp_remote1_storage_;
  std::uint16_t* tach1_ = &tach1_storage_;
  double* last_measured_rpm_ = &last_measured_rpm_storage_;
  double* output_duty_pct_ = &output_duty_pct_storage_;
  std::uint8_t pwm1_duty_ = 0;      // current duty register
  std::uint8_t pwm1_max_ = 0xFF;    // automatic-curve ceiling
  std::uint8_t pwm1_config_ = static_cast<std::uint8_t>(kBehaviourAutoRemote1 << 5);
  std::uint8_t pwm1_min_ = 26;      // ~10% of 255 (PWMmin in the paper)
  std::int8_t tmin_remote1_ = 38;   // paper platform: Tmin = 38 °C
  std::uint8_t trange_remote1_ = 44;  // paper platform: Tmax = 82 °C
};

// The chip's measurement-side formulas over plain values. Adt7467 and the
// fleet sweep both call these, so the register object and the batched passes
// share one arithmetic.

/// TEMP_REMOTE1's encoding of a diode temperature: whole signed °C,
/// saturating at the int8 range.
[[nodiscard]] inline std::int8_t adt7467_temp_register(double celsius) {
  return static_cast<std::int8_t>(std::lround(std::clamp(celsius, -128.0, 127.0)));
}

/// Latches a tach reading into `tach1` (kTachClock / RPM, 0xFFFF when the
/// rotor is too slow to measure). `last_rpm` remembers the latched RPM, so a
/// rotor at steady state skips the division.
inline void adt7467_latch_tach(double rpm, double& last_rpm, std::uint16_t& tach1) {
  if (rpm == last_rpm) {
    return;
  }
  last_rpm = rpm;
  if (rpm < 100.0) {
    tach1 = 0xFFFF;
  } else {
    tach1 = static_cast<std::uint16_t>(std::min(Adt7467::kTachClock / rpm, 65534.0));
  }
}

}  // namespace thermctl::hw
