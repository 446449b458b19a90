#include "hw/adt7467.hpp"

#include <algorithm>
#include <cmath>

namespace thermctl::hw {

Adt7467::Adt7467() { refresh_output(); }

void Adt7467::bind_state(const ChipStateSlots& slots) {
  *slots.temp_remote1 = *temp_remote1_;
  *slots.tach1 = *tach1_;
  *slots.last_measured_rpm = *last_measured_rpm_;
  *slots.output_duty_pct = *output_duty_pct_;
  temp_remote1_ = slots.temp_remote1;
  tach1_ = slots.tach1;
  last_measured_rpm_ = slots.last_measured_rpm;
  output_duty_pct_ = slots.output_duty_pct;
}

std::uint8_t Adt7467::duty_to_reg(DutyCycle d) {
  return static_cast<std::uint8_t>(std::lround(d.fraction() * 255.0));
}

DutyCycle Adt7467::reg_to_duty(std::uint8_t v) {
  return DutyCycle{static_cast<double>(v) / 255.0 * 100.0};
}

void Adt7467::set_measured_temperature(Celsius t) {
  const std::int8_t reg = adt7467_temp_register(t.value());
  if (reg == *temp_remote1_) {
    return;  // sub-degree drift doesn't move the register or the auto curve
  }
  *temp_remote1_ = reg;
  refresh_output();
}

void Adt7467::set_measured_rpm(Rpm rpm) {
  adt7467_latch_tach(rpm.value(), *last_measured_rpm_, *tach1_);
}

bool Adt7467::manual_mode() const { return (pwm1_config_ >> 5) == kBehaviourManual; }

DutyCycle Adt7467::auto_curve(Celsius t) const {
  const double tmin = static_cast<double>(tmin_remote1_);
  const double trange = std::max(1.0, static_cast<double>(trange_remote1_));
  const double duty_min = reg_to_duty(pwm1_min_).percent();
  if (t.value() <= tmin) {
    return DutyCycle{duty_min};
  }
  const double frac = std::min(1.0, (t.value() - tmin) / trange);
  return DutyCycle{duty_min + frac * (100.0 - duty_min)};
}

void Adt7467::refresh_output() {
  if (!manual_mode()) {
    pwm1_duty_ = std::min(
        duty_to_reg(auto_curve(Celsius{static_cast<double>(*temp_remote1_)})), pwm1_max_);
  }
  refresh_duty_mirror();
}

DutyCycle Adt7467::output_duty() const { return reg_to_duty(pwm1_duty_); }

std::optional<std::uint8_t> Adt7467::read_register(std::uint8_t reg) {
  switch (reg) {
    case kRegTempRemote1:
      return static_cast<std::uint8_t>(*temp_remote1_);
    case kRegTach1Low:
      return static_cast<std::uint8_t>(*tach1_ & 0xFF);
    case kRegTach1High:
      return static_cast<std::uint8_t>(*tach1_ >> 8);
    case kRegPwm1Duty:
      return pwm1_duty_;
    case kRegPwm1Max:
      return pwm1_max_;
    case kRegPwm1Config:
      return pwm1_config_;
    case kRegPwm1Min:
      return pwm1_min_;
    case kRegTminRemote1:
      return static_cast<std::uint8_t>(tmin_remote1_);
    case kRegTrangeRemote1:
      return trange_remote1_;
    case kRegDeviceId:
      return kDeviceId;
    case kRegCompanyId:
      return kCompanyId;
    default:
      return std::nullopt;  // register NAK
  }
}

bool Adt7467::write_register(std::uint8_t reg, std::uint8_t value) {
  switch (reg) {
    case kRegPwm1Duty:
      // Writable only under manual behaviour; the real part ignores writes in
      // automatic mode — we NAK so driver bugs surface loudly.
      if (!manual_mode()) {
        return false;
      }
      pwm1_duty_ = value;
      refresh_duty_mirror();
      return true;
    case kRegPwm1Max:
      pwm1_max_ = value;
      refresh_output();
      return true;
    case kRegPwm1Config:
      pwm1_config_ = value;
      refresh_output();
      return true;
    case kRegPwm1Min:
      pwm1_min_ = value;
      refresh_output();
      return true;
    case kRegTminRemote1:
      tmin_remote1_ = static_cast<std::int8_t>(value);
      refresh_output();
      return true;
    case kRegTrangeRemote1:
      trange_remote1_ = value;
      refresh_output();
      return true;
    default:
      return false;  // read-only or unknown register
  }
}

}  // namespace thermctl::hw
