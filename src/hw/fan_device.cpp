#include "hw/fan_device.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

FanDevice::FanDevice(FanParams params) : params_(params) {
  THERMCTL_ASSERT(params_.max_rpm.value() > 0.0, "fan max RPM must be positive");
  THERMCTL_ASSERT(params_.rotor_tau.value() > 0.0, "rotor time constant must be positive");
}

void FanDevice::recompute_alpha(Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  alpha_ = fan_rotor_alpha(params_, dt.value());
  alpha_dt_ = dt.value();
}

}  // namespace thermctl::hw
