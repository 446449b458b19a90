#include "hw/fan_device.hpp"

#include <utility>

#include "common/assert.hpp"

namespace thermctl::hw {

FanDevice::FanDevice(FanParams params)
    : FanDevice(params, std::make_unique<FanColumns>(1)) {}

FanDevice::FanDevice(FanParams params, std::unique_ptr<FanColumns> owned)
    : FanDevice(params, *owned, 0) {
  owned_ = std::move(owned);
}

FanDevice::FanDevice(FanParams params, FanColumns& columns, std::size_t slot)
    : params_(params), cols_(columns), slot_(slot) {
  THERMCTL_ASSERT(slot < columns.rpm.size(), "fan column slot out of range");
  THERMCTL_ASSERT(params_.max_rpm.value() > 0.0, "fan max RPM must be positive");
  THERMCTL_ASSERT(params_.rotor_tau.value() > 0.0, "rotor time constant must be positive");
}

void FanDevice::recompute_alpha(Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  alpha_ = fan_rotor_alpha(params_, dt.value());
  alpha_dt_ = dt.value();
}

}  // namespace thermctl::hw
