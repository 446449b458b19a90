#include "hw/power_meter.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

PowerMeter::PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params)
    : dc_load_(std::move(dc_load)), params_(params) {
  THERMCTL_ASSERT(static_cast<bool>(dc_load_), "power meter needs a load source");
  THERMCTL_ASSERT(params_.psu_efficiency > 0.0 && params_.psu_efficiency <= 1.0,
                  "PSU efficiency must be in (0, 1]");
}

Watts PowerMeter::read() const { return read_with(dc_load_()); }

Watts PowerMeter::average_power() const {
  if (*elapsed_seconds_ <= 0.0) {
    return Watts{0.0};
  }
  return Watts{*energy_joules_ / *elapsed_seconds_};
}

void PowerMeter::reset() {
  *energy_joules_ = 0.0;
  *elapsed_seconds_ = 0.0;
}

}  // namespace thermctl::hw
