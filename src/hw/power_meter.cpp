#include "hw/power_meter.hpp"

#include <utility>

#include "common/assert.hpp"

namespace thermctl::hw {

PowerMeter::PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params)
    : PowerMeter(std::move(dc_load), params, std::make_unique<MeterColumns>(1)) {}

PowerMeter::PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params,
                       std::unique_ptr<MeterColumns> owned)
    : PowerMeter(std::move(dc_load), params, *owned, 0) {
  owned_ = std::move(owned);
}

PowerMeter::PowerMeter(std::function<Watts()> dc_load, PowerMeterParams params,
                       MeterColumns& columns, std::size_t slot)
    : dc_load_(std::move(dc_load)), params_(params), cols_(columns), slot_(slot) {
  THERMCTL_ASSERT(slot < columns.energy_joules.size(), "meter column slot out of range");
  THERMCTL_ASSERT(static_cast<bool>(dc_load_), "power meter needs a load source");
  THERMCTL_ASSERT(params_.psu_efficiency > 0.0 && params_.psu_efficiency <= 1.0,
                  "PSU efficiency must be in (0, 1]");
}

Watts PowerMeter::read() const { return read_with(dc_load_()); }

Watts PowerMeter::average_power() const {
  const double elapsed = cols_.elapsed_seconds[slot_];
  if (elapsed <= 0.0) {
    return Watts{0.0};
  }
  return Watts{cols_.energy_joules[slot_] / elapsed};
}

void PowerMeter::reset() {
  cols_.energy_joules[slot_] = 0.0;
  cols_.elapsed_seconds[slot_] = 0.0;
}

}  // namespace thermctl::hw
