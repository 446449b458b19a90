#include "hw/thermal_sensor.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace thermctl::hw {

ThermalSensor::ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng)
    : ThermalSensor(std::move(source), params, rng, std::make_unique<std::vector<double>>(1, 0.0)) {
}

ThermalSensor::ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng,
                             std::unique_ptr<std::vector<double>> owned)
    : ThermalSensor(std::move(source), params, rng, *owned, 0) {
  owned_ = std::move(owned);
}

ThermalSensor::ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng,
                             std::vector<double>& last_degc, std::size_t slot)
    : source_(std::move(source)), params_(params), rng_(rng), last_(last_degc), slot_(slot) {
  THERMCTL_ASSERT(slot < last_degc.size(), "sensor column slot out of range");
  THERMCTL_ASSERT(static_cast<bool>(source_), "sensor needs a source");
  THERMCTL_ASSERT(params_.quantization_degc > 0.0, "quantization step must be positive");
  THERMCTL_ASSERT(params_.noise_sigma_degc >= 0.0, "noise sigma must be non-negative");
}

Celsius ThermalSensor::sample() {
  if (stuck_ && has_reading_) {
    return Celsius{last_[slot_]};
  }
  double v = source_().value() + params_.offset_degc;
  if (params_.noise_sigma_degc > 0.0) {
    v += rng_.normal(0.0, params_.noise_sigma_degc);
  }
  const double q = params_.quantization_degc;
  v = std::round(v / q) * q;
  last_[slot_] = v;
  has_reading_ = true;
  return Celsius{v};
}

}  // namespace thermctl::hw
