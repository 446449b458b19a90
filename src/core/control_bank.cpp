#include "core/control_bank.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::core {

ControlBank::ControlBank(std::size_t nodes, const double* sensor_last)
    : nodes_(nodes), sensor_last_(sensor_last), readings_(nodes, 0.0) {
  THERMCTL_ASSERT(nodes > 0, "bank needs at least one node");
  THERMCTL_ASSERT(sensor_last != nullptr, "bank needs a sensor row");
  fans_.reserve(nodes);
  tdvfs_.reserve(nodes);
  unified_.reserve(nodes);
}

void ControlBank::check_slot(std::size_t node, std::size_t size) const {
  THERMCTL_ASSERT(node == size, "emplace controllers densely in node order");
  THERMCTL_ASSERT(node < nodes_, "emplace past the bank's node count");
}

DynamicFanController& ControlBank::emplace_fan(std::size_t node, sysfs::HwmonDevice& hwmon,
                                               const FanControlConfig& config) {
  check_slot(node, fans_.size());
  return fans_.emplace_back(hwmon, config);
}

TdvfsDaemon& ControlBank::emplace_tdvfs(std::size_t node, sysfs::HwmonDevice& hwmon,
                                        sysfs::CpufreqPolicy& cpufreq,
                                        const TdvfsConfig& config) {
  check_slot(node, tdvfs_.size());
  return tdvfs_.emplace_back(hwmon, cpufreq, config);
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                const UnifiedConfig& config) {
  check_slot(node, unified_.size());
  return unified_.emplace_back(hwmon, cpufreq, config);
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                sysfs::PowerClampDevice& clamp,
                                                const UnifiedConfig& config) {
  check_slot(node, unified_.size());
  return unified_.emplace_back(hwmon, cpufreq, clamp, config);
}

template <typename Controller>
void ControlBank::tick_family(std::vector<Controller>& family, SimTime now) {
  const std::size_t n = family.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Millidegree quantization exactly as the hwmon temp1_input attribute:
    // lround to long millidegrees, back to degrees.
    readings_[i] = static_cast<double>(std::lround(sensor_last_[i] * 1000.0)) / 1000.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    family[i].on_sample_with(now, Celsius{readings_[i]});
  }
}

void ControlBank::tick_fans(SimTime now) { tick_family(fans_, now); }

void ControlBank::tick_tdvfs(SimTime now) { tick_family(tdvfs_, now); }

void ControlBank::tick_unified(SimTime now) { tick_family(unified_, now); }

}  // namespace thermctl::core
