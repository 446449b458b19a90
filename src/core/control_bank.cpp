#include "core/control_bank.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "runtime/shard_scope.hpp"

namespace thermctl::core {

ControlBank::ControlBank(std::size_t nodes, const double* sensor_last)
    : nodes_(nodes), sensor_last_(sensor_last) {
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
  // Each range latches and ticks its own nodes. A tick reads its node's
  // latched reading and writes only that node's state (its controller, the
  // node's sysfs/device path, fleet slots, trace ring and event log), so the
  // ranges may run on different threads; the only shared object a tick can
  // reach is the Logger, which serializes emission.
  runtime::for_each_shard(family.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Millidegree quantization exactly as the hwmon temp1_input attribute:
      // lround to long millidegrees, back to degrees.
      const double reading =
          static_cast<double>(std::lround(sensor_last_[i] * 1000.0)) / 1000.0;
      family[i].on_sample_with(now, Celsius{reading});
    }
  });
}

void ControlBank::tick_fans(SimTime now) { tick_family(fans_, now); }

void ControlBank::tick_tdvfs(SimTime now) { tick_family(tdvfs_, now); }

void ControlBank::tick_unified(SimTime now) { tick_family(unified_, now); }

}  // namespace thermctl::core
