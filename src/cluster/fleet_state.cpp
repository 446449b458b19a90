#include "cluster/fleet_state.hpp"

#include <type_traits>

namespace thermctl::cluster {

NodeColumns::NodeColumns(std::size_t n)
    : util(n, 0.0),
      busy_jiffies(n, 0),
      total_jiffies(n, 0),
      jiffy_rem_busy(n, 0.0),
      jiffy_rem_total(n, 0.0),
      prochot_events(n, 0),
      prochot_seconds(n, 0.0),
      halted(n, 0),
      bmc_override_duty(n, 0.0),
      bmc_override_set(n, 0),
      sample_schedule(n) {}

FleetState::FleetState(const thermal::PackageParams& package, std::size_t count)
    : cpu(count),
      idle(count),
      fan(count),
      chip(count),
      meter(count),
      sensor_last(count, 0.0),
      airflow(count),
      node(count),
      batch_(thermal::PackageModel::make_batch(package, count, &wiring_)) {}

std::size_t FleetState::memory_bytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return batch_.memory_bytes() + bytes(cpu.pstate) + bytes(cpu.utilization) +
         bytes(cpu.die_temperature) + bytes(cpu.power_cache) + bytes(cpu.power_valid) +
         bytes(cpu.power_gen) + bytes(cpu.throttled) + bytes(cpu.transitions) +
         bytes(cpu.aperf) + bytes(cpu.mperf) + bytes(cpu.energy_uj) + bytes(cpu.aperf_frac) +
         bytes(cpu.mperf_frac) + bytes(cpu.energy_frac) + bytes(idle.dynamic_factor) +
         bytes(idle.leakage_factor) + bytes(idle.throughput_factor) + bytes(idle.generation) +
         bytes(fan.duty_pct) + bytes(fan.rpm) + bytes(fan.stuck) + bytes(chip.temp_remote1) +
         bytes(chip.tach1) + bytes(chip.last_measured_rpm) + bytes(chip.output_duty_pct) +
         bytes(meter.energy_joules) + bytes(meter.elapsed_seconds) + bytes(sensor_last) +
         bytes(airflow.cfm) + bytes(airflow.set) + bytes(node.util) + bytes(node.busy_jiffies) +
         bytes(node.total_jiffies) + bytes(node.jiffy_rem_busy) + bytes(node.jiffy_rem_total) +
         bytes(node.prochot_events) + bytes(node.prochot_seconds) + bytes(node.halted) +
         bytes(node.bmc_override_duty) + bytes(node.bmc_override_set) +
         bytes(node.sample_schedule);
}

}  // namespace thermctl::cluster
