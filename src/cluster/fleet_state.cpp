#include "cluster/fleet_state.hpp"

#include <type_traits>

namespace thermctl::cluster {

FleetState::FleetState(const thermal::PackageParams& package, std::size_t count)
    : batch_(thermal::PackageModel::make_batch(package, count, &wiring_)),
      fan_duty_pct_(count, 0.0),
      fan_rpm_(count, 0.0),
      fan_stuck_(count, 0),
      sensor_last_(count, 0.0),
      cpu_pstate_(count, 0),
      cpu_util_(count, 0.0),
      cpu_die_temp_(count, 0.0),
      cpu_power_cache_(count, 0.0),
      cpu_power_valid_(count, 0),
      cpu_power_gen_(count, 0),
      cpu_throttled_(count, 0),
      cpu_transitions_(count, 0),
      cpu_aperf_(count, 0),
      cpu_mperf_(count, 0),
      cpu_energy_uj_(count, 0),
      cpu_aperf_frac_(count, 0.0),
      cpu_mperf_frac_(count, 0.0),
      cpu_energy_frac_(count, 0.0),
      inj_dyn_factor_(count, 1.0),
      inj_leak_factor_(count, 1.0),
      inj_thr_factor_(count, 1.0),
      inj_generation_(count, 0),
      chip_temp_reg_(count, 0),
      chip_tach_(count, 0),
      chip_last_rpm_(count, 0.0),
      chip_out_duty_pct_(count, 0.0),
      meter_energy_j_(count, 0.0),
      meter_elapsed_s_(count, 0.0),
      airflow_cfm_(count, 0.0),
      airflow_set_(count, 0),
      util_(count, 0.0),
      busy_jiffies_(count, 0),
      total_jiffies_(count, 0),
      jiffy_rem_busy_(count, 0.0),
      jiffy_rem_total_(count, 0.0),
      prochot_events_(count, 0),
      prochot_seconds_(count, 0.0),
      halted_(count, 0),
      bmc_override_duty_(count, 0.0),
      bmc_override_set_(count, 0),
      sample_schedule_(count) {}

std::size_t FleetState::memory_bytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return batch_.memory_bytes() + bytes(fan_duty_pct_) + bytes(fan_rpm_) + bytes(fan_stuck_) +
         bytes(sensor_last_) + bytes(cpu_pstate_) + bytes(cpu_util_) + bytes(cpu_die_temp_) +
         bytes(cpu_power_cache_) + bytes(cpu_power_valid_) + bytes(cpu_power_gen_) +
         bytes(cpu_throttled_) + bytes(cpu_transitions_) + bytes(cpu_aperf_) +
         bytes(cpu_mperf_) + bytes(cpu_energy_uj_) + bytes(cpu_aperf_frac_) +
         bytes(cpu_mperf_frac_) + bytes(cpu_energy_frac_) + bytes(inj_dyn_factor_) +
         bytes(inj_leak_factor_) + bytes(inj_thr_factor_) + bytes(inj_generation_) +
         bytes(chip_temp_reg_) + bytes(chip_tach_) + bytes(chip_last_rpm_) +
         bytes(chip_out_duty_pct_) + bytes(meter_energy_j_) + bytes(meter_elapsed_s_) +
         bytes(airflow_cfm_) + bytes(airflow_set_) + bytes(util_) + bytes(busy_jiffies_) +
         bytes(total_jiffies_) + bytes(jiffy_rem_busy_) + bytes(jiffy_rem_total_) +
         bytes(prochot_events_) + bytes(prochot_seconds_) + bytes(halted_) +
         bytes(bmc_override_duty_) + bytes(bmc_override_set_) +
         sample_schedule_.capacity() * sizeof(PeriodicSchedule);
}

}  // namespace thermctl::cluster
