#include "cluster/fleet_sweep.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/fan_device.hpp"
#include "hw/power_meter.hpp"
#include "thermal/convection.hpp"

namespace thermctl::cluster {

FleetSweep::FleetSweep(FleetState& fleet, const NodeParams& params, std::vector<Node*> nodes)
    : fleet_(fleet), params_(params), nodes_(std::move(nodes)) {
  THERMCTL_ASSERT(nodes_.size() == fleet_.size(), "sweep needs one node per fleet slot");

  die_temp_ = fleet_.batch().temperature_cell(0, fleet_.wiring().die);
  die_power_ = fleet_.batch().power_cell(0, fleet_.wiring().die);
  hs_amb_ = fleet_.wiring().hs_amb;

  fan_duty_ = fleet_.fan_duty_data();
  fan_rpm_ = fleet_.fan_rpm_data();
  fan_stuck_ = fleet_.fan_stuck_data();
  pstate_ = fleet_.cpu_pstate_data();
  cpu_util_ = fleet_.cpu_util_data();
  cpu_die_temp_ = fleet_.cpu_die_temp_data();
  power_cache_ = fleet_.cpu_power_cache_data();
  power_valid_ = fleet_.cpu_power_valid_data();
  power_gen_ = fleet_.cpu_power_gen_data();
  throttled_ = fleet_.cpu_throttled_data();
  aperf_ = fleet_.cpu_aperf_data();
  mperf_ = fleet_.cpu_mperf_data();
  energy_uj_ = fleet_.cpu_energy_data();
  aperf_frac_ = fleet_.cpu_aperf_frac_data();
  mperf_frac_ = fleet_.cpu_mperf_frac_data();
  energy_frac_ = fleet_.cpu_energy_frac_data();
  inj_dyn_ = fleet_.inj_dyn_factor_data();
  inj_leak_ = fleet_.inj_leak_factor_data();
  inj_thr_ = fleet_.inj_thr_factor_data();
  inj_gen_ = fleet_.inj_generation_data();
  chip_temp_reg_ = fleet_.chip_temp_reg_data();
  chip_tach_ = fleet_.chip_tach_data();
  chip_last_rpm_ = fleet_.chip_last_rpm_data();
  chip_out_duty_ = fleet_.chip_out_duty_data();
  meter_energy_ = fleet_.meter_energy_data();
  meter_elapsed_ = fleet_.meter_elapsed_data();
  airflow_ = fleet_.airflow_data();
  airflow_set_ = fleet_.airflow_set_data();
  util_ = fleet_.util_data();
  busy_jiffies_ = fleet_.busy_jiffies_data();
  total_jiffies_ = fleet_.total_jiffies_data();
  jiffy_rem_busy_ = fleet_.jiffy_rem_busy_data();
  jiffy_rem_total_ = fleet_.jiffy_rem_total_data();
  prochot_events_ = fleet_.prochot_events_data();
  prochot_seconds_ = fleet_.prochot_seconds_data();
  halted_ = fleet_.halted_data();
  bmc_duty_ = fleet_.bmc_override_duty_data();
  bmc_set_ = fleet_.bmc_override_set_data();
  sample_schedule_ = fleet_.sample_schedule_data();
}

double FleetSweep::cpu_power_w(std::size_t i) {
  // CpuDevice::power(): memoized until an input or the injection generation
  // changes; recompute stores the memo so later reads this step hit it.
  if (power_valid_[i] == 0 || power_gen_[i] != inj_gen_[i]) {
    power_cache_[i] = hw::cpu_power_w(params_.cpu, pstate_[i], cpu_util_[i], cpu_die_temp_[i],
                                      throttled_[i] != 0, inj_dyn_[i], inj_leak_[i]);
    power_valid_[i] = 1;
    power_gen_[i] = inj_gen_[i];
  }
  return power_cache_[i];
}

double FleetSweep::wall_power_w(std::size_t i) {
  return hw::meter_display_w(params_.meter,
                             cpu_power_w(i) + hw::fan_power_w(params_.fan, fan_rpm_[i]));
}

void FleetSweep::pre_range(std::size_t begin, std::size_t end, Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  const double dtv = dt.value();
  const hw::FanParams fan = params_.fan;

  // Pass 1 — utilization and die-temperature latch: a halted node runs no
  // load; CpuDevice::set_utilization / set_die_temperature invalidate the
  // power memo.
  for (std::size_t i = begin; i < end; ++i) {
    if (halted_[i] != 0) {
      util_[i] = 0.0;
    }
    cpu_util_[i] = util_[i];
    cpu_die_temp_[i] = die_temp_[i];
    power_valid_[i] = 0;
  }

  // Pass 2 — fan duty latch + rotor dynamics (FanDevice::step). The BMC
  // override wins over the chip's PWM pin, as on real servers. The smoothing
  // factor is a function of dt alone; computing it per range call instead of
  // caching it per device avoids cross-shard mutable state.
  const double alpha = hw::fan_rotor_alpha(fan, dtv);
  for (std::size_t i = begin; i < end; ++i) {
    const double duty = (bmc_set_[i] != 0) ? bmc_duty_[i] : chip_out_duty_[i];
    fan_duty_[i] = duty;
    fan_rpm_[i] = hw::fan_rotor_step(fan, fan_rpm_[i], duty, fan_stuck_[i] != 0, alpha);
  }

  // Pass 3 — CPU power into the thermal batch (PackageModel::set_cpu_power).
  // The memo was invalidated in pass 1, so live nodes recompute it; a halted
  // node feeds a 2 W trickle and leaves its memo invalid.
  for (std::size_t i = begin; i < end; ++i) {
    die_power_[i] = (halted_[i] != 0) ? 2.0 : cpu_power_w(i);
  }

  // Pass 4 — airflow → convection resistance (PackageModel::set_airflow's
  // skip-if-unchanged memo; a settled rotor makes steady steps free).
  const thermal::ConvectionModel convection{params_.package.convection};
  for (std::size_t i = begin; i < end; ++i) {
    const double af = hw::fan_airflow_cfm(fan, fan_rpm_[i]);
    if (airflow_set_[i] != 0 && af == airflow_[i]) {
      continue;
    }
    airflow_[i] = af;
    airflow_set_[i] = 1;
    fleet_.batch().set_resistance(i, hs_amb_, convection.resistance(Cfm{af}));
  }
}

void FleetSweep::post_range(std::size_t begin, std::size_t end, Seconds dt) {
  const double dtv = dt.value();
  const hw::FanParams fan = params_.fan;
  const hw::PowerMeterParams meter = params_.meter;
  const ProtectionParams protection = params_.protection;

  // Pass 1 — chip temperature register (Adt7467::set_measured_temperature's
  // early-out). Sub-degree drift never moves the int8 register; when it does
  // move, the register object re-runs the auto curve (and PWM mirror) itself.
  for (std::size_t i = begin; i < end; ++i) {
    const double die = die_temp_[i];
    if (hw::adt7467_temp_register(die) != chip_temp_reg_[i]) {
      nodes_[i]->fan_chip().set_measured_temperature(Celsius{die});
    }
  }

  // Pass 2 — chip tach latch (Adt7467::set_measured_rpm).
  for (std::size_t i = begin; i < end; ++i) {
    hw::adt7467_latch_tach(fan_rpm_[i], chip_last_rpm_[i], chip_tach_[i]);
  }

  // Pass 3 — meter integration + hardware counters. cpu_power_w resolves
  // the memo: valid from pre for live nodes, recomputed here for halted ones
  // (whose pre pass fed the trickle instead).
  for (std::size_t i = begin; i < end; ++i) {
    const double p_cpu = cpu_power_w(i);
    hw::meter_integrate(meter, p_cpu + hw::fan_power_w(fan, fan_rpm_[i]), dtv, meter_energy_[i],
                        meter_elapsed_[i]);
    const double eff = hw::cpu_effective_ghz(params_.cpu, pstate_[i], throttled_[i] != 0);
    hw::advance_cpu_counters(params_.cpu, eff, cpu_util_[i], inj_thr_[i], p_cpu, dtv, aperf_[i],
                             mperf_[i], energy_uj_[i], aperf_frac_[i], mperf_frac_[i],
                             energy_frac_[i]);
  }

  // Pass 4 — PROCHOT accounting, the protection ladder and /proc/stat jiffy
  // accounting at USER_HZ with fractional carry. prochot_seconds accrues on
  // the *pre-protection* throttle state.
  for (std::size_t i = begin; i < end; ++i) {
    if (throttled_[i] != 0) {
      prochot_seconds_[i] += dtv;
    }
    const Celsius die{die_temp_[i]};
    if (protection.critical_enabled && die >= protection.critical && halted_[i] == 0) {
      halted_[i] = 1;
      THERMCTL_LOG_WARN("node", "node %d THERMTRIP at %.1f C — halted", nodes_[i]->id(),
                        die.value());
    }
    if (protection.prochot_enabled) {
      if (throttled_[i] == 0 && die >= protection.prochot) {
        throttled_[i] = 1;
        power_valid_[i] = 0;  // set_thermal_throttle invalidates the memo
        ++prochot_events_[i];
        THERMCTL_LOG_INFO("node", "node %d PROCHOT asserted at %.1f C", nodes_[i]->id(),
                          die.value());
      } else if (throttled_[i] != 0 &&
                 die <= protection.prochot - protection.prochot_hysteresis) {
        throttled_[i] = 0;
        power_valid_[i] = 0;
        THERMCTL_LOG_INFO("node", "node %d PROCHOT released at %.1f C", nodes_[i]->id(),
                          die.value());
      }
    }

    jiffy_rem_busy_[i] += util_[i] * dtv * 100.0;
    jiffy_rem_total_[i] += dtv * 100.0;
    const auto busy_whole = static_cast<std::uint64_t>(jiffy_rem_busy_[i]);
    const auto total_whole = static_cast<std::uint64_t>(jiffy_rem_total_[i]);
    busy_jiffies_[i] += busy_whole;
    total_jiffies_[i] += total_whole;
    jiffy_rem_busy_[i] -= static_cast<double>(busy_whole);
    jiffy_rem_total_[i] -= static_cast<double>(total_whole);
  }
}

std::uint64_t FleetSweep::sample_range(std::size_t begin, std::size_t end, SimTime after) {
  std::uint64_t samples = 0;
  for (std::size_t i = begin; i < end; ++i) {
    while (sample_schedule_[i].due(after)) {
      nodes_[i]->sample_sensor();
      ++samples;
    }
  }
  return samples;
}

}  // namespace thermctl::cluster
