#include "cluster/fleet_sweep.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::cluster {

FleetSweep::FleetSweep(FleetState& fleet, const NodeParams& base,
                       const std::vector<Node*>& nodes)
    : fleet_(fleet), nodes_(nodes), convection_(base.package.convection) {
  THERMCTL_ASSERT(nodes_.size() == fleet_.size(), "sweep needs one node per fleet slot");

  die_temp_ = fleet_.batch().temperature_cell(0, fleet_.wiring().die);
  die_power_ = fleet_.batch().power_cell(0, fleet_.wiring().die);
  hs_amb_ = fleet_.wiring().hs_amb;

  fan_duty_ = fleet_.fan_duty_data();
  fan_rpm_ = fleet_.fan_rpm_data();
  fan_stuck_ = fleet_.fan_stuck_data();
  sensor_last_ = fleet_.sensor_last_data();
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

  const hw::CpuParams& cpu = base.cpu;
  pstate_freq_.reserve(cpu.pstates.size());
  pstate_v2_.reserve(cpu.pstates.size());
  for (const hw::PState& ps : cpu.pstates) {
    pstate_freq_.push_back(ps.frequency.value());
    pstate_v2_.push_back(ps.voltage.value() * ps.voltage.value());
  }
  max_freq_ = pstate_freq_.front();
  min_freq_ = pstate_freq_.back();
  k_dyn_ = cpu.k_dyn;
  k_leak_ = cpu.k_leak;
  leak_alpha_ = cpu.leakage_alpha;
  t_ref_ = cpu.t_ref.value();
  idle_activity_ = cpu.idle_activity;

  fan_max_rpm_ = base.fan.max_rpm.value();
  fan_stall_pct_ = base.fan.stall_duty.percent();
  fan_max_airflow_ = base.fan.max_airflow.value();
  fan_idle_w_ = base.fan.idle_power.value();
  fan_max_w_ = base.fan.max_power.value();
  rotor_tau_ = base.fan.rotor_tau.value();

  meter_base_w_ = base.meter.base_load.value();
  meter_eff_ = base.meter.psu_efficiency;
  meter_res_w_ = base.meter.resolution_watts;

  critical_enabled_ = base.protection.critical_enabled;
  prochot_enabled_ = base.protection.prochot_enabled;
  critical_c_ = base.protection.critical.value();
  prochot_c_ = base.protection.prochot.value();
  // Same arithmetic as `prochot - prochot_hysteresis` (Celsius - CelsiusDelta).
  prochot_release_c_ = base.protection.prochot.value() - base.protection.prochot_hysteresis.value();
}

double FleetSweep::cpu_power_w(std::size_t i) {
  // CpuDevice::power(): memoized until an input or the injection generation
  // changes; recompute stores the memo so later reads this step hit it.
  if (power_valid_[i] == 0 || power_gen_[i] != inj_gen_[i]) {
    const double v2 = pstate_v2_[pstate_[i]];
    const double activity = idle_activity_ + (1.0 - idle_activity_) * cpu_util_[i];
    const double eff = (throttled_[i] != 0) ? min_freq_ : pstate_freq_[pstate_[i]];
    const double p_dyn = k_dyn_ * v2 * eff * activity * inj_dyn_[i];
    const double p_leak =
        k_leak_ * v2 * (1.0 + leak_alpha_ * (cpu_die_temp_[i] - t_ref_)) * inj_leak_[i];
    power_cache_[i] = p_dyn + std::max(0.0, p_leak);
    power_valid_[i] = 1;
    power_gen_[i] = inj_gen_[i];
  }
  return power_cache_[i];
}

double FleetSweep::wall_power_w(std::size_t i) {
  const double frac = fan_rpm_[i] / fan_max_rpm_;
  const double dc_component = cpu_power_w(i) + (fan_idle_w_ + fan_max_w_ * frac * frac * frac);
  // PowerMeter::read_with: AC draw through PSU efficiency, display-rounded.
  const double dc = meter_base_w_ + dc_component;
  const double ac = dc / meter_eff_;
  return std::round(ac / meter_res_w_) * meter_res_w_;
}

void FleetSweep::pre_range(std::size_t begin, std::size_t end, Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  const double dtv = dt.value();

  // Pass 1 — utilization and die-temperature latch (Node::step's first
  // block: halted zeroing, CpuDevice::set_utilization /
  // set_die_temperature, which invalidate the power memo).
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
  const double alpha = 1.0 - std::exp(-dtv / rotor_tau_);
  for (std::size_t i = begin; i < end; ++i) {
    const double duty = (bmc_set_[i] != 0) ? bmc_duty_[i] : chip_out_duty_[i];
    fan_duty_[i] = duty;
    double target = 0.0;
    if (fan_stuck_[i] == 0 && duty >= fan_stall_pct_) {
      const double span = 100.0 - fan_stall_pct_;
      const double dfrac = (duty - fan_stall_pct_) / span;
      constexpr double kMinFrac = 0.15;
      target = fan_max_rpm_ * (kMinFrac + (1.0 - kMinFrac) * dfrac);
    }
    double rpm = fan_rpm_[i];
    rpm += (target - rpm) * alpha;
    if (rpm < 1.0 && target == 0.0) {
      rpm = 0.0;
    }
    fan_rpm_[i] = rpm;
  }

  // Pass 3 — CPU power into the thermal batch (PackageModel::set_cpu_power).
  // The memo was invalidated in pass 1, so live nodes recompute exactly like
  // CpuDevice::power(); a halted node feeds the 2 W trickle and leaves its
  // memo invalid, as Node::step does by never calling power().
  for (std::size_t i = begin; i < end; ++i) {
    die_power_[i] = (halted_[i] != 0) ? 2.0 : cpu_power_w(i);
  }

  // Pass 4 — airflow → convection resistance (PackageModel::set_airflow's
  // skip-if-unchanged memo; a settled rotor makes steady steps free).
  for (std::size_t i = begin; i < end; ++i) {
    const double af = fan_max_airflow_ * fan_rpm_[i] / fan_max_rpm_;
    if (airflow_set_[i] != 0 && af == airflow_[i]) {
      continue;
    }
    airflow_[i] = af;
    airflow_set_[i] = 1;
    fleet_.batch().set_resistance(i, hs_amb_, convection_.resistance(Cfm{af}));
  }
}

void FleetSweep::post_range(std::size_t begin, std::size_t end, Seconds dt) {
  const double dtv = dt.value();

  // Pass 1 — chip temperature register (Adt7467::set_measured_temperature's
  // early-out). Sub-degree drift never moves the int8 register; when it does
  // move, the register object re-runs the auto curve (and PWM mirror) itself.
  for (std::size_t i = begin; i < end; ++i) {
    const double die = die_temp_[i];
    const double clamped = std::clamp(die, -128.0, 127.0);
    const auto reg = static_cast<std::int8_t>(std::lround(clamped));
    if (reg != chip_temp_reg_[i]) {
      nodes_[i]->fan_chip().set_measured_temperature(Celsius{die});
    }
  }

  // Pass 2 — chip tach latch (Adt7467::set_measured_rpm).
  for (std::size_t i = begin; i < end; ++i) {
    const double rpm = fan_rpm_[i];
    if (rpm == chip_last_rpm_[i]) {
      continue;  // rotor at steady state: the latched tach period is current
    }
    chip_last_rpm_[i] = rpm;
    if (rpm < 100.0) {
      chip_tach_[i] = 0xFFFF;  // stalled / too slow to measure
    } else {
      const double count = hw::Adt7467::kTachClock / rpm;
      chip_tach_[i] = static_cast<std::uint16_t>(std::min(count, 65534.0));
    }
  }

  // Pass 3 — meter integration + hardware counters (PowerMeter::
  // integrate_with, CpuDevice::advance_counters). cpu_power_w resolves the
  // memo exactly like Node::step: valid from pre for live nodes,
  // recomputed here for halted ones (whose pre phase skipped power()).
  for (std::size_t i = begin; i < end; ++i) {
    const double p_cpu = cpu_power_w(i);
    const double frac = fan_rpm_[i] / fan_max_rpm_;
    const double p_fan = fan_idle_w_ + fan_max_w_ * frac * frac * frac;
    const double dc = meter_base_w_ + (p_cpu + p_fan);
    meter_energy_[i] += dc / meter_eff_ * dtv;
    meter_elapsed_[i] += dtv;

    const double eff = (throttled_[i] != 0) ? min_freq_ : pstate_freq_[pstate_[i]];
    const double aperf_inc = eff * cpu_util_[i] * dtv * inj_thr_[i] * 1e3;
    const double mperf_inc = max_freq_ * dtv * 1e3;
    const double energy_inc = p_cpu * dtv * 1e6;
    aperf_frac_[i] += aperf_inc;
    mperf_frac_[i] += mperf_inc;
    energy_frac_[i] += energy_inc;
    const auto a = static_cast<std::uint64_t>(aperf_frac_[i]);
    const auto m = static_cast<std::uint64_t>(mperf_frac_[i]);
    const auto e = static_cast<std::uint64_t>(energy_frac_[i]);
    aperf_[i] += a;
    mperf_[i] += m;
    energy_uj_[i] += e;
    aperf_frac_[i] -= static_cast<double>(a);
    mperf_frac_[i] -= static_cast<double>(m);
    energy_frac_[i] -= static_cast<double>(e);
  }

  // Pass 4 — PROCHOT accounting, the protection ladder and jiffy accounting
  // (Node::step's tail). prochot_seconds accrues on the
  // *pre-protection* throttle state, exactly as in Node::step.
  for (std::size_t i = begin; i < end; ++i) {
    if (throttled_[i] != 0) {
      prochot_seconds_[i] += dtv;
    }
    const double die = die_temp_[i];
    if (critical_enabled_ && die >= critical_c_ && halted_[i] == 0) {
      halted_[i] = 1;
      THERMCTL_LOG_WARN("node", "node %d THERMTRIP at %.1f C — halted", nodes_[i]->id(), die);
    }
    if (prochot_enabled_) {
      if (throttled_[i] == 0 && die >= prochot_c_) {
        throttled_[i] = 1;
        power_valid_[i] = 0;  // set_thermal_throttle invalidates the memo
        ++prochot_events_[i];
        THERMCTL_LOG_INFO("node", "node %d PROCHOT asserted at %.1f C", nodes_[i]->id(), die);
      } else if (throttled_[i] != 0 && die <= prochot_release_c_) {
        throttled_[i] = 0;
        power_valid_[i] = 0;
        THERMCTL_LOG_INFO("node", "node %d PROCHOT released at %.1f C", nodes_[i]->id(), die);
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
