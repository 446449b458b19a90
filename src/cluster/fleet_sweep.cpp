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
}

double FleetSweep::cpu_power_w(std::size_t i) {
  // CpuDevice::power(): memoized until an input or the injection generation
  // changes; recompute stores the memo so later reads this step hit it.
  hw::CpuColumns& cpu = fleet_.cpu;
  const hw::IdleColumns& idle = fleet_.idle;
  if (cpu.power_valid[i] == 0 || cpu.power_gen[i] != idle.generation[i]) {
    cpu.power_cache[i] =
        hw::cpu_power_w(params_.cpu, cpu.pstate[i], cpu.utilization[i], cpu.die_temperature[i],
                        cpu.throttled[i] != 0, idle.dynamic_factor[i], idle.leakage_factor[i]);
    cpu.power_valid[i] = 1;
    cpu.power_gen[i] = idle.generation[i];
  }
  return cpu.power_cache[i];
}

double FleetSweep::wall_power_w(std::size_t i) {
  return hw::meter_display_w(params_.meter,
                             cpu_power_w(i) + hw::fan_power_w(params_.fan, fleet_.fan.rpm[i]));
}

void FleetSweep::pre_range(std::size_t begin, std::size_t end, Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  const double dtv = dt.value();
  const hw::FanParams fan = params_.fan;
  thermal::RcBatch& batch = fleet_.batch();
  const double* die_temp = batch.temperature_cell(0, fleet_.wiring().die);
  double* die_power = batch.power_cell(0, fleet_.wiring().die);
  hw::CpuColumns& cpu = fleet_.cpu;
  hw::FanColumns& fans = fleet_.fan;
  NodeColumns& node = fleet_.node;

  // Pass 1 — utilization and die-temperature latch: a halted node runs no
  // load; CpuDevice::set_utilization / set_die_temperature invalidate the
  // power memo.
  for (std::size_t i = begin; i < end; ++i) {
    if (node.halted[i] != 0) {
      node.util[i] = 0.0;
    }
    cpu.utilization[i] = node.util[i];
    cpu.die_temperature[i] = die_temp[i];
    cpu.power_valid[i] = 0;
  }

  // Pass 2 — fan duty latch + rotor dynamics (FanDevice::step). The BMC
  // override wins over the chip's PWM pin, as on real servers. The smoothing
  // factor is a function of dt alone; computing it per range call instead of
  // caching it per device avoids cross-shard mutable state.
  const double alpha = hw::fan_rotor_alpha(fan, dtv);
  const hw::ChipColumns& chip = fleet_.chip;
  for (std::size_t i = begin; i < end; ++i) {
    const double duty =
        (node.bmc_override_set[i] != 0) ? node.bmc_override_duty[i] : chip.output_duty_pct[i];
    fans.duty_pct[i] = duty;
    fans.rpm[i] = hw::fan_rotor_step(fan, fans.rpm[i], duty, fans.stuck[i] != 0, alpha);
  }

  // Pass 3 — CPU power into the thermal batch (PackageModel::set_cpu_power).
  // The memo was invalidated in pass 1, so live nodes recompute it; a halted
  // node feeds a 2 W trickle and leaves its memo invalid.
  for (std::size_t i = begin; i < end; ++i) {
    die_power[i] = (node.halted[i] != 0) ? 2.0 : cpu_power_w(i);
  }

  // Pass 4 — airflow → convection resistance (PackageModel::set_airflow's
  // skip-if-unchanged memo; a settled rotor makes steady steps free).
  const thermal::ConvectionModel convection{params_.package.convection};
  const thermal::EdgeId hs_amb = fleet_.wiring().hs_amb;
  thermal::AirflowColumns& airflow = fleet_.airflow;
  for (std::size_t i = begin; i < end; ++i) {
    const double af = hw::fan_airflow_cfm(fan, fans.rpm[i]);
    if (airflow.set[i] != 0 && af == airflow.cfm[i]) {
      continue;
    }
    airflow.cfm[i] = af;
    airflow.set[i] = 1;
    batch.set_resistance(i, hs_amb, convection.resistance(Cfm{af}));
  }
}

void FleetSweep::post_range(std::size_t begin, std::size_t end, Seconds dt) {
  const double dtv = dt.value();
  const hw::FanParams fan = params_.fan;
  const hw::PowerMeterParams meter = params_.meter;
  const ProtectionParams protection = params_.protection;
  const double* die_temp = fleet_.batch().temperature_cell(0, fleet_.wiring().die);
  hw::CpuColumns& cpu = fleet_.cpu;
  hw::ChipColumns& chip = fleet_.chip;
  const hw::FanColumns& fans = fleet_.fan;
  NodeColumns& node = fleet_.node;

  // Pass 1 — chip temperature register (Adt7467::set_measured_temperature's
  // early-out). Sub-degree drift never moves the int8 register; when it does
  // move, the register object re-runs the auto curve (and PWM mirror) itself.
  for (std::size_t i = begin; i < end; ++i) {
    const double die = die_temp[i];
    if (hw::adt7467_temp_register(die) != chip.temp_remote1[i]) {
      nodes_[i]->fan_chip().set_measured_temperature(Celsius{die});
    }
  }

  // Pass 2 — chip tach latch (Adt7467::set_measured_rpm).
  for (std::size_t i = begin; i < end; ++i) {
    hw::adt7467_latch_tach(fans.rpm[i], chip.last_measured_rpm[i], chip.tach1[i]);
  }

  // Pass 3 — meter integration + hardware counters. cpu_power_w resolves
  // the memo: valid from pre for live nodes, recomputed here for halted ones
  // (whose pre pass fed the trickle instead).
  hw::MeterColumns& meters = fleet_.meter;
  const hw::IdleColumns& idle = fleet_.idle;
  for (std::size_t i = begin; i < end; ++i) {
    const double p_cpu = cpu_power_w(i);
    hw::meter_integrate(meter, p_cpu + hw::fan_power_w(fan, fans.rpm[i]), dtv,
                        meters.energy_joules[i], meters.elapsed_seconds[i]);
    const double eff = hw::cpu_effective_ghz(params_.cpu, cpu.pstate[i], cpu.throttled[i] != 0);
    hw::advance_cpu_counters(params_.cpu, eff, cpu.utilization[i], idle.throughput_factor[i],
                             p_cpu, dtv, cpu.aperf[i], cpu.mperf[i], cpu.energy_uj[i],
                             cpu.aperf_frac[i], cpu.mperf_frac[i], cpu.energy_frac[i]);
  }

  // Pass 4 — PROCHOT accounting, the protection ladder and /proc/stat jiffy
  // accounting at USER_HZ with fractional carry. prochot_seconds accrues on
  // the *pre-protection* throttle state.
  for (std::size_t i = begin; i < end; ++i) {
    if (cpu.throttled[i] != 0) {
      node.prochot_seconds[i] += dtv;
    }
    const Celsius die{die_temp[i]};
    if (protection.critical_enabled && die >= protection.critical && node.halted[i] == 0) {
      node.halted[i] = 1;
      THERMCTL_LOG_WARN("node", "node %d THERMTRIP at %.1f C — halted", nodes_[i]->id(),
                        die.value());
    }
    if (protection.prochot_enabled) {
      if (cpu.throttled[i] == 0 && die >= protection.prochot) {
        cpu.throttled[i] = 1;
        cpu.power_valid[i] = 0;  // set_thermal_throttle invalidates the memo
        ++node.prochot_events[i];
        THERMCTL_LOG_INFO("node", "node %d PROCHOT asserted at %.1f C", nodes_[i]->id(),
                          die.value());
      } else if (cpu.throttled[i] != 0 &&
                 die <= protection.prochot - protection.prochot_hysteresis) {
        cpu.throttled[i] = 0;
        cpu.power_valid[i] = 0;
        THERMCTL_LOG_INFO("node", "node %d PROCHOT released at %.1f C", nodes_[i]->id(),
                          die.value());
      }
    }

    node.jiffy_rem_busy[i] += node.util[i] * dtv * 100.0;
    node.jiffy_rem_total[i] += dtv * 100.0;
    const auto busy_whole = static_cast<std::uint64_t>(node.jiffy_rem_busy[i]);
    const auto total_whole = static_cast<std::uint64_t>(node.jiffy_rem_total[i]);
    node.busy_jiffies[i] += busy_whole;
    node.total_jiffies[i] += total_whole;
    node.jiffy_rem_busy[i] -= static_cast<double>(busy_whole);
    node.jiffy_rem_total[i] -= static_cast<double>(total_whole);
  }
}

std::uint64_t FleetSweep::sample_range(std::size_t begin, std::size_t end, SimTime after) {
  std::uint64_t samples = 0;
  PeriodicSchedule* schedule = fleet_.node.sample_schedule.data();
  for (std::size_t i = begin; i < end; ++i) {
    while (schedule[i].due(after)) {
      nodes_[i]->sample_sensor();
      ++samples;
    }
  }
  return samples;
}

}  // namespace thermctl::cluster
