#include "cluster/node.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::cluster {

Node::Node(int id, const NodeParams& params)
    : Node(id, params, std::make_unique<FleetState>(params.package, 1)) {}

Node::Node(int id, const NodeParams& params, std::unique_ptr<FleetState> owned)
    : Node(id, params, *owned, 0) {
  owned_fleet_ = std::move(owned);
}

Node::Node(int id, const NodeParams& params, FleetState& fleet, std::size_t slot)
    : id_(id),
      params_(params),
      cpu_(params.cpu),
      fan_(params.fan),
      package_(params.package, fleet.batch(), slot, fleet.airflow_slot(slot),
               fleet.airflow_set_slot(slot)),
      sensor_([this] { return package_.die_temperature(); }, params.sensor,
              Rng{params.seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(id) + 1}),
      meter_([this] { return Watts{cpu_.power().value() + fan_.power().value()}; },
             params.meter),
      driver_(i2c_),
      sample_schedule_(fleet.sample_schedule_slot(slot)),
      util_(fleet.util_slot(slot)),
      busy_jiffies_(fleet.busy_jiffies_slot(slot)),
      total_jiffies_(fleet.total_jiffies_slot(slot)),
      jiffy_remainder_busy_(fleet.jiffy_rem_busy_slot(slot)),
      jiffy_remainder_total_(fleet.jiffy_rem_total_slot(slot)),
      prochot_events_(fleet.prochot_events_slot(slot)),
      prochot_seconds_(fleet.prochot_seconds_slot(slot)),
      halted_(fleet.halted_slot(slot)),
      bmc_override_duty_(fleet.bmc_override_duty_slot(slot)),
      bmc_override_set_(fleet.bmc_override_set_slot(slot)) {
  *sample_schedule_ =
      PeriodicSchedule{static_cast<std::int64_t>(params.sample_period.value() * 1e6)};
  // Hot device state moves into the fleet's SoA arrays before first use, so
  // the batched sweep and the per-object API share one storage.
  fan_.bind_state(fleet.fan_duty_slot(slot), fleet.fan_rpm_slot(slot),
                  fleet.fan_stuck_slot(slot));
  sensor_.bind_state(fleet.sensor_last_slot(slot));
  cpu_.bind_state(fleet.cpu_slots(slot));
  chip_.bind_state(fleet.chip_slots(slot));
  meter_.bind_state(fleet.meter_energy_slot(slot), fleet.meter_elapsed_slot(slot));
  i2c_.attach(sysfs::Adt7467Driver::kDefaultAddress, &chip_);

  // In-band plane: cpufreq + hwmon sysfs trees.
  cpufreq_ = std::make_unique<sysfs::CpufreqPolicy>(vfs_, "/sys/devices/system/cpu", 0, cpu_);

  // The fan driver must probe before the hwmon binding can drive PWM. The
  // probe leaves the chip in manual behaviour; restore the BIOS default
  // (automatic mode) — a controller that wants manual PWM claims it
  // explicitly through pwm1_enable.
  const auto probe = driver_.probe();
  THERMCTL_ASSERT(probe == sysfs::DriverStatus::kOk, "ADT7467 probe failed");
  const auto restore = driver_.set_automatic_mode();
  THERMCTL_ASSERT(restore == sysfs::DriverStatus::kOk, "ADT7467 mode restore failed");
  hwmon_ = std::make_unique<sysfs::HwmonDevice>(vfs_, "/sys/class/hwmon", 0, sensor_, driver_);
  clamp_ = std::make_unique<sysfs::PowerClampDevice>(vfs_, "/sys/class/thermal", 0, cpu_);
  rapl_ = std::make_unique<sysfs::RaplDomain>(vfs_, "/sys/class/powercap", 0, cpu_);
  proc_stat_ = std::make_unique<sysfs::ProcStat>(
      vfs_, [this] { return busy_jiffies(); }, [this] { return total_jiffies(); });

  // Out-of-band plane: BMC sensors + fan override.
  bmc_.add_sensor("CPU Temp", "degrees C", [this] { return sensor_.last_reading().value(); });
  bmc_.add_sensor("Fan1", "RPM", [this] { return fan_.rpm().value(); });
  bmc_.add_sensor("System Power", "Watts", [this] { return meter_.read().value(); });
  bmc_.set_fan_override_handler([this](std::optional<DutyCycle> duty) {
    if (duty.has_value()) {
      *bmc_override_duty_ = duty->percent();
      *bmc_override_set_ = 1;
    } else {
      *bmc_override_set_ = 0;
    }
  });

  // Start the fan at the chip's automatic-curve output for the initial
  // (ambient) temperature, as the BIOS would have left it.
  chip_.set_measured_temperature(package_.die_temperature());
  fan_.set_duty(chip_.output_duty());
  fan_.settle();
  package_.set_airflow(fan_.airflow());
}

void Node::set_utilization(Utilization u) { *util_ = halted() ? 0.0 : u.fraction(); }

void Node::apply_protection(Celsius die) {
  if (params_.protection.critical_enabled && die >= params_.protection.critical && !halted()) {
    *halted_ = 1;
    THERMCTL_LOG_WARN("node", "node %d THERMTRIP at %.1f C — halted", id_, die.value());
  }
  if (!params_.protection.prochot_enabled) {
    return;
  }
  if (!cpu_.thermal_throttled() && die >= params_.protection.prochot) {
    cpu_.set_thermal_throttle(true);
    ++*prochot_events_;
    THERMCTL_LOG_INFO("node", "node %d PROCHOT asserted at %.1f C", id_, die.value());
  } else if (cpu_.thermal_throttled() &&
             die <= params_.protection.prochot - params_.protection.prochot_hysteresis) {
    cpu_.set_thermal_throttle(false);
    THERMCTL_LOG_INFO("node", "node %d PROCHOT released at %.1f C", id_, die.value());
  }
}

void Node::step(Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  if (halted()) {
    *util_ = 0.0;
  }
  cpu_.set_utilization(Utilization{*util_});
  cpu_.set_die_temperature(package_.die_temperature());

  // The fan follows the chip's PWM pin unless the BMC has overridden it
  // (the out-of-band plane wins, as on real servers).
  fan_.set_duty(*bmc_override_set_ != 0 ? DutyCycle{*bmc_override_duty_}
                                        : chip_.output_duty());
  fan_.step(dt);

  package_.set_cpu_power(halted() ? Watts{2.0} : cpu_.power());  // halted: trickle
  package_.set_airflow(fan_.airflow());

  package_.step(dt);

  const Celsius die = package_.die_temperature();

  // The chip continuously tracks its remote diode and tach inputs.
  chip_.set_measured_temperature(die);
  chip_.set_measured_rpm(fan_.rpm());

  meter_.integrate_with(dt, dc_power());
  cpu_.advance_counters(dt);

  if (cpu_.thermal_throttled()) {
    *prochot_seconds_ += dt.value();
  }
  apply_protection(die);

  // /proc/stat accounting at USER_HZ with fractional carry.
  *jiffy_remainder_busy_ += *util_ * dt.value() * 100.0;
  *jiffy_remainder_total_ += dt.value() * 100.0;
  const auto busy_whole = static_cast<std::uint64_t>(*jiffy_remainder_busy_);
  const auto total_whole = static_cast<std::uint64_t>(*jiffy_remainder_total_);
  *busy_jiffies_ += busy_whole;
  *total_jiffies_ += total_whole;
  *jiffy_remainder_busy_ -= static_cast<double>(busy_whole);
  *jiffy_remainder_total_ -= static_cast<double>(total_whole);
}

void Node::settle() {
  cpu_.set_utilization(Utilization{*util_});
  cpu_.set_die_temperature(package_.die_temperature());
  package_.set_cpu_power(cpu_.power());
  fan_.settle();
  package_.set_airflow(fan_.airflow());
  package_.settle();
  // One more pass so leakage (a function of the settled temperature) and the
  // chip's auto curve are consistent with the equilibrium.
  cpu_.set_die_temperature(package_.die_temperature());
  package_.set_cpu_power(cpu_.power());
  package_.settle();
  chip_.set_measured_temperature(package_.die_temperature());
  fan_.set_duty(*bmc_override_set_ != 0 ? DutyCycle{*bmc_override_duty_}
                                        : chip_.output_duty());
  fan_.settle();
  package_.set_airflow(fan_.airflow());
  package_.settle();
  chip_.set_measured_temperature(package_.die_temperature());
  chip_.set_measured_rpm(fan_.rpm());
  sensor_.sample();
}

}  // namespace thermctl::cluster
