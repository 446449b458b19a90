#include "cluster/node.hpp"

#include "cluster/fleet_sweep.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::cluster {

Node::Node(int id, const NodeParams& params)
    : Node(id, params, std::make_unique<FleetState>(params.package, 1)) {}

Node::Node(int id, const NodeParams& params, std::unique_ptr<FleetState> owned)
    : Node(id, params, *owned, 0) {
  owned_fleet_ = std::move(owned);
  owned_sweep_ = std::make_unique<FleetSweep>(*owned_fleet_, params_, std::vector<Node*>{this});
  sweep_ = owned_sweep_.get();
}

Node::~Node() = default;

Node::Node(int id, const NodeParams& params, FleetState& fleet, std::size_t slot)
    : id_(id),
      params_(params),
      slot_(slot),
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

void Node::step(Seconds dt) {
  sweep_->pre_range(slot_, slot_ + 1, dt);
  package_.step(dt);
  sweep_->post_range(slot_, slot_ + 1, dt);
}

Watts Node::wall_power() const { return Watts{sweep_->wall_power_w(slot_)}; }

void Node::settle() {
  std::size_t capped = 0;
  for (int stage = 0; stage < kSettleStages; ++stage) {
    if (stage > 0) {
      capped += package_.settle();
    }
    settle_stage(stage);
  }
  if (capped != 0) {
    THERMCTL_LOG_WARN("node", "node %d: %zu equilibrium solves hit the iteration cap", id_,
                      capped);
  }
}

void Node::settle_stage(int stage) {
  switch (stage) {
    case 0:
      cpu_.set_utilization(Utilization{*util_});
      cpu_.set_die_temperature(package_.die_temperature());
      package_.set_cpu_power(cpu_.power());
      fan_.settle();
      package_.set_airflow(fan_.airflow());
      break;
    case 1:
      // One more pass so leakage (a function of the settled temperature) and
      // the chip's auto curve are consistent with the equilibrium.
      cpu_.set_die_temperature(package_.die_temperature());
      package_.set_cpu_power(cpu_.power());
      break;
    case 2:
      chip_.set_measured_temperature(package_.die_temperature());
      fan_.set_duty(*bmc_override_set_ != 0 ? DutyCycle{*bmc_override_duty_}
                                            : chip_.output_duty());
      fan_.settle();
      package_.set_airflow(fan_.airflow());
      break;
    case 3:
      chip_.set_measured_temperature(package_.die_temperature());
      chip_.set_measured_rpm(fan_.rpm());
      sensor_.sample();
      break;
    default:
      THERMCTL_ASSERT(false, "settle stage out of range");
  }
}

}  // namespace thermctl::cluster
