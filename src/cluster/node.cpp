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
    : fleet_(fleet),
      id_(id),
      params_(params),
      slot_(slot),
      cpu_(params.cpu, fleet.cpu, fleet.idle, slot),
      fan_(params.fan, fleet.fan, slot),
      chip_(fleet.chip, slot),
      package_(params.package, fleet.batch(), fleet.airflow, slot),
      sensor_([this] { return package_.die_temperature(); }, params.sensor,
              Rng{params.seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(id) + 1},
              fleet.sensor_last, slot),
      meter_([this] { return Watts{cpu_.power().value() + fan_.power().value()}; },
             params.meter, fleet.meter, slot),
      driver_(i2c_) {
  sample_schedule() =
      PeriodicSchedule{static_cast<std::int64_t>(params.sample_period.value() * 1e6)};
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
    NodeColumns& node = fleet_.node;
    if (duty.has_value()) {
      node.bmc_override_duty[slot_] = duty->percent();
      node.bmc_override_set[slot_] = 1;
    } else {
      node.bmc_override_set[slot_] = 0;
    }
  });

  // Start the fan at the chip's automatic-curve output for the initial
  // (ambient) temperature, as the BIOS would have left it.
  chip_.set_measured_temperature(package_.die_temperature());
  fan_.set_duty(chip_.output_duty());
  fan_.settle();
  package_.set_airflow(fan_.airflow());
}

void Node::set_utilization(Utilization u) {
  fleet_.node.util[slot_] = halted() ? 0.0 : u.fraction();
}

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
      cpu_.set_utilization(utilization());
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
      fan_.set_duty(fleet_.node.bmc_override_set[slot_] != 0
                        ? DutyCycle{fleet_.node.bmc_override_duty[slot_]}
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
