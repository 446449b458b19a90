// A simulated cluster node.
//
// Composes the full hardware + OS stack of one machine in the paper's
// power-aware cluster:
//
//   workload utilization ─▶ CpuDevice ─▶ power ─▶ PackageModel (RC thermal)
//                                             ▲            │ die temperature
//   FanDevice ◀─ PWM ─ Adt7467 ◀═ i2c ═ Adt7467Driver      ▼
//        │ airflow ────────────────────────▶ convection   ThermalSensor (4 Hz)
//        └ tach ──▶ Adt7467                                 │
//   PowerMeter (wall) ◀─ CPU + fan power                    ▼
//   VirtualFs: /sys cpufreq + hwmon          controllers read here
//   BmcEndpoint: IPMI sensors + fan override (out-of-band plane)
//
// The node also models the hardware protection ladder the controllers are
// trying to stay clear of: PROCHOT clock throttling above `prochot`, and a
// THERMTRIP-style halt above `critical` (counts as a thermal emergency /
// availability loss).
//
// A Node's hot state lives in a FleetState slot (fleet_state.hpp): a
// cluster's nodes share one fleet, and a standalone Node owns a one-slot
// fleet of its own. The Node is a view over that slot, and Node::step is the
// fleet's per-node step (FleetSweep's passes around the batched RC solve)
// over that one slot: a standalone Node owns a one-node FleetSweep, a
// cluster node uses its cluster's. The device objects and the sweep call the
// same device formulas, so the object API and the step agree bit for bit.
//
// Settling (experiment priming) alternates device stages with equilibrium
// solves of the node's package column. Cluster::settle_all runs each stage
// over every node and solves the whole fleet batch in between, which leaves
// each node with the same bits as settling it alone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "cluster/fleet_state.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/fan_device.hpp"
#include "hw/i2c.hpp"
#include "hw/power_meter.hpp"
#include "hw/thermal_sensor.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/ipmi.hpp"
#include "sysfs/powercap.hpp"
#include "sysfs/powerclamp.hpp"
#include "sysfs/proc_stat.hpp"
#include "sysfs/vfs.hpp"
#include "thermal/package_model.hpp"

namespace thermctl::cluster {

class FleetSweep;

struct ProtectionParams {
  /// PROCHOT assertion temperature (clock throttle, self-clearing).
  Celsius prochot{78.0};
  CelsiusDelta prochot_hysteresis{3.0};
  bool prochot_enabled = true;
  /// THERMTRIP halt temperature (node goes down until cleared).
  Celsius critical{90.0};
  bool critical_enabled = true;
};

struct NodeParams {
  hw::CpuParams cpu{};
  hw::FanParams fan{};
  hw::SensorParams sensor{};
  thermal::PackageParams package{};
  hw::PowerMeterParams meter{};
  ProtectionParams protection{};
  /// Sensor sampling period (paper: 4 samples per second).
  Seconds sample_period{0.25};
  std::uint64_t seed = 1;
};

class Node {
 public:
  /// Standalone node: a view over a one-slot FleetState of its own, stepped
  /// by a one-node FleetSweep of its own. (Cluster builds its nodes over its
  /// shared fleet and hands them its sweep.)
  Node(int id, const NodeParams& params);
  ~Node();

  [[nodiscard]] int id() const { return id_; }

  // ---- physics loop (driven by the engine) ----

  /// Sets the utilization the workload imposes for the next step.
  void set_utilization(Utilization u);
  [[nodiscard]] Utilization utilization() const { return Utilization{*util_}; }

  /// Advances devices, thermal model, protection and meters by `dt`: the
  /// fleet sweep's pre pass, RC solve and post pass over this node's slot
  /// only (the engine runs the same passes over whole shards).
  void step(Seconds dt);

  /// Takes a thermal-sensor reading (called on the 4 Hz schedule).
  Celsius sample_sensor() { return sensor_.sample(); }
  [[nodiscard]] const PeriodicSchedule& sample_schedule() const { return *sample_schedule_; }
  PeriodicSchedule& sample_schedule() { return *sample_schedule_; }

  // ---- state the experiments observe ----
  [[nodiscard]] Celsius die_temperature() const { return package_.die_temperature(); }
  [[nodiscard]] Celsius sensor_reading() const { return sensor_.last_reading(); }
  [[nodiscard]] GigaHertz effective_frequency() const { return cpu_.effective_frequency(); }
  /// Metered AC wall power — what meter().read() displays.
  [[nodiscard]] Watts wall_power() const;

  /// /proc/stat-style cumulative counters at USER_HZ (100 jiffies/second);
  /// utilization governors diff these, exactly like the real daemon.
  [[nodiscard]] std::uint64_t busy_jiffies() const { return *busy_jiffies_; }
  [[nodiscard]] std::uint64_t total_jiffies() const { return *total_jiffies_; }

  [[nodiscard]] bool prochot_active() const { return cpu_.thermal_throttled(); }
  [[nodiscard]] int prochot_events() const { return *prochot_events_; }
  [[nodiscard]] Seconds prochot_time() const { return Seconds{*prochot_seconds_}; }
  [[nodiscard]] bool halted() const { return *halted_ != 0; }
  /// Clears a THERMTRIP halt (operator power-cycles the node).
  void clear_halt() { *halted_ = 0; }

  // ---- subsystem access for wiring controllers ----
  [[nodiscard]] hw::CpuDevice& cpu() { return cpu_; }
  [[nodiscard]] const hw::CpuDevice& cpu() const { return cpu_; }
  [[nodiscard]] hw::FanDevice& fan() { return fan_; }
  [[nodiscard]] hw::Adt7467& fan_chip() { return chip_; }
  [[nodiscard]] hw::I2cBus& i2c() { return i2c_; }
  [[nodiscard]] hw::PowerMeter& meter() { return meter_; }
  [[nodiscard]] const hw::PowerMeter& meter() const { return meter_; }
  [[nodiscard]] thermal::PackageModel& package() { return package_; }
  [[nodiscard]] hw::ThermalSensor& sensor() { return sensor_; }
  [[nodiscard]] sysfs::VirtualFs& vfs() { return vfs_; }
  [[nodiscard]] sysfs::Adt7467Driver& fan_driver() { return driver_; }
  [[nodiscard]] const sysfs::Adt7467Driver& fan_driver() const { return driver_; }
  [[nodiscard]] sysfs::CpufreqPolicy& cpufreq() { return *cpufreq_; }
  [[nodiscard]] sysfs::HwmonDevice& hwmon() { return *hwmon_; }
  [[nodiscard]] sysfs::PowerClampDevice& powerclamp() { return *clamp_; }
  [[nodiscard]] sysfs::RaplDomain& rapl() { return *rapl_; }
  [[nodiscard]] sysfs::ProcStat& proc_stat() { return *proc_stat_; }
  [[nodiscard]] sysfs::BmcEndpoint& bmc() { return bmc_; }

  /// Brings the node to thermal equilibrium at the current load (experiment
  /// priming: the machine has been idling before the job starts). Runs the
  /// settle stages with an equilibrium solve of the node's package between
  /// consecutive stages; logs a warning if a solve hit its iteration cap.
  void settle();

 private:
  friend class Cluster;  // builds nodes over its fleet, settles it stage by stage

  /// Device work around the package solves: stage 0 loads the CPU power and
  /// the fan's steady airflow, stage 1 refreshes leakage at the settled
  /// temperature, stage 2 moves the fan to the chip curve (or BMC override)
  /// and stage 3 updates the chip inputs and samples the sensor. Settling is
  /// stage 0, solve, stage 1, solve, stage 2, solve, stage 3; a stage only
  /// touches this node's own slot, so Cluster::settle_all may run each stage
  /// over every node and solve the whole fleet at once in between.
  void settle_stage(int stage);
  static constexpr int kSettleStages = 4;

  Node(int id, const NodeParams& params, std::unique_ptr<FleetState> owned);
  /// Cluster node: a view over `fleet`'s SoA arrays at `slot`. The fleet
  /// must have been built from `params.package` and outlive the node; Cluster
  /// sets sweep_ once its sweep exists.
  Node(int id, const NodeParams& params, FleetState& fleet, std::size_t slot);

  std::unique_ptr<FleetState> owned_fleet_;  // set only for a standalone node
  int id_;
  NodeParams params_;
  std::size_t slot_;
  std::unique_ptr<FleetSweep> owned_sweep_;  // set only for a standalone node
  FleetSweep* sweep_ = nullptr;              // owned_sweep_, or set by Cluster
  hw::CpuDevice cpu_;
  hw::FanDevice fan_;
  hw::Adt7467 chip_;
  hw::I2cBus i2c_;
  thermal::PackageModel package_;
  hw::ThermalSensor sensor_;
  hw::PowerMeter meter_;
  sysfs::VirtualFs vfs_;
  sysfs::Adt7467Driver driver_;
  std::unique_ptr<sysfs::CpufreqPolicy> cpufreq_;
  std::unique_ptr<sysfs::HwmonDevice> hwmon_;
  std::unique_ptr<sysfs::PowerClampDevice> clamp_;
  std::unique_ptr<sysfs::RaplDomain> rapl_;
  std::unique_ptr<sysfs::ProcStat> proc_stat_;
  sysfs::BmcEndpoint bmc_;

  // OS/protection scalars live in the FleetState SoA arrays, so the sweep
  // can walk them contiguously; the accessors above read through these
  // pointers.
  PeriodicSchedule* sample_schedule_;
  double* util_;  // Utilization fraction
  std::uint64_t* busy_jiffies_;
  std::uint64_t* total_jiffies_;
  std::int32_t* prochot_events_;
  double* prochot_seconds_;
  std::uint8_t* halted_;
  double* bmc_override_duty_;  // percent; valid when the set flag != 0
  std::uint8_t* bmc_override_set_;
};

}  // namespace thermctl::cluster
