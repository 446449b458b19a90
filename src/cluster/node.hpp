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
// fleet of its own. The Node is a view over that slot.
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
  /// Standalone node: a view over a one-slot FleetState of its own.
  Node(int id, const NodeParams& params);
  /// Cluster node: a view over `fleet`'s SoA arrays at `slot`. The fleet
  /// must have been built from `params.package` and outlive the node.
  Node(int id, const NodeParams& params, FleetState& fleet, std::size_t slot);

  [[nodiscard]] int id() const { return id_; }

  // ---- physics loop (driven by the engine) ----

  /// Sets the utilization the workload imposes for the next step.
  void set_utilization(Utilization u);
  [[nodiscard]] Utilization utilization() const { return Utilization{*util_}; }

  /// Advances devices, thermal model, protection and meters by `dt`. The
  /// single-node API, and the reference arithmetic FleetSweep's batched
  /// passes reproduce bit-for-bit (the engine steps clusters through the
  /// sweep, never through this).
  void step(Seconds dt);

  /// Takes a thermal-sensor reading (called on the 4 Hz schedule).
  Celsius sample_sensor() { return sensor_.sample(); }
  [[nodiscard]] const PeriodicSchedule& sample_schedule() const { return *sample_schedule_; }
  PeriodicSchedule& sample_schedule() { return *sample_schedule_; }

  // ---- state the experiments observe ----
  [[nodiscard]] Celsius die_temperature() const { return package_.die_temperature(); }
  [[nodiscard]] Celsius sensor_reading() const { return sensor_.last_reading(); }
  [[nodiscard]] GigaHertz effective_frequency() const { return cpu_.effective_frequency(); }
  /// DC-side component power sum (what the meter's dc_load supplier returns).
  [[nodiscard]] Watts dc_power() const { return Watts{cpu_.power().value() + fan_.power().value()}; }
  /// Metered AC wall power — meter().read() minus the supplier indirection.
  [[nodiscard]] Watts wall_power() const { return meter_.read_with(dc_power()); }

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
  /// priming: the machine has been idling before the job starts).
  void settle();

 private:
  Node(int id, const NodeParams& params, std::unique_ptr<FleetState> owned);

  void apply_protection(Celsius die);

  std::unique_ptr<FleetState> owned_fleet_;  // set only for a standalone node
  int id_;
  NodeParams params_;
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

  // OS/protection scalars live in the FleetState SoA arrays, so the batched
  // sweep can walk them contiguously; the accessors above read through these
  // pointers.
  PeriodicSchedule* sample_schedule_;
  double* util_;  // Utilization fraction
  std::uint64_t* busy_jiffies_;
  std::uint64_t* total_jiffies_;
  double* jiffy_remainder_busy_;
  double* jiffy_remainder_total_;
  std::int32_t* prochot_events_;
  double* prochot_seconds_;
  std::uint8_t* halted_;
  double* bmc_override_duty_;  // percent; valid when the set flag != 0
  std::uint8_t* bmc_override_set_;
};

}  // namespace thermctl::cluster
