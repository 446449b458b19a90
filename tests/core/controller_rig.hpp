// Shared fixture for controller unit tests: a full sysfs plane (hwmon +
// cpufreq) over simulated devices, with a hand-controlled "true" temperature
// so tests can script exact thermal scenarios without running the RC model.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/i2c.hpp"
#include "hw/thermal_sensor.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::core::testing {

struct ControllerRig {
  sysfs::VirtualFs fs;
  hw::I2cBus bus;
  hw::Adt7467 chip;
  hw::CpuDevice cpu;
  sysfs::Adt7467Driver driver{bus};
  double truth = 40.0;  // scripted die temperature
  hw::ThermalSensor sensor;
  std::unique_ptr<sysfs::HwmonDevice> hwmon;
  std::unique_ptr<sysfs::CpufreqPolicy> cpufreq;

  /// Noise-free sensor at the default ADC step (deterministic tests).
  static hw::SensorParams quiet_sensor() {
    hw::SensorParams p;
    p.noise_sigma_degc = 0.0;
    return p;
  }

  explicit ControllerRig(hw::SensorParams sensor_params = quiet_sensor())
      : sensor{[this] { return Celsius{truth}; }, sensor_params, Rng{1}} {
    wire();
  }

  /// A rig whose sensor holds its reading in slot `slot` of `row` (a
  /// fleet-style sample-and-hold column) instead of a column of its own.
  ControllerRig(hw::SensorParams sensor_params, std::vector<double>& row, std::size_t slot)
      : sensor{[this] { return Celsius{truth}; }, sensor_params, Rng{1}, row, slot} {
    wire();
  }

  /// Probes the chip and mounts hwmon and cpufreq over the devices.
  void wire() {
    bus.attach(sysfs::Adt7467Driver::kDefaultAddress, &chip);
    if (driver.probe() != sysfs::DriverStatus::kOk) {
      abort();
    }
    hwmon = std::make_unique<sysfs::HwmonDevice>(fs, "/sys/class/hwmon", 0, sensor, driver);
    cpufreq =
        std::make_unique<sysfs::CpufreqPolicy>(fs, "/sys/devices/system/cpu", 0, cpu);
  }

  /// Feeds `temp` to the sensor (one 250 ms sample) and ticks `controller`.
  template <typename Controller>
  void tick(Controller& controller, double temp, SimTime now) {
    truth = temp;
    sensor.sample();
    controller.on_sample(now);
  }

  /// Runs `n` ticks at a fixed temperature, advancing a local clock.
  template <typename Controller>
  SimTime run_flat(Controller& controller, double temp, int n, SimTime start = {}) {
    SimTime now = start;
    for (int i = 0; i < n; ++i) {
      now.advance_us(250000);
      tick(controller, temp, now);
    }
    return now;
  }
};

}  // namespace thermctl::core::testing
