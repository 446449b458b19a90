// The per-node step as a sequence of device-method calls, kept as the test
// reference FleetSweep is held to.
//
// This is the orchestration Node::step ran as an object walk before it
// became the sweep over one slot: every device is driven through its own
// API (CpuDevice, FanDevice, Adt7467, PowerMeter, PackageModel), in the
// per-node order of the original. The node-level scalars that have no device
// (utilization latch, halt and PROCHOT state, jiffy counters, BMC override)
// are read and written through the node's FleetState slot. FleetSweep's
// contract is bitwise agreement with this reference under the same call
// sequence.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/fleet_state.hpp"
#include "cluster/node.hpp"
#include "common/units.hpp"

namespace thermctl::cluster {

/// Steps `node`, the view over `fleet`'s slot `slot` built from `params`, by
/// `dt` seconds.
inline void reference_node_step(Node& node, FleetState& fleet, std::size_t slot,
                                const NodeParams& params, Seconds dt) {
  double& util = *fleet.util_slot(slot);
  std::uint8_t& halted = *fleet.halted_slot(slot);
  hw::CpuDevice& cpu = node.cpu();
  hw::FanDevice& fan = node.fan();
  hw::Adt7467& chip = node.fan_chip();
  thermal::PackageModel& package = node.package();

  if (halted != 0) {
    util = 0.0;
  }
  cpu.set_utilization(Utilization{util});
  cpu.set_die_temperature(package.die_temperature());

  // The BMC override wins over the chip's PWM pin.
  fan.set_duty(*fleet.bmc_override_set_slot(slot) != 0
                   ? DutyCycle{*fleet.bmc_override_duty_slot(slot)}
                   : chip.output_duty());
  fan.step(dt);

  package.set_cpu_power(halted != 0 ? Watts{2.0} : cpu.power());  // halted: trickle
  package.set_airflow(fan.airflow());
  package.step(dt);

  const Celsius die = package.die_temperature();
  chip.set_measured_temperature(die);
  chip.set_measured_rpm(fan.rpm());

  node.meter().integrate_with(dt, Watts{cpu.power().value() + fan.power().value()});
  cpu.advance_counters(dt);

  if (cpu.thermal_throttled()) {
    *fleet.prochot_seconds_slot(slot) += dt.value();
  }
  const ProtectionParams& prot = params.protection;
  if (prot.critical_enabled && die >= prot.critical && halted == 0) {
    halted = 1;
  }
  if (prot.prochot_enabled) {
    if (!cpu.thermal_throttled() && die >= prot.prochot) {
      cpu.set_thermal_throttle(true);
      ++*fleet.prochot_events_slot(slot);
    } else if (cpu.thermal_throttled() && die <= prot.prochot - prot.prochot_hysteresis) {
      cpu.set_thermal_throttle(false);
    }
  }

  // /proc/stat accounting at USER_HZ with fractional carry.
  double& rem_busy = fleet.jiffy_rem_busy_data()[slot];
  double& rem_total = fleet.jiffy_rem_total_data()[slot];
  rem_busy += util * dt.value() * 100.0;
  rem_total += dt.value() * 100.0;
  const auto busy_whole = static_cast<std::uint64_t>(rem_busy);
  const auto total_whole = static_cast<std::uint64_t>(rem_total);
  *fleet.busy_jiffies_slot(slot) += busy_whole;
  *fleet.total_jiffies_slot(slot) += total_whole;
  rem_busy -= static_cast<double>(busy_whole);
  rem_total -= static_cast<double>(total_whole);
}

/// Node::wall_power() through the device objects: the meter's display of
/// the CPU + fan component sum.
inline double reference_wall_power_w(Node& node) {
  return node.meter()
      .read_with(Watts{node.cpu().power().value() + node.fan().power().value()})
      .value();
}

}  // namespace thermctl::cluster
