// Fleet-wide structure-of-arrays node state.
//
// One rack of N simulated machines could mean N pointer-chasing object
// graphs: every node with its own RC solver, its fan keeping its rotor state,
// its sensor keeping its sample-and-hold register. FleetState holds the hot
// per-node state in contiguous columns owned in one place:
//
//   * temperatures, power inputs, edge conductances, capacitances — inside an
//     RcBatch built from the shared package wiring (capacitances and
//     adjacency stored once, per-node state in node-major rows);
//   * one column set per device, declared by the device's own header:
//     hw::CpuColumns, hw::IdleColumns, hw::FanColumns, hw::ChipColumns,
//     hw::MeterColumns, the sensors' sample-and-hold column and the
//     packages' thermal::AirflowColumns;
//   * NodeColumns — the node-level scalars no device owns (utilization,
//     jiffy counters, protection state, BMC override, sampling schedule).
//
// Every Node lives in a FleetState: a Cluster's nodes share one, and a
// standalone Node owns a one-slot fleet. Each Node's PackageModel and device
// objects are views over the node's slot of these columns, so a field has
// one home: controllers and sysfs reach it through the device API, and the
// fleet's per-node step (FleetSweep, over whole shards from the engine or
// over one slot from Node::step) reads the columns directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/cstates.hpp"
#include "hw/fan_device.hpp"
#include "hw/power_meter.hpp"
#include "thermal/package_model.hpp"
#include "thermal/rc_batch.hpp"

namespace thermctl::cluster {

/// The node-level hot state no device owns, one slot per node.
struct NodeColumns {
  /// `n` slots, each at the power-on state: idle, no jiffies, no PROCHOT or
  /// THERMTRIP, no BMC override, an unset sampling schedule (Node sets it).
  explicit NodeColumns(std::size_t n);

  std::vector<double> util;  // utilization fraction the workload imposes
  // /proc/stat counters at USER_HZ and their fractional carries.
  std::vector<std::uint64_t> busy_jiffies;
  std::vector<std::uint64_t> total_jiffies;
  std::vector<double> jiffy_rem_busy;
  std::vector<double> jiffy_rem_total;
  // Protection ladder.
  std::vector<std::int32_t> prochot_events;
  std::vector<double> prochot_seconds;
  std::vector<std::uint8_t> halted;  // THERMTRIP
  // Out-of-band fan override: duty in percent, valid while the flag != 0.
  std::vector<double> bmc_override_duty;
  std::vector<std::uint8_t> bmc_override_set;
  std::vector<PeriodicSchedule> sample_schedule;
};

class FleetState {
 public:
  /// Allocates SoA state for `count` nodes sharing one package design, every
  /// slot at its devices' power-on state.
  FleetState(const thermal::PackageParams& package, std::size_t count);

  [[nodiscard]] std::size_t size() const { return batch_.instance_count(); }

  /// The batched RC solver every node's PackageModel views into.
  [[nodiscard]] thermal::RcBatch& batch() { return batch_; }
  [[nodiscard]] const thermal::RcBatch& batch() const { return batch_; }
  /// Handles into the shared die—heatsink—ambient wiring.
  [[nodiscard]] const thermal::PackageWiring& wiring() const { return wiring_; }

  /// The sensors' sample-and-hold row, node-major (the controller bank's
  /// input).
  [[nodiscard]] double* sensor_last_data() { return sensor_last.data(); }

  /// Heap footprint of the fleet's hot state (bytes): the RC batch plus the
  /// device and node columns. The scaling benchmark divides this by node
  /// count.
  [[nodiscard]] std::size_t memory_bytes() const;

  // Every slot's hot state, one column per field. The devices of node i
  // are views over slot i; FleetSweep walks the columns.
  hw::CpuColumns cpu;
  hw::IdleColumns idle;
  hw::FanColumns fan;
  hw::ChipColumns chip;
  hw::MeterColumns meter;
  std::vector<double> sensor_last;  // °C
  thermal::AirflowColumns airflow;
  NodeColumns node;

 private:
  thermal::PackageWiring wiring_{};  // written by make_batch, so it precedes batch_
  thermal::RcBatch batch_;
};

}  // namespace thermctl::cluster
