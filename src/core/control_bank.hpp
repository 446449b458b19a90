// ControlBank — batched controller sweeps over a fleet.
//
// At fleet scale the control path is dominated not by control *math* but by
// dispatch overhead: one periodic closure per node and one VirtualFs round
// trip per sensor read. A ControlBank holds a fleet's controllers of one
// family (fan / tDVFS / unified) in one vector, each controller owning its
// own TwoLevelWindow, and ticks the whole family from ONE periodic callback:
//
//   1. latch reading = round(sensor_last[i] · 1000) / 1000  — exactly the
//      millidegree quantization the hwmon temp1_input attribute performs, so
//      the latched read is bit-identical to a controller's own VFS read;
//   2. run controller i's on_sample_with(now, reading) — the same tick logic
//      as N independent periodics.
//
// Both steps run per node range through runtime::for_each_shard: inside a
// sharded engine's run() each of the engine's shards latches and ticks its
// own contiguous range on its own thread, and with no shard scope installed
// (a serial engine, a bank ticked by hand) one range covers the family in
// node order. A tick reads only its node's latched reading and writes only
// that node's state, so the results are the same for any partition.
//
// The unit tests hold every family tick to bit-identity with standalone
// controllers reading hwmon temp1_input, on sensors bound into one latched
// row, including nodes whose window geometry differs from their
// neighbours'.
#pragma once

#include <cstddef>
#include <vector>

#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "core/unified_controller.hpp"

namespace thermctl::core {

class ControlBank {
 public:
  /// `sensor_last` is the fleet's node-major array of raw sensor
  /// sample-and-hold values (FleetState::sensor_last_data()): node i's
  /// controllers read slot i. Must not be null.
  ControlBank(std::size_t nodes, const double* sensor_last);

  ControlBank(const ControlBank&) = delete;
  ControlBank& operator=(const ControlBank&) = delete;

  /// Controllers must be emplaced densely in ascending node order (node ==
  /// number already emplaced in that family) and below nodes(), so a family
  /// never reallocates and returned references stay valid.
  DynamicFanController& emplace_fan(std::size_t node, sysfs::HwmonDevice& hwmon,
                                    const FanControlConfig& config);
  TdvfsDaemon& emplace_tdvfs(std::size_t node, sysfs::HwmonDevice& hwmon,
                             sysfs::CpufreqPolicy& cpufreq, const TdvfsConfig& config);
  UnifiedController& emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                     sysfs::CpufreqPolicy& cpufreq, const UnifiedConfig& config);
  UnifiedController& emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                     sysfs::CpufreqPolicy& cpufreq,
                                     sysfs::PowerClampDevice& clamp, const UnifiedConfig& config);

  /// One family tick — call from a single periodic at the sampling rate.
  void tick_fans(SimTime now);
  void tick_tdvfs(SimTime now);
  void tick_unified(SimTime now);

  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] std::size_t fan_count() const { return fans_.size(); }
  [[nodiscard]] std::size_t tdvfs_count() const { return tdvfs_.size(); }
  [[nodiscard]] std::size_t unified_count() const { return unified_.size(); }
  [[nodiscard]] DynamicFanController& fan(std::size_t i) { return fans_[i]; }
  [[nodiscard]] TdvfsDaemon& tdvfs(std::size_t i) { return tdvfs_[i]; }
  [[nodiscard]] UnifiedController& unified(std::size_t i) { return unified_[i]; }

 private:
  /// Checks that `node` is the next dense slot of a family of `size`.
  void check_slot(std::size_t node, std::size_t size) const;

  /// Latches each of the first `family.size()` sensor readings and ticks
  /// that node's controller on it, one shard range at a time
  /// (runtime::for_each_shard).
  template <typename Controller>
  void tick_family(std::vector<Controller>& family, SimTime now);

  std::size_t nodes_ = 0;
  const double* sensor_last_ = nullptr;
  std::vector<DynamicFanController> fans_;
  std::vector<TdvfsDaemon> tdvfs_;
  std::vector<UnifiedController> unified_;
};

}  // namespace thermctl::core
