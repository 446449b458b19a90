// Fan-speed control policies (§4.2).
//
// Three policies from the paper's evaluation:
//
//  * DynamicFanController — the contribution: history-based, context-aware
//    PWM control through the two-level window + thermal control array. Duty
//    modes are the integers 1..max% (the paper discretizes the continuous
//    fan speed into 100 distinct speeds); effectiveness ascends with duty.
//
//  * StaticFanPolicy — the "traditional" baseline: the ADT7467's automatic
//    curve (Fig. 1), PWMmin=10% below Tmin=38 °C rising linearly to 100% at
//    Tmax=82 °C, optionally capped at a maximum duty.
//
//  * ConstantFanPolicy — fixed duty (the paper uses 75%), the
//    coolest-but-most-power reference in Fig. 6.
//
// All three actuate through the sysfs/hwmon + i2c driver path, never by
// touching the FanDevice directly. A DynamicFanController owns its window
// by value, so it is movable: a ControlBank keeps a fleet's controllers in
// one vector.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/sensor_health.hpp"
#include "core/two_level_window.hpp"
#include "obs/trace.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {

struct FanControlConfig {
  PolicyParam pp{};
  /// Thermal control array bound N (the paper's 100 distinct speeds).
  std::size_t array_size = 100;
  /// Physical duty range; max_duty emulates less powerful fans (Fig. 7).
  DutyCycle min_duty{1.0};
  DutyCycle max_duty{100.0};
  ModeSelectorConfig selector{};
  WindowConfig window{};
  /// Gate readings through a SensorHealthMonitor and fail safe (escalate to
  /// the array's most effective mode) on confirmed sensor failure. Off by
  /// default: the paper's controller trusts its sensor, and zero-fault runs
  /// must behave identically either way.
  bool fault_aware = false;
  SensorHealthConfig health{};
};

/// One controller retarget, for figure annotations and tests.
struct FanEvent {
  double time_s = 0.0;
  double from_duty = 0.0;
  double to_duty = 0.0;
  bool used_level2 = false;
};

class DynamicFanController {
 public:
  DynamicFanController(sysfs::HwmonDevice& hwmon, FanControlConfig config);

  /// Controller tick: consume the latest sensor sample; on a completed
  /// window round, maybe retarget the fan.
  void on_sample(SimTime now);

  /// on_sample with the reading supplied by the caller — the ControlBank
  /// batches the hwmon reads across a fleet and feeds each controller its
  /// own node's value. `reading` must equal what hwmon.read_temperature()
  /// would return at this tick; the tick logic is byte-for-byte the same.
  void on_sample_with(SimTime now, Celsius reading);

  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] DutyCycle current_duty() const;
  [[nodiscard]] const ThermalControlArray& array() const { return array_; }
  [[nodiscard]] const std::vector<FanEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t retarget_count() const { return retargets_; }

  /// Fail-safe cooling state (only ever true when `fault_aware` is set).
  [[nodiscard]] bool in_failsafe() const { return failsafe_; }
  [[nodiscard]] std::uint64_t failsafe_entries() const { return failsafe_entries_; }
  [[nodiscard]] std::uint64_t failsafe_exits() const { return failsafe_exits_; }
  /// The gating monitor, or nullptr when not fault-aware.
  [[nodiscard]] const SensorHealthMonitor* health() const {
    return health_.has_value() ? &*health_ : nullptr;
  }

  /// Re-tunes the policy parameter at runtime.
  void set_policy(PolicyParam pp);

  /// Attaches a decision-trace ring (nullptr detaches). Every window round,
  /// selector decision, PWM retarget, sensor classification, and fail-safe
  /// transition is then recorded; control behaviour is unchanged.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

  /// The sampling window (§3.2.1), owned by the controller.
  [[nodiscard]] const TwoLevelWindow& window() const { return window_; }

 private:
  static std::vector<double> duty_modes(const FanControlConfig& config);

  sysfs::HwmonDevice& hwmon_;
  FanControlConfig config_;
  ThermalControlArray array_;
  ModeSelector selector_;
  TwoLevelWindow window_;
  std::size_t index_ = 0;
  bool initialized_ = false;
  std::vector<FanEvent> events_;
  std::uint64_t retargets_ = 0;
  std::optional<SensorHealthMonitor> health_;
  bool failsafe_ = false;
  bool failsafe_applied_ = false;  // fail-safe duty reached the chip
  std::uint64_t failsafe_entries_ = 0;
  std::uint64_t failsafe_exits_ = 0;
  obs::TraceRing* trace_ = nullptr;
  bool last_sample_ok_ = true;  // edge detector for sensor-classification events
};

/// Applies the traditional static policy: programs the Fig. 1 curve into the
/// chip and hands PWM control to its automatic mode.
class StaticFanPolicy {
 public:
  struct Curve {
    DutyCycle pwm_min{10.0};
    Celsius tmin{38.0};
    Celsius tmax{82.0};
  };

  StaticFanPolicy(sysfs::Adt7467Driver& driver, Curve curve, DutyCycle max_duty);

  /// Writes the configuration; returns false on an i2c failure.
  bool apply();

  [[nodiscard]] const Curve& curve() const { return curve_; }

 private:
  sysfs::Adt7467Driver& driver_;
  Curve curve_;
  DutyCycle max_duty_;
};

/// Pins the fan at a fixed duty through the manual-mode path.
class ConstantFanPolicy {
 public:
  ConstantFanPolicy(sysfs::HwmonDevice& hwmon, DutyCycle duty);
  bool apply();

 private:
  sysfs::HwmonDevice& hwmon_;
  DutyCycle duty_;
};

}  // namespace thermctl::core
