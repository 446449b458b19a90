// tDVFS — the temperature-aware DVFS daemon (§4.1, §4.3).
//
// The paper's in-band technique: "our strategy for DVFS control is not to
// scale down frequency unless necessary because low frequencies impact
// application performance ... we trigger frequency scaling when the
// temperature reaches a threshold." Concretely:
//
//  * scale DOWN only when the round-average temperature has been
//    *consistently* above the threshold (51 °C on the paper's platform) for
//    `consistency_rounds` window rounds — single hot rounds and jitter do
//    not trigger (the red-circled non-response in Fig. 8);
//  * how far down is governed by the same thermal control array / Pp
//    machinery as the fan (frequencies ordered fastest → slowest by
//    effectiveness), so one Pp steers both techniques;
//  * scale back UP to the original frequency once the average has been
//    consistently below (threshold − hysteresis), "so as to avoid
//    performance loss".
//
// Actuation goes through the cpufreq sysfs path; transition counts (Table 1)
// therefore come from the same `stats/total_trans` a real system reports.
// The daemon owns its window by value, so it is movable: a ControlBank
// keeps a fleet's daemons in one vector.
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
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {

struct TdvfsConfig {
  PolicyParam pp{};
  /// Trigger threshold (the paper's experiments use 51 °C).
  Celsius threshold{51.0};
  /// Scale back up once average temperature < threshold − hysteresis.
  CelsiusDelta hysteresis{2.0};
  /// Window rounds the average must stay above threshold to count as
  /// "consistent" (rounds are ~1 s at the paper's rates).
  int consistency_rounds = 3;
  /// Rounds below (threshold − hysteresis) before restoring the original
  /// frequency. Deliberately longer than the trigger consistency: restoring
  /// eagerly right after a down-scale causes down/up thrash, and transitions
  /// are the reliability cost Table 1 scores.
  int restore_rounds = 10;
  /// Thermal control array bound N for the frequency modes.
  std::size_t array_size = 16;
  ModeSelectorConfig selector{};
  WindowConfig window{};
  /// Gate readings through a SensorHealthMonitor and *hold* the current
  /// frequency on confirmed sensor failure: scaling on garbage would
  /// oscillate, and the fan's fail-safe already covers cooling. Off by
  /// default for bit-identical zero-fault behaviour.
  bool fault_aware = false;
  SensorHealthConfig health{};
};

struct TdvfsEvent {
  double time_s = 0.0;
  double from_ghz = 0.0;
  double to_ghz = 0.0;
};

class TdvfsDaemon {
 public:
  TdvfsDaemon(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq, TdvfsConfig config);

  /// Daemon tick (call at the sensor sampling rate).
  void on_sample(SimTime now);

  /// on_sample with the reading supplied by the caller (ControlBank batched
  /// path). `reading` must equal what hwmon.read_temperature() would return
  /// at this tick; the tick logic is byte-for-byte the same.
  void on_sample_with(SimTime now, Celsius reading);

  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] GigaHertz current_target() const;
  [[nodiscard]] const std::vector<TdvfsEvent>& events() const { return events_; }
  [[nodiscard]] const ThermalControlArray& array() const { return array_; }
  [[nodiscard]] const TdvfsConfig& config() const { return config_; }

  /// Round-average temperature of the most recently completed window round
  /// (nullopt until one completes). Read-only observability for the
  /// verification layer's coordination invariant: a trigger without a
  /// threshold-crossing average is a bug.
  [[nodiscard]] std::optional<Celsius> last_round_average() const {
    return last_round_average_;
  }

  /// Frequency-hold state (only ever true when `fault_aware` is set).
  [[nodiscard]] bool holding() const { return holding_; }
  [[nodiscard]] std::uint64_t hold_entries() const { return hold_entries_; }
  [[nodiscard]] std::uint64_t held_ticks() const { return held_ticks_; }
  /// The gating monitor, or nullptr when not fault-aware.
  [[nodiscard]] const SensorHealthMonitor* health() const {
    return health_.has_value() ? &*health_ : nullptr;
  }

  void set_policy(PolicyParam pp);

  /// Attaches a decision-trace ring (nullptr detaches). Window rounds,
  /// selector decisions, trigger/restore transitions (with the consistency
  /// counts that armed them), and hold transitions are then recorded.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

  /// The sampling window (§3.2.1), owned by the controller.
  [[nodiscard]] const TwoLevelWindow& window() const { return window_; }

 private:
  /// `consistency` and `is_restore` feed the decision trace: how many
  /// consistent rounds armed this move and which direction it is.
  void retarget(SimTime now, std::size_t target, int consistency, bool used_level2,
                bool is_restore);

  sysfs::HwmonDevice& hwmon_;
  sysfs::CpufreqPolicy& cpufreq_;
  TdvfsConfig config_;
  ThermalControlArray array_;
  ModeSelector selector_;
  TwoLevelWindow window_;
  std::size_t index_ = 0;  // 0 = least effective = original (fastest) mode
  int rounds_above_ = 0;
  int rounds_below_ = 0;
  std::optional<Celsius> last_round_average_;
  std::vector<TdvfsEvent> events_;
  std::optional<SensorHealthMonitor> health_;
  bool holding_ = false;
  std::uint64_t hold_entries_ = 0;
  std::uint64_t held_ticks_ = 0;
  obs::TraceRing* trace_ = nullptr;
  bool last_sample_ok_ = true;  // edge detector for sensor-classification events
};

}  // namespace thermctl::core
