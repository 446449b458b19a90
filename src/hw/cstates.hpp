// ACPI processor idle states (C-states) and forced-idle injection.
//
// §3.2.2 names "valid sleep states for ACPI-compatible system" as a third
// population for the thermal control array, alongside fan speeds and DVFS
// frequencies. The actuation mechanism for sleep-state thermal control on
// real systems is *idle injection* (Linux's intel_powerclamp): the OS
// forces the core into a chosen C-state for a duty-cycled fraction of each
// period, trading throughput for heat linearly.
//
// The model: a table of C-states with per-state power retention (C1 halts
// the clock, deeper states gate voltage and flush caches) and wake-up
// latency (which costs extra throughput at high injection rates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace thermctl::hw {

struct CState {
  std::string name;
  /// Fraction of *dynamic* power still burned while resident (clock gating
  /// leaves ~0; shallow halt keeps caches snooping).
  double dynamic_retention = 0.0;
  /// Fraction of leakage power still burned (deep states gate voltage).
  double leakage_retention = 1.0;
  /// Wake-up latency per injection period (entry+exit, lost to execution).
  Seconds wakeup_latency{0.0};
};

/// Athlon64-era ladder: C1 (HLT), C1E (HLT + reduced LDT clock), C2 (stop
/// grant). Ordered shallow → deep: deeper saves more, wakes slower.
[[nodiscard]] std::vector<CState> default_cstates();

struct IdleInjectorParams {
  std::vector<CState> cstates = default_cstates();
  /// Injection period: one forced-idle pulse per period (powerclamp uses
  /// ~6 ms windows; we use a coarser 50 ms to match the physics step).
  Seconds period{0.05};
  /// Maximum legal injection fraction (powerclamp caps at 50%).
  double max_fraction = 0.5;
};

/// The injector's hot state, one slot per CPU: the dynamic, leakage and
/// throughput factors the CPU multiplies into its power and delivered work,
/// and the generation counter its power memo checks. A fleet holds one
/// column per field and the fleet sweep reads them directly; a standalone
/// injector owns a one-slot set. An inactive injector holds exact 1.0s, so
/// the multiplications are bitwise no-ops whether or not injection is in use.
struct IdleColumns {
  /// `n` slots, each at the power-on state: no injection.
  explicit IdleColumns(std::size_t n)
      : dynamic_factor(n, 1.0), leakage_factor(n, 1.0), throughput_factor(n, 1.0),
        generation(n, 0) {}

  std::vector<double> dynamic_factor;
  std::vector<double> leakage_factor;
  std::vector<double> throughput_factor;
  std::vector<std::uint64_t> generation;
};

/// Duty-cycled forced idle on one CPU. The CpuDevice consults this to scale
/// its delivered work and power; the sysfs PowerClamp device drives it.
class IdleInjector {
 public:
  /// Standalone injector over a one-slot IdleColumns of its own.
  explicit IdleInjector(IdleInjectorParams params = {});
  /// View over slot `slot` of `columns`.
  IdleInjector(IdleInjectorParams params, IdleColumns& columns, std::size_t slot);

  // A view holds a reference into its columns, so it must not be duplicated.
  IdleInjector(const IdleInjector&) = delete;
  IdleInjector& operator=(const IdleInjector&) = delete;

  [[nodiscard]] const std::vector<CState>& cstates() const { return params_.cstates; }
  [[nodiscard]] std::size_t cstate_count() const { return params_.cstates.size(); }

  /// Commands injection of `fraction` of each period spent in C-state
  /// `state` (0-based into cstates()). Fraction is clamped to
  /// [0, max_fraction]; state must be valid.
  void set_injection(double fraction, std::size_t state);
  void stop() {
    fraction_ = 0.0;
    ++cols_.generation[slot_];
    refresh_factors();
  }

  [[nodiscard]] double fraction() const { return fraction_; }
  [[nodiscard]] std::size_t state() const { return state_; }
  [[nodiscard]] bool active() const { return fraction_ > 0.0; }

  /// Fraction of nominal throughput delivered under the current injection:
  /// the idle slice itself plus the wake-up latency per period.
  [[nodiscard]] double throughput_factor() const;

  /// Multipliers applied to the CPU's dynamic / leakage power under the
  /// current injection (time-weighted between C0 and the chosen state).
  [[nodiscard]] double dynamic_power_factor() const;
  [[nodiscard]] double leakage_power_factor() const;

  [[nodiscard]] const IdleInjectorParams& params() const { return params_; }

  /// Bumped on every injection change; lets consumers (the CPU's power
  /// cache) detect staleness without comparing the full injection state.
  [[nodiscard]] std::uint64_t generation() const { return cols_.generation[slot_]; }

 private:
  IdleInjector(IdleInjectorParams params, std::unique_ptr<IdleColumns> owned);

  /// Stores the current factors into the slot's columns.
  void refresh_factors() {
    cols_.dynamic_factor[slot_] = dynamic_power_factor();
    cols_.leakage_factor[slot_] = leakage_power_factor();
    cols_.throughput_factor[slot_] = throughput_factor();
  }

  IdleInjectorParams params_;
  std::unique_ptr<IdleColumns> owned_;  // set only for a standalone injector
  IdleColumns& cols_;
  std::size_t slot_;
  double fraction_ = 0.0;
  std::size_t state_ = 0;
};

}  // namespace thermctl::hw
