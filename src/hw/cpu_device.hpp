// DVFS-capable CPU device model.
//
// Models the evaluation platform's AMD Athlon64 4000+ : five P-states
// (2.4/2.2/2.0/1.8/1.0 GHz), per-state core voltage, and a power model with
// the structure the paper's argument relies on —
//
//   P = P_dyn + P_leak
//   P_dyn  = k_dyn * V^2 * f * activity      (activity tracks utilization)
//   P_leak = k_leak * V^2 * (1 + alpha*(T_die - T_ref))
//
// so that scaling frequency down reduces power super-linearly (via the
// accompanying voltage drop, the paper's "cubic" claim) while leakage couples
// power back to die temperature.
//
// Frequency transitions are not free: each one stalls execution briefly
// (voltage ramp) and is counted, because Table 1 scores governors by the
// number of transitions they inflict (a reliability proxy).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "hw/cstates.hpp"

namespace thermctl::hw {

/// One DVFS operating point.
struct PState {
  GigaHertz frequency{};
  Volts voltage{};
};

struct CpuParams {
  /// P-states in descending frequency order (index 0 = fastest). Defaults to
  /// the Athlon64 4000+ ladder from the paper with plausible VID voltages.
  std::vector<PState> pstates{
      {GigaHertz{2.4}, Volts{1.40}}, {GigaHertz{2.2}, Volts{1.325}},
      {GigaHertz{2.0}, Volts{1.25}}, {GigaHertz{1.8}, Volts{1.20}},
      {GigaHertz{1.0}, Volts{1.10}},
  };
  /// Dynamic power coefficient, W / (V^2 * GHz). 14.0 gives ~66 W of
  /// dynamic power flat-out at 2.4 GHz / 1.4 V (Athlon64 4000+ class).
  double k_dyn = 14.0;
  /// Leakage coefficient, W / V^2 (~ 5.6 W at 1.4 V and T_ref).
  double k_leak = 2.85;
  /// Leakage temperature sensitivity per kelvin above t_ref.
  double leakage_alpha = 0.012;
  Celsius t_ref{45.0};
  /// Floor activity when idle (OS housekeeping, clock tree).
  double idle_activity = 0.06;
  /// Execution stall per frequency transition (voltage ramp + relock).
  Seconds transition_stall{0.000150};
  /// ACPI idle-state ladder + injection mechanics (§3.2.2's third
  /// technique).
  IdleInjectorParams idle{};
};

// The CPU formulas over plain values. CpuDevice and the fleet sweep both call
// these, so the per-object API and the batched passes share one arithmetic.

/// Delivered core clock (GHz) at P-state `pstate`: the OS-selected
/// frequency, or the slowest P-state's while PROCHOT gates the clock.
[[nodiscard]] inline double cpu_effective_ghz(const CpuParams& p, std::size_t pstate,
                                              bool throttled) {
  return throttled ? p.pstates.back().frequency.value() : p.pstates[pstate].frequency.value();
}

/// P_dyn + P_leak (the file comment's model) at one operating point. PROCHOT
/// clock-gates: dynamic power tracks the effective frequency while voltage
/// stays at the OS-selected P-state. Forced-idle injection scales both
/// components by its per-C-state retention factors.
[[nodiscard]] inline double cpu_power_w(const CpuParams& p, std::size_t pstate, double utilization,
                                        double die_celsius, bool throttled,
                                        double dynamic_factor, double leakage_factor) {
  const PState& ps = p.pstates[pstate];
  const double v2 = ps.voltage.value() * ps.voltage.value();
  const double activity = p.idle_activity + (1.0 - p.idle_activity) * utilization;
  const double p_dyn =
      p.k_dyn * v2 * cpu_effective_ghz(p, pstate, throttled) * activity * dynamic_factor;
  const double p_leak = p.k_leak * v2 *
                        (1.0 + p.leakage_alpha * (die_celsius - p.t_ref.value())) *
                        leakage_factor;
  return p_dyn + std::max(0.0, p_leak);
}

/// Advances a counter block by `dt` seconds: APERF by the delivered cycles
/// (effective GHz x utilization x injection throughput), MPERF by cycles at
/// the fastest P-state, energy by `power_w`. Counts are in units of 1e6
/// cycles / microjoules so 64 bits last for any plausible simulation length;
/// each keeps its fractional remainder for the next step.
inline void advance_cpu_counters(const CpuParams& p, double effective_ghz, double utilization,
                                 double throughput_factor, double power_w, double dt,
                                 std::uint64_t& aperf, std::uint64_t& mperf,
                                 std::uint64_t& energy_uj, double& aperf_frac,
                                 double& mperf_frac, double& energy_frac) {
  aperf_frac += effective_ghz * utilization * dt * throughput_factor * 1e3;  // GHz-s -> Mcycles
  mperf_frac += p.pstates.front().frequency.value() * dt * 1e3;
  energy_frac += power_w * dt * 1e6;  // J -> uJ
  const auto a = static_cast<std::uint64_t>(aperf_frac);
  const auto m = static_cast<std::uint64_t>(mperf_frac);
  const auto e = static_cast<std::uint64_t>(energy_frac);
  aperf += a;
  mperf += m;
  energy_uj += e;
  aperf_frac -= static_cast<double>(a);
  mperf_frac -= static_cast<double>(m);
  energy_frac -= static_cast<double>(e);
}

/// External storage the CPU's hot state can be rebound onto (bind_state) —
/// one slot per field, pointing into FleetState's SoA arrays. The fleet
/// sweep reads/writes these arrays directly; the device keeps behaving
/// identically through its own API because both share the same storage.
struct CpuStateSlots {
  std::uint32_t* pstate = nullptr;
  double* utilization = nullptr;      // fraction
  double* die_temperature = nullptr;  // °C
  double* power_cache = nullptr;
  std::uint8_t* power_valid = nullptr;
  std::uint64_t* power_gen = nullptr;
  std::uint8_t* throttled = nullptr;
  std::uint64_t* transitions = nullptr;
  std::uint64_t* aperf = nullptr;
  std::uint64_t* mperf = nullptr;
  std::uint64_t* energy_uj = nullptr;
  double* aperf_frac = nullptr;
  double* mperf_frac = nullptr;
  double* energy_frac = nullptr;
  // Idle-injector mirrors (forwarded to IdleInjector::bind_state).
  double* inj_dynamic_factor = nullptr;
  double* inj_leakage_factor = nullptr;
  double* inj_throughput_factor = nullptr;
  std::uint64_t* inj_generation = nullptr;
};

class CpuDevice {
 public:
  explicit CpuDevice(CpuParams params = {});

  // Hot state may be rebound into fleet-owned SoA arrays (bind_state), so
  // the device must not be duplicated with pointers into the old storage.
  CpuDevice(const CpuDevice&) = delete;
  CpuDevice& operator=(const CpuDevice&) = delete;

  /// Rebinds every hot field (operating point, power memo, counter block,
  /// injector mirrors) onto external storage — the FleetState SoA arrays.
  /// Current values carry over; the device keeps behaving identically, it
  /// just keeps its hot state in the fleet arrays where the batched sweep
  /// can walk it contiguously.
  void bind_state(const CpuStateSlots& slots);

  [[nodiscard]] std::span<const PState> pstates() const { return params_.pstates; }
  [[nodiscard]] std::size_t pstate_count() const { return params_.pstates.size(); }

  /// Currently active P-state index (0 = fastest).
  [[nodiscard]] std::size_t pstate_index() const { return *pstate_; }
  [[nodiscard]] GigaHertz frequency() const { return params_.pstates[*pstate_].frequency; }
  [[nodiscard]] Volts voltage() const { return params_.pstates[*pstate_].voltage; }
  [[nodiscard]] GigaHertz max_frequency() const { return params_.pstates.front().frequency; }
  [[nodiscard]] GigaHertz min_frequency() const { return params_.pstates.back().frequency; }

  /// Requests a P-state switch; counts a transition when the index changes.
  void set_pstate(std::size_t index);

  /// Requests the P-state whose frequency is nearest `f`.
  void set_frequency(GigaHertz f);

  /// Hardware thermal throttle (PROCHOT#). While asserted the core clock is
  /// gated down to the slowest P-state frequency *without* changing the
  /// OS-visible P-state — exactly how real parts behave: cpufreq still
  /// reports the requested frequency, but work completes at the throttled
  /// rate. Not counted as a transition.
  void set_thermal_throttle(bool asserted) {
    *throttled_ = asserted ? 1 : 0;
    *power_valid_ = 0;
  }
  [[nodiscard]] bool thermal_throttled() const { return *throttled_ != 0; }

  /// Frequency actually delivered to execution (accounts for PROCHOT).
  [[nodiscard]] GigaHertz effective_frequency() const {
    return GigaHertz{cpu_effective_ghz(params_, *pstate_, thermal_throttled())};
  }

  /// Instantaneous utilization imposed by the workload model.
  void set_utilization(Utilization u) {
    *utilization_ = u.fraction();
    *power_valid_ = 0;
  }
  [[nodiscard]] Utilization utilization() const { return Utilization{*utilization_}; }

  /// Die temperature feedback for the leakage term.
  void set_die_temperature(Celsius t) {
    *die_temperature_ = t.value();
    *power_valid_ = 0;
  }

  /// Instantaneous electrical power at the current operating point. The node
  /// reads it several times per physics step (package heat input, meter,
  /// counters), so the value is memoized until an input changes; injection
  /// changes are tracked through the injector's generation counter.
  [[nodiscard]] Watts power() const {
    if (*power_valid_ == 0 || *power_gen_ != idle_injector_.generation()) {
      recompute_power();
    }
    return Watts{*power_cache_};
  }

  /// Number of completed frequency transitions since construction.
  [[nodiscard]] std::uint64_t transition_count() const { return *transitions_; }

  /// Total execution stall accumulated from transitions.
  [[nodiscard]] Seconds transition_stall_total() const {
    return Seconds{static_cast<double>(*transitions_) * params_.transition_stall.value()};
  }

  /// Work executed during `dt` at the current frequency and utilization, in
  /// normalized units of GHz-seconds (cycles / 1e9). The workload model uses
  /// this to advance application progress. Accounts for PROCHOT throttling
  /// and forced-idle injection.
  [[nodiscard]] double work_capacity(Seconds dt) const {
    return effective_frequency().value() * *utilization_ * dt.value() *
           idle_injector_.throughput_factor();
  }

  /// The frequency the workload effectively progresses at, folding in both
  /// PROCHOT and idle injection — what the cluster engine feeds the app.
  [[nodiscard]] GigaHertz delivered_frequency() const {
    return GigaHertz{effective_frequency().value() * idle_injector_.throughput_factor()};
  }

  /// The ACPI idle-injection mechanism (sleep-state thermal control).
  [[nodiscard]] IdleInjector& idle_injector() { return idle_injector_; }
  [[nodiscard]] const IdleInjector& idle_injector() const { return idle_injector_; }

  // ---- hardware counters (the paper's future-work prediction inputs) ----

  /// Advances the counter block by `dt` at the current operating point.
  void advance_counters(Seconds dt) {
    advance_cpu_counters(params_, effective_frequency().value(), *utilization_,
                         idle_injector_.throughput_factor(), power().value(), dt.value(), *aperf_,
                         *mperf_, *energy_uj_, *aperf_frac_, *mperf_frac_, *energy_frac_);
  }

  /// APERF-style counter: cycles actually delivered (frequency, throttling,
  /// idle injection and utilization all fold in).
  [[nodiscard]] std::uint64_t aperf() const { return *aperf_; }

  /// MPERF-style counter: cycles at the nominal (max) frequency regardless
  /// of load — the time base. aperf/mperf deltas give delivered speed.
  [[nodiscard]] std::uint64_t mperf() const { return *mperf_; }

  /// RAPL-style accumulated package energy in microjoules.
  [[nodiscard]] std::uint64_t energy_uj() const { return *energy_uj_; }

  /// Overwrites the counter block (test / fault-injection hook) — e.g. to
  /// place the energy counter just below a RAPL wrap boundary so wraparound
  /// handling can be exercised without simulating hours of runtime.
  void preset_counters(std::uint64_t aperf, std::uint64_t mperf, std::uint64_t energy_uj) {
    *aperf_ = aperf;
    *mperf_ = mperf;
    *energy_uj_ = energy_uj;
    *aperf_frac_ = 0.0;
    *mperf_frac_ = 0.0;
    *energy_frac_ = 0.0;
  }

  [[nodiscard]] const CpuParams& params() const { return params_; }

 private:
  void recompute_power() const {
    *power_cache_ = cpu_power_w(params_, *pstate_, *utilization_, *die_temperature_,
                                thermal_throttled(), idle_injector_.dynamic_power_factor(),
                                idle_injector_.leakage_power_factor());
    *power_valid_ = 1;
    *power_gen_ = idle_injector_.generation();
  }

  CpuParams params_;
  IdleInjector idle_injector_;
  // Hot state defaults to inline storage; bind_state() repoints it into
  // FleetState SoA slots without changing behaviour.
  std::uint32_t pstate_storage_ = 0;
  double utilization_storage_ = 0.0;
  double die_temperature_storage_ = 40.0;
  double power_cache_storage_ = 0.0;
  std::uint8_t power_valid_storage_ = 0;
  std::uint64_t power_gen_storage_ = 0;
  std::uint8_t throttled_storage_ = 0;
  std::uint64_t transitions_storage_ = 0;
  std::uint64_t aperf_storage_ = 0;
  std::uint64_t mperf_storage_ = 0;
  std::uint64_t energy_uj_storage_ = 0;
  double aperf_frac_storage_ = 0.0;
  double mperf_frac_storage_ = 0.0;
  double energy_frac_storage_ = 0.0;
  std::uint32_t* pstate_ = &pstate_storage_;
  double* utilization_ = &utilization_storage_;
  double* die_temperature_ = &die_temperature_storage_;
  double* power_cache_ = &power_cache_storage_;
  std::uint8_t* power_valid_ = &power_valid_storage_;
  std::uint64_t* power_gen_ = &power_gen_storage_;
  std::uint8_t* throttled_ = &throttled_storage_;
  std::uint64_t* transitions_ = &transitions_storage_;
  std::uint64_t* aperf_ = &aperf_storage_;
  std::uint64_t* mperf_ = &mperf_storage_;
  std::uint64_t* energy_uj_ = &energy_uj_storage_;
  double* aperf_frac_ = &aperf_frac_storage_;
  double* mperf_frac_ = &mperf_frac_storage_;
  double* energy_frac_ = &energy_frac_storage_;
};

}  // namespace thermctl::hw
