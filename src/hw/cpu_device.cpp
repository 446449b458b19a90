#include "hw/cpu_device.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::hw {

CpuDevice::CpuDevice(CpuParams params)
    : params_(std::move(params)), idle_injector_(params_.idle) {
  THERMCTL_ASSERT(!params_.pstates.empty(), "CPU needs at least one P-state");
  for (std::size_t i = 1; i < params_.pstates.size(); ++i) {
    THERMCTL_ASSERT(params_.pstates[i].frequency < params_.pstates[i - 1].frequency,
                    "P-states must be in descending frequency order");
  }
  THERMCTL_ASSERT(params_.k_dyn > 0.0 && params_.k_leak >= 0.0, "power coefficients invalid");
}

void CpuDevice::bind_state(const CpuStateSlots& slots) {
  *slots.pstate = *pstate_;
  *slots.utilization = *utilization_;
  *slots.die_temperature = *die_temperature_;
  *slots.power_cache = *power_cache_;
  *slots.power_valid = *power_valid_;
  *slots.power_gen = *power_gen_;
  *slots.throttled = *throttled_;
  *slots.transitions = *transitions_;
  *slots.aperf = *aperf_;
  *slots.mperf = *mperf_;
  *slots.energy_uj = *energy_uj_;
  *slots.aperf_frac = *aperf_frac_;
  *slots.mperf_frac = *mperf_frac_;
  *slots.energy_frac = *energy_frac_;
  pstate_ = slots.pstate;
  utilization_ = slots.utilization;
  die_temperature_ = slots.die_temperature;
  power_cache_ = slots.power_cache;
  power_valid_ = slots.power_valid;
  power_gen_ = slots.power_gen;
  throttled_ = slots.throttled;
  transitions_ = slots.transitions;
  aperf_ = slots.aperf;
  mperf_ = slots.mperf;
  energy_uj_ = slots.energy_uj;
  aperf_frac_ = slots.aperf_frac;
  mperf_frac_ = slots.mperf_frac;
  energy_frac_ = slots.energy_frac;
  idle_injector_.bind_state(slots.inj_dynamic_factor, slots.inj_leakage_factor,
                            slots.inj_throughput_factor, slots.inj_generation);
}

void CpuDevice::set_pstate(std::size_t index) {
  THERMCTL_ASSERT(index < params_.pstates.size(), "P-state index out of range");
  if (index != *pstate_) {
    *pstate_ = static_cast<std::uint32_t>(index);
    ++*transitions_;
    *power_valid_ = 0;
  }
}

void CpuDevice::set_frequency(GigaHertz f) {
  std::size_t best = 0;
  double best_err = 1e30;
  for (std::size_t i = 0; i < params_.pstates.size(); ++i) {
    const double err = std::abs(params_.pstates[i].frequency.value() - f.value());
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  set_pstate(best);
}

}  // namespace thermctl::hw
