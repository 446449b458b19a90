#include "hw/cpu_device.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::hw {

CpuDevice::CpuDevice(CpuParams params)
    : CpuDevice(std::move(params), std::make_unique<Standalone>()) {}

CpuDevice::CpuDevice(CpuParams params, std::unique_ptr<Standalone> owned)
    : CpuDevice(std::move(params), owned->cpu, owned->idle, 0) {
  owned_ = std::move(owned);
}

CpuDevice::CpuDevice(CpuParams params, CpuColumns& columns, IdleColumns& idle, std::size_t slot)
    : params_(std::move(params)),
      cols_(columns),
      slot_(slot),
      idle_injector_(params_.idle, idle, slot) {
  THERMCTL_ASSERT(slot < columns.pstate.size(), "CPU column slot out of range");
  THERMCTL_ASSERT(!params_.pstates.empty(), "CPU needs at least one P-state");
  for (std::size_t i = 1; i < params_.pstates.size(); ++i) {
    THERMCTL_ASSERT(params_.pstates[i].frequency < params_.pstates[i - 1].frequency,
                    "P-states must be in descending frequency order");
  }
  THERMCTL_ASSERT(params_.k_dyn > 0.0 && params_.k_leak >= 0.0, "power coefficients invalid");
}

void CpuDevice::set_pstate(std::size_t index) {
  THERMCTL_ASSERT(index < params_.pstates.size(), "P-state index out of range");
  if (index != cols_.pstate[slot_]) {
    cols_.pstate[slot_] = static_cast<std::uint32_t>(index);
    ++cols_.transitions[slot_];
    cols_.power_valid[slot_] = 0;
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
