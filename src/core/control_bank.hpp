// ControlBank — batched controller sweeps over contiguous per-node state.
//
// At fleet scale the control path is dominated not by control *math* but by
// dispatch overhead: one periodic closure per node, one VirtualFs round trip
// per sensor read, and window state scattered across thousands of
// heap-allocated controller objects. A ControlBank owns a fleet's
// controllers of one family (fan / tDVFS / unified) in a single
// placement-new slab, rebinds every controller's TwoLevelWindow onto
// bank-owned node-major SoA arrays, and ticks the whole family from ONE
// periodic callback:
//
//   1. latch readings[i] = round(sensor_last[i] · 1000) / 1000  — exactly the
//      millidegree quantization the hwmon temp1_input attribute performs, so
//      the latched read is bit-identical to a controller's own VFS read;
//   2. run each controller's on_sample_with(now, readings[i]) in node order —
//      the same tick logic, same order, as N independent periodics.
//
// The unit tests hold every family tick to bit-identity with standalone
// controllers reading hwmon temp1_input, on sensors bound into one latched
// row. Heterogeneous rigs (per-node window configs that differ from the
// family's) keep per-object inline window storage — correctness never
// depends on the SoA rebind.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "core/unified_controller.hpp"

namespace thermctl::core {

/// Fixed-capacity placement-new arena. Controllers are non-movable once
/// their windows can be rebound onto external storage (deleted copies), so
/// vector<T> — which requires MoveInsertable — cannot hold them; a slab
/// gives stable addresses without per-object heap scatter.
template <typename T>
class FixedSlab {
 public:
  FixedSlab() = default;
  explicit FixedSlab(std::size_t capacity) { reserve(capacity); }
  ~FixedSlab() {
    for (std::size_t i = size_; i > 0; --i) {
      data_[i - 1].~T();
    }
    if (data_ != nullptr) {
      alloc_.deallocate(data_, capacity_);
    }
  }
  FixedSlab(const FixedSlab&) = delete;
  FixedSlab& operator=(const FixedSlab&) = delete;

  /// One-shot capacity set; must precede any emplace.
  void reserve(std::size_t capacity) {
    THERMCTL_ASSERT(data_ == nullptr && size_ == 0, "slab capacity is one-shot");
    capacity_ = capacity;
    if (capacity_ > 0) {
      data_ = alloc_.allocate(capacity_);
    }
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    THERMCTL_ASSERT(size_ < capacity_, "slab full");
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  std::allocator<T> alloc_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

class ControlBank {
 public:
  /// `sensor_last` is the fleet's node-major array of raw sensor
  /// sample-and-hold values (FleetState::sensor_last_data()): node i's
  /// controllers read slot i. Must not be null.
  ControlBank(std::size_t nodes, const double* sensor_last);

  ControlBank(const ControlBank&) = delete;
  ControlBank& operator=(const ControlBank&) = delete;

  /// Controllers must be emplaced densely in ascending node order (node ==
  /// number already emplaced in that family); each window is rebound into
  /// the family's SoA arrays when its config matches the family's first.
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

  /// True when the window at `node` of the given family landed in the SoA
  /// arrays (diagnostics / tests).
  [[nodiscard]] bool fan_window_pooled(std::size_t node) const;
  [[nodiscard]] bool tdvfs_window_pooled(std::size_t node) const;

 private:
  /// Node-major SoA backing for one family's windows. Sized lazily from the
  /// family's first window config; later windows with a different geometry
  /// keep their inline storage (pooled[] = false).
  struct WindowPool {
    WindowConfig config{};
    bool sized = false;
    std::vector<double> level1;        // nodes × level1_size
    std::vector<double> level2;        // nodes × level2_size
    std::vector<std::size_t> fill;     // nodes
    std::vector<std::size_t> head;     // nodes
    std::vector<std::size_t> count;    // nodes
    std::vector<std::uint8_t> pooled;  // nodes — window rebound here?
  };

  void bind_window(WindowPool& pool, std::size_t node, TwoLevelWindow& window);

  /// Latches the first `family.size()` sensor readings, then ticks each
  /// controller of the family in node order on its latched reading.
  template <typename Controller>
  void tick_family(FixedSlab<Controller>& family, SimTime now);

  std::size_t nodes_ = 0;
  const double* sensor_last_ = nullptr;
  std::vector<double> readings_;  // per-tick millidegree-quantized latch
  FixedSlab<DynamicFanController> fans_;
  FixedSlab<TdvfsDaemon> tdvfs_;
  FixedSlab<UnifiedController> unified_;
  WindowPool fan_pool_;    // fan windows (standalone + unified fan side)
  WindowPool tdvfs_pool_;  // tDVFS windows (standalone + unified dvfs side)
};

}  // namespace thermctl::core
