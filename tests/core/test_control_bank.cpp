// ControlBank — batched family ticks on the latched sensor row must be
// indistinguishable from N independent controllers reading hwmon
// temp1_input, whatever window geometry each node's controller uses.
#include "core/control_bank.hpp"

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "core/two_level_window.hpp"
#include "core/unified_controller.hpp"
#include "controller_rig.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// A fine-grained noisy sensor: readings are not whole millidegrees, so the
/// bank's millidegree latch does real rounding work that must match the
/// hwmon temp1_input read bit-for-bit.
hw::SensorParams fine_sensor() {
  hw::SensorParams p;
  p.quantization_degc = 1e-4;
  p.noise_sigma_degc = 0.2;
  return p;
}

/// `n` rigs whose sensors hold their readings in one contiguous row — the
/// layout FleetState gives a bank — plus `n` standalone twins (same sensor
/// params and RNG seed) that each hold their reading in a column of their
/// own.
struct LatchedRigs {
  std::vector<double> row;
  std::vector<std::unique_ptr<ControllerRig>> bank;
  std::vector<std::unique_ptr<ControllerRig>> solo;

  explicit LatchedRigs(std::size_t n) : row(n, 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      bank.push_back(std::make_unique<ControllerRig>(fine_sensor(), row, i));
      solo.push_back(std::make_unique<ControllerRig>(fine_sensor()));
    }
  }

  /// Both twins of node i see `temp` and take one sample.
  void sample(std::size_t i, double temp) {
    bank[i]->truth = temp;
    bank[i]->sensor.sample();
    solo[i]->truth = temp;
    solo[i]->sensor.sample();
  }

  /// True when some held reading is not a whole millidegree — the latch
  /// then rounds, which is what the comparison is meant to exercise.
  [[nodiscard]] bool latch_rounds() const {
    for (double v : row) {
      if (static_cast<double>(std::lround(v * 1000.0)) / 1000.0 != v) {
        return true;
      }
    }
    return false;
  }
};

/// Window state must match bit-for-bit, not just the discrete decisions it
/// feeds: a latch that reads a fraction of a millidegree off shows up in the
/// round averages long before it flips a duty or a P-state.
void expect_same_window(const TwoLevelWindow& bank, const TwoLevelWindow& solo) {
  ASSERT_EQ(bank.level1_fill(), solo.level1_fill());
  ASSERT_EQ(bank.level2_fill(), solo.level2_fill());
  if (bank.level2_fill() > 0) {
    ASSERT_EQ(bank.level2_front().value(), solo.level2_front().value());
    ASSERT_EQ(bank.level2_rear().value(), solo.level2_rear().value());
  }
}

TEST(ControlBank, BatchedFanTicksMatchStandaloneControllers) {
  // Three nodes with *different* temperature scripts, run once through a
  // bank (one tick_fans per step, reading the latched row) and once as three
  // standalone controllers (three on_sample calls, each reading hwmon
  // temp1_input) — duty trajectories must agree exactly.
  constexpr std::size_t kNodes = 3;
  LatchedRigs rigs{kNodes};
  FanControlConfig cfg;
  ControlBank bank{kNodes, rigs.row.data()};
  std::vector<std::unique_ptr<DynamicFanController>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_fan(i, *rigs.bank[i]->hwmon, cfg);
    solo.push_back(std::make_unique<DynamicFanController>(*rigs.solo[i]->hwmon, cfg));
  }
  ASSERT_EQ(bank.fan_count(), kNodes);

  bool rounded = false;
  SimTime now;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      // Node i ramps at its own rate, with a mid-run cooldown.
      rigs.sample(i, 40.0 + 0.08 * static_cast<double>(i + 1) * (step < 120 ? step : 240 - step));
    }
    rounded = rounded || rigs.latch_rounds();
    bank.tick_fans(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      ASSERT_EQ(bank.fan(i).current_duty().percent(), solo[i]->current_duty().percent())
          << "node " << i << " step " << step;
      expect_same_window(bank.fan(i).window(), solo[i]->window());
      ASSERT_FALSE(HasFatalFailure()) << "node " << i << " step " << step;
    }
  }
  EXPECT_TRUE(rounded);
}

TEST(ControlBank, BatchedTdvfsTicksMatchStandaloneDaemons) {
  constexpr std::size_t kNodes = 2;
  LatchedRigs rigs{kNodes};
  TdvfsConfig cfg;
  cfg.threshold = Celsius{50.0};
  ControlBank bank{kNodes, rigs.row.data()};
  std::vector<std::unique_ptr<TdvfsDaemon>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_tdvfs(i, *rigs.bank[i]->hwmon, *rigs.bank[i]->cpufreq, cfg);
    solo.push_back(
        std::make_unique<TdvfsDaemon>(*rigs.solo[i]->hwmon, *rigs.solo[i]->cpufreq, cfg));
  }
  bool rounded = false;
  SimTime now;
  for (int step = 0; step < 160; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      rigs.sample(i, 44.0 + 0.15 * (i == 0 ? step : 160 - step));
    }
    rounded = rounded || rigs.latch_rounds();
    bank.tick_tdvfs(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      ASSERT_EQ(rigs.bank[i]->cpu.frequency().value(), rigs.solo[i]->cpu.frequency().value())
          << "node " << i << " step " << step;
      expect_same_window(bank.tdvfs(i).window(), solo[i]->window());
      ASSERT_FALSE(HasFatalFailure()) << "node " << i << " step " << step;
    }
  }
  EXPECT_TRUE(rounded);
  // The scripts cross the threshold, so the comparison covered transitions.
  EXPECT_GT(rigs.solo[0]->cpu.transition_count() + rigs.solo[1]->cpu.transition_count(), 0u);
}

TEST(ControlBank, BatchedUnifiedTicksMatchStandaloneControllers) {
  // The unified family: fan first, then tDVFS, both fed one latched reading.
  constexpr std::size_t kNodes = 2;
  LatchedRigs rigs{kNodes};
  UnifiedConfig cfg;
  cfg.tdvfs.threshold = Celsius{50.0};
  ControlBank bank{kNodes, rigs.row.data()};
  std::vector<std::unique_ptr<UnifiedController>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_unified(i, *rigs.bank[i]->hwmon, *rigs.bank[i]->cpufreq, cfg);
    solo.push_back(std::make_unique<UnifiedController>(*rigs.solo[i]->hwmon,
                                                       *rigs.solo[i]->cpufreq, cfg));
  }
  SimTime now;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      rigs.sample(i, 42.0 + 0.1 * static_cast<double>(i + 1) * (step < 100 ? step : 200 - step));
    }
    bank.tick_unified(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      ASSERT_EQ(bank.unified(i).fan().current_duty().percent(),
                solo[i]->fan().current_duty().percent())
          << "node " << i << " step " << step;
      ASSERT_EQ(rigs.bank[i]->cpu.frequency().value(), rigs.solo[i]->cpu.frequency().value())
          << "node " << i << " step " << step;
      expect_same_window(bank.unified(i).fan().window(), solo[i]->fan().window());
      expect_same_window(bank.unified(i).dvfs().window(), solo[i]->dvfs().window());
      ASSERT_FALSE(HasFatalFailure()) << "node " << i << " step " << step;
    }
  }
}

TEST(ControlBank, HeterogeneousWindowConfigsMatchStandaloneControllers) {
  // Window geometry is per controller: a wide level-one array (8 samples a
  // round) and a short FIFO (3 rounds) sit between default nodes, and every
  // node must still tick bitwise like its standalone twin.
  constexpr std::size_t kNodes = 4;
  LatchedRigs rigs{kNodes};
  UnifiedConfig standard;
  standard.tdvfs.threshold = Celsius{50.0};
  UnifiedConfig wide = standard;
  wide.fan.window.level1_size = 8;
  wide.tdvfs.window.level1_size = 8;
  UnifiedConfig short_fifo = standard;
  short_fifo.fan.window.level2_size = 3;
  short_fifo.tdvfs.window.level2_size = 3;
  const UnifiedConfig* configs[kNodes] = {&standard, &wide, &short_fifo, &standard};

  ControlBank bank{kNodes, rigs.row.data()};
  std::vector<std::unique_ptr<UnifiedController>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_unified(i, *rigs.bank[i]->hwmon, *rigs.bank[i]->cpufreq, *configs[i]);
    solo.push_back(std::make_unique<UnifiedController>(*rigs.solo[i]->hwmon,
                                                       *rigs.solo[i]->cpufreq, *configs[i]));
  }
  ASSERT_EQ(bank.unified(1).fan().window().config().level1_size, 8u);
  ASSERT_EQ(bank.unified(2).dvfs().window().config().level2_size, 3u);

  SimTime now;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      rigs.sample(i, 43.0 + 0.09 * static_cast<double>(i + 1) * (step < 110 ? step : 220 - step));
    }
    bank.tick_unified(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      ASSERT_EQ(bank.unified(i).fan().current_duty().percent(),
                solo[i]->fan().current_duty().percent())
          << "node " << i << " step " << step;
      ASSERT_EQ(rigs.bank[i]->cpu.frequency().value(), rigs.solo[i]->cpu.frequency().value())
          << "node " << i << " step " << step;
      expect_same_window(bank.unified(i).fan().window(), solo[i]->fan().window());
      expect_same_window(bank.unified(i).dvfs().window(), solo[i]->dvfs().window());
      ASSERT_FALSE(HasFatalFailure()) << "node " << i << " step " << step;
    }
  }
  // The wide and short-FIFO nodes cross the threshold too, so the
  // comparison covered their tDVFS transitions.
  EXPECT_GT(rigs.solo[1]->cpu.transition_count(), 0u);
  EXPECT_GT(rigs.solo[2]->cpu.transition_count(), 0u);
}

TEST(ControlBankDeath, SparseEmplacementAborts) {
  ControllerRig rig;
  std::vector<double> row(4, 0.0);
  ControlBank bank{4, row.data()};
  FanControlConfig cfg;
  EXPECT_DEATH(bank.emplace_fan(2, *rig.hwmon, cfg), "dense");
}

TEST(ControlBankDeath, EmplacePastCapacityAborts) {
  // A family never outgrows its reserved capacity, so references handed out
  // by emplace_* stay valid for the bank's lifetime.
  ControllerRig rig;
  std::vector<double> row(2, 0.0);
  ControlBank bank{2, row.data()};
  FanControlConfig cfg;
  bank.emplace_fan(0, *rig.hwmon, cfg);
  bank.emplace_fan(1, *rig.hwmon, cfg);
  EXPECT_DEATH(bank.emplace_fan(2, *rig.hwmon, cfg), "node count");
}

TEST(ControlBankDeath, MissingSensorRowAborts) {
  EXPECT_DEATH(ControlBank(2, nullptr), "sensor row");
}

}  // namespace
}  // namespace thermctl::core
