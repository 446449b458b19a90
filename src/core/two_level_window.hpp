// The paper's two-level, history-based temperature window (§3.2.1, Fig. 3).
//
// Level one: a small array (default 4 entries) of the most recent raw
// samples. When it fills, the window computes
//
//   Δt_L1 = Σ(second half) − Σ(first half)
//
// — a sum-difference that responds to *sustained* change (Type I "sudden")
// while averaging out single-sample jitter (Type III). The level-one average
// is then pushed into the level-two FIFO (default 5 entries) and the
// level-one array is cleared for the next round.
//
// Level two: the FIFO of round averages tracks coarse-grained history;
//
//   Δt_L2 = rear − front
//
// predicts *gradual* trends (Type II) spanning several rounds.
//
// With the paper's 4 Hz sampling and a 4-entry level-one array, rounds
// complete once per second and the level-two FIFO spans five seconds.
//
// The window is a plain value type: the samples and the FIFO live in one
// inline array sized for the largest geometry any caller uses (kMaxLevel
// cells per level), so a controller owns its whole history with no heap
// allocation and can be copied or moved freely.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "common/units.hpp"

namespace thermctl::core {

struct WindowConfig {
  std::size_t level1_size = 4;  // must be even (split into halves)
  std::size_t level2_size = 5;
};

/// Result of a completed level-one round.
struct WindowRound {
  CelsiusDelta level1_delta{};   // Δt_L1, degrees over half a round
  CelsiusDelta level2_delta{};   // Δt_L2 (zero until the FIFO holds ≥ 2 rounds)
  Celsius level1_average{};      // round average pushed into level two
  bool level2_valid = false;     // FIFO had ≥ 2 entries when Δt_L2 was read
};

class TwoLevelWindow {
 public:
  /// Largest level-one array and level-two FIFO a window can hold.
  static constexpr std::size_t kMaxLevel = 16;

  explicit TwoLevelWindow(WindowConfig config = {});

  /// Adds a sample; returns a WindowRound when this sample completes a
  /// level-one round, otherwise nullopt. Inline so the no-round common case
  /// (all but one sample in level1_size) is a store and a compare at the
  /// caller.
  std::optional<WindowRound> add_sample(Celsius t) {
    cells_[level1_fill_++] = t.value();
    if (level1_fill_ < config_.level1_size) {
      return std::nullopt;
    }
    return close_round();
  }

  /// Discards all history (e.g. after a controller mode change that makes
  /// old samples unrepresentative).
  void reset();

  [[nodiscard]] const WindowConfig& config() const { return config_; }
  [[nodiscard]] std::size_t level1_fill() const { return level1_fill_; }
  [[nodiscard]] std::size_t level2_fill() const { return level2_count_; }

  /// Front (oldest) and rear (newest) of the level-two FIFO.
  [[nodiscard]] Celsius level2_front() const;
  [[nodiscard]] Celsius level2_rear() const;

 private:
  [[nodiscard]] std::optional<WindowRound> close_round();

  WindowConfig config_;
  // Level-one samples in [0, kMaxLevel), the level-two FIFO in
  // [kMaxLevel, 2 * kMaxLevel).
  std::array<double, 2 * kMaxLevel> cells_{};
  std::size_t level1_fill_ = 0;
  std::size_t level2_head_ = 0;
  std::size_t level2_count_ = 0;
};

}  // namespace thermctl::core
