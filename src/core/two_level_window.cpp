#include "core/two_level_window.hpp"

#include "common/assert.hpp"

namespace thermctl::core {

TwoLevelWindow::TwoLevelWindow(WindowConfig config) : config_(config) {
  THERMCTL_ASSERT(config_.level1_size >= 2 && config_.level1_size % 2 == 0,
                  "level-one window must be even-sized and >= 2");
  THERMCTL_ASSERT(config_.level2_size >= 2, "level-two FIFO must hold >= 2 rounds");
  THERMCTL_ASSERT(config_.level1_size <= kMaxLevel && config_.level2_size <= kMaxLevel,
                  "window levels must hold at most kMaxLevel cells");
}

void TwoLevelWindow::reset() {
  level1_fill_ = 0;
  level2_head_ = 0;
  level2_count_ = 0;
}

Celsius TwoLevelWindow::level2_front() const {
  THERMCTL_ASSERT(level2_count_ > 0, "level2_front() on empty FIFO");
  return Celsius{cells_[kMaxLevel + level2_head_]};
}

Celsius TwoLevelWindow::level2_rear() const {
  THERMCTL_ASSERT(level2_count_ > 0, "level2_rear() on empty FIFO");
  return Celsius{cells_[kMaxLevel + (level2_head_ + level2_count_ - 1) % config_.level2_size]};
}

std::optional<WindowRound> TwoLevelWindow::close_round() {
  // Round complete: Δt_L1 = sum(second half) − sum(first half).
  const std::size_t n = config_.level1_size;
  const std::size_t half = n / 2;
  double first = 0.0;
  double second = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = cells_[i];
    total += v;
    if (i < half) {
      first += v;
    } else {
      second += v;
    }
  }

  WindowRound round;
  round.level1_delta = CelsiusDelta{second - first};
  round.level1_average = Celsius{total / static_cast<double>(n)};

  // Push the round average into the FIFO (oldest evicted when full), then
  // read Δt_L2 = rear − front.
  const std::size_t cap = config_.level2_size;
  cells_[kMaxLevel + (level2_head_ + level2_count_) % cap] = round.level1_average.value();
  if (level2_count_ == cap) {
    level2_head_ = (level2_head_ + 1) % cap;
  } else {
    ++level2_count_;
  }
  if (level2_count_ >= 2) {
    round.level2_delta = level2_rear() - level2_front();
    round.level2_valid = true;
  }

  level1_fill_ = 0;  // "cells ... cleared out for next round of sampling"
  return round;
}

}  // namespace thermctl::core
