#include "core/two_level_window.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace thermctl::core {
namespace {

TEST(TwoLevelWindow, RoundCompletesEveryL1SizeSamples) {
  TwoLevelWindow w;
  EXPECT_FALSE(w.add_sample(Celsius{40.0}).has_value());
  EXPECT_FALSE(w.add_sample(Celsius{40.0}).has_value());
  EXPECT_FALSE(w.add_sample(Celsius{40.0}).has_value());
  EXPECT_TRUE(w.add_sample(Celsius{40.0}).has_value());
  // Level one cleared; next round starts fresh.
  EXPECT_EQ(w.level1_fill(), 0u);
}

TEST(TwoLevelWindow, Level1DeltaIsSumDifference) {
  TwoLevelWindow w;
  w.add_sample(Celsius{40.0});
  w.add_sample(Celsius{40.5});
  w.add_sample(Celsius{41.0});
  const auto round = w.add_sample(Celsius{41.5});
  ASSERT_TRUE(round.has_value());
  // (41.0 + 41.5) - (40.0 + 40.5) = 2.0
  EXPECT_NEAR(round->level1_delta.value(), 2.0, 1e-12);
  EXPECT_NEAR(round->level1_average.value(), 40.75, 1e-12);
}

TEST(TwoLevelWindow, ConstantTemperatureZeroDelta) {
  TwoLevelWindow w;
  for (int i = 0; i < 3; ++i) {
    w.add_sample(Celsius{50.0});
  }
  const auto round = w.add_sample(Celsius{50.0});
  ASSERT_TRUE(round.has_value());
  EXPECT_DOUBLE_EQ(round->level1_delta.value(), 0.0);
}

TEST(TwoLevelWindow, SingleSampleSpikeIsDamped) {
  // Type III jitter: one outlier sample contributes only once to a sum of
  // two, so the delta stays below the outlier's own magnitude.
  TwoLevelWindow w;
  w.add_sample(Celsius{50.0});
  w.add_sample(Celsius{50.0});
  w.add_sample(Celsius{52.0});  // spike
  const auto round = w.add_sample(Celsius{50.0});
  ASSERT_TRUE(round.has_value());
  EXPECT_NEAR(round->level1_delta.value(), 2.0, 1e-12);
  // Compare to a sustained rise of the same per-sample magnitude, which
  // scores twice as high:
  TwoLevelWindow w2;
  w2.add_sample(Celsius{50.0});
  w2.add_sample(Celsius{50.0});
  w2.add_sample(Celsius{52.0});
  const auto round2 = w2.add_sample(Celsius{52.0});
  EXPECT_NEAR(round2->level1_delta.value(), 4.0, 1e-12);
}

TEST(TwoLevelWindow, AlternatingJitterCancels) {
  TwoLevelWindow w;
  w.add_sample(Celsius{50.0});
  w.add_sample(Celsius{51.0});
  w.add_sample(Celsius{50.0});
  const auto round = w.add_sample(Celsius{51.0});
  ASSERT_TRUE(round.has_value());
  EXPECT_DOUBLE_EQ(round->level1_delta.value(), 0.0);
}

TEST(TwoLevelWindow, Level2NotValidUntilTwoRounds) {
  TwoLevelWindow w;
  for (int i = 0; i < 3; ++i) {
    w.add_sample(Celsius{40.0});
  }
  const auto first = w.add_sample(Celsius{40.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->level2_valid);

  for (int i = 0; i < 3; ++i) {
    w.add_sample(Celsius{41.0});
  }
  const auto second = w.add_sample(Celsius{41.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->level2_valid);
  EXPECT_NEAR(second->level2_delta.value(), 1.0, 1e-12);
}

TEST(TwoLevelWindow, Level2TracksGradualTrendAcrossRounds) {
  // A slow drift of +0.1 °C per sample is nearly invisible to Δt_L1
  // (0.2 per round) but accumulates to Δt_L2 ≈ 1.6 across the 5-round FIFO.
  TwoLevelWindow w;
  double t = 40.0;
  CelsiusDelta last_l1{0.0};
  CelsiusDelta last_l2{0.0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      const auto r = w.add_sample(Celsius{t});
      if (r.has_value()) {
        last_l1 = r->level1_delta;
        last_l2 = r->level2_delta;
      }
      t += 0.1;
    }
  }
  EXPECT_NEAR(last_l1.value(), 0.4, 1e-9);
  EXPECT_NEAR(last_l2.value(), 1.6, 1e-9);
  EXPECT_GT(last_l2.value(), 3.0 * last_l1.value());
}

TEST(TwoLevelWindow, FifoEvictsOldestRound) {
  WindowConfig cfg;
  cfg.level2_size = 2;
  TwoLevelWindow w{cfg};
  auto push_round = [&w](double temp) {
    std::optional<WindowRound> r;
    for (int i = 0; i < 4; ++i) {
      r = w.add_sample(Celsius{temp});
    }
    return *r;
  };
  push_round(40.0);
  push_round(45.0);
  const WindowRound r = push_round(50.0);
  // FIFO holds {45, 50}: delta = 5, not 10.
  EXPECT_NEAR(r.level2_delta.value(), 5.0, 1e-12);
  EXPECT_NEAR(w.level2_front().value(), 45.0, 1e-12);
  EXPECT_NEAR(w.level2_rear().value(), 50.0, 1e-12);
}

TEST(TwoLevelWindow, ResetClearsBothLevels) {
  TwoLevelWindow w;
  for (int i = 0; i < 9; ++i) {
    w.add_sample(Celsius{40.0});
  }
  w.reset();
  EXPECT_EQ(w.level1_fill(), 0u);
  EXPECT_EQ(w.level2_fill(), 0u);
}

TEST(TwoLevelWindow, PaperTimingFourHzGivesOneSecondRounds) {
  // 4 samples/s with a 4-entry level-one window = 1 round per second
  // (§3.2.1's worked example).
  TwoLevelWindow w;
  int rounds = 0;
  for (int sample = 0; sample < 4 * 10; ++sample) {  // 10 s at 4 Hz
    if (w.add_sample(Celsius{40.0}).has_value()) {
      ++rounds;
    }
  }
  EXPECT_EQ(rounds, 10);
}

TEST(TwoLevelWindowDeath, OddLevel1SizeAborts) {
  WindowConfig cfg;
  cfg.level1_size = 3;
  EXPECT_DEATH(TwoLevelWindow{cfg}, "even");
}

TEST(TwoLevelWindowDeath, TinyLevel2Aborts) {
  WindowConfig cfg;
  cfg.level2_size = 1;
  EXPECT_DEATH(TwoLevelWindow{cfg}, "level-two");
}

TEST(TwoLevelWindowDeath, OversizedLevelAborts) {
  WindowConfig wide;
  wide.level1_size = TwoLevelWindow::kMaxLevel + 2;
  EXPECT_DEATH(TwoLevelWindow{wide}, "kMaxLevel");
  WindowConfig deep;
  deep.level2_size = TwoLevelWindow::kMaxLevel + 1;
  EXPECT_DEATH(TwoLevelWindow{deep}, "kMaxLevel");
}

// Sweep window geometries as (level1, level2) pairs: a linear ramp of rate r
// gives Δt_L1 = r * (level1/2)^2 exactly, for any even level-one size.
class WindowGeometrySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
 protected:
  [[nodiscard]] static WindowConfig geometry() {
    WindowConfig cfg;
    cfg.level1_size = GetParam().first;
    cfg.level2_size = GetParam().second;
    return cfg;
  }
};

TEST_P(WindowGeometrySweep, RampDeltaMatchesClosedForm) {
  const WindowConfig cfg = geometry();
  TwoLevelWindow w{cfg};
  const double rate = 0.5;
  std::optional<WindowRound> round;
  for (std::size_t i = 0; i < cfg.level1_size; ++i) {
    round = w.add_sample(Celsius{40.0 + rate * static_cast<double>(i)});
  }
  ASSERT_TRUE(round.has_value());
  const double half = static_cast<double>(cfg.level1_size) / 2.0;
  EXPECT_NEAR(round->level1_delta.value(), rate * half * half, 1e-9);
}

/// The §3.2.1 arithmetic written out plainly: level-one samples in a
/// vector, the level-two FIFO in a deque. Sums run left to right from 0.0,
/// in the order the paper states them, so results compare bitwise.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(WindowConfig cfg) : cfg_(cfg) {}

  std::optional<WindowRound> add_sample(double t) {
    level1_.push_back(t);
    if (level1_.size() < cfg_.level1_size) {
      return std::nullopt;
    }
    const std::size_t half = cfg_.level1_size / 2;
    double first = 0.0;
    double second = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < level1_.size(); ++i) {
      total += level1_[i];
      (i < half ? first : second) += level1_[i];
    }
    WindowRound round;
    round.level1_delta = CelsiusDelta{second - first};
    round.level1_average = Celsius{total / static_cast<double>(cfg_.level1_size)};
    fifo_.push_back(round.level1_average.value());
    if (fifo_.size() > cfg_.level2_size) {
      fifo_.pop_front();
    }
    if (fifo_.size() >= 2) {
      round.level2_delta = CelsiusDelta{fifo_.back() - fifo_.front()};
      round.level2_valid = true;
    }
    level1_.clear();
    return round;
  }

  void reset() {
    level1_.clear();
    fifo_.clear();
  }

  [[nodiscard]] std::size_t level1_fill() const { return level1_.size(); }
  [[nodiscard]] const std::deque<double>& fifo() const { return fifo_; }

 private:
  WindowConfig cfg_;
  std::vector<double> level1_;
  std::deque<double> fifo_;
};

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

TEST_P(WindowGeometrySweep, MatchesReferenceThroughFifoWrapsAndReset) {
  const WindowConfig cfg = geometry();
  TwoLevelWindow w{cfg};
  ReferenceWindow ref{cfg};
  std::size_t sample = 0;
  std::size_t rounds = 0;
  auto feed = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k, ++sample) {
      // Irregular, non-dyadic values so every sum rounds.
      const double x = static_cast<double>(sample);
      const double t = 45.0 + 6.0 * std::sin(0.37 * x) + 0.013 * static_cast<double>(sample % 7);
      const auto got = w.add_sample(Celsius{t});
      const auto want = ref.add_sample(t);
      ASSERT_EQ(got.has_value(), want.has_value()) << "sample " << sample;
      if (got.has_value()) {
        ++rounds;
        EXPECT_EQ(bits(got->level1_delta.value()), bits(want->level1_delta.value()));
        EXPECT_EQ(bits(got->level2_delta.value()), bits(want->level2_delta.value()));
        EXPECT_EQ(bits(got->level1_average.value()), bits(want->level1_average.value()));
        EXPECT_EQ(got->level2_valid, want->level2_valid);
      }
      ASSERT_EQ(w.level1_fill(), ref.level1_fill()) << "sample " << sample;
      ASSERT_EQ(w.level2_fill(), ref.fifo().size()) << "sample " << sample;
      if (!ref.fifo().empty()) {
        EXPECT_EQ(bits(w.level2_front().value()), bits(ref.fifo().front()));
        EXPECT_EQ(bits(w.level2_rear().value()), bits(ref.fifo().back()));
      }
    }
  };
  // Three full FIFO wraps plus one round, then half a round in flight.
  const std::size_t wrap_rounds = 3 * cfg.level2_size + 1;
  feed(wrap_rounds * cfg.level1_size + cfg.level1_size / 2);
  ASSERT_EQ(rounds, wrap_rounds);
  ASSERT_EQ(w.level1_fill(), cfg.level1_size / 2);
  w.reset();
  ref.reset();
  ASSERT_EQ(w.level1_fill(), 0u);
  ASSERT_EQ(w.level2_fill(), 0u);
  // The same again after the reset, with the FIFO head wherever it was left.
  feed(wrap_rounds * cfg.level1_size + 1);
  EXPECT_EQ(rounds, 2 * wrap_rounds);
}

INSTANTIATE_TEST_SUITE_P(EvenSizes, WindowGeometrySweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{2, 2},
                                           std::pair<std::size_t, std::size_t>{4, 5},
                                           std::pair<std::size_t, std::size_t>{6, 3},
                                           std::pair<std::size_t, std::size_t>{8, 16},
                                           std::pair<std::size_t, std::size_t>{16, 16}));

TEST(TwoLevelWindow, CopyMidRoundEvolvesIndependently) {
  // A window is a plain value: a copy taken mid-round with rounds already in
  // the FIFO carries the whole history, tracks the original bitwise when
  // fed the same stream, and never writes through to it.
  TwoLevelWindow original;
  for (int i = 0; i < 14; ++i) {  // three full rounds + 2 samples in flight
    original.add_sample(Celsius{40.0 + 0.3 * i});
  }
  ASSERT_EQ(original.level1_fill(), 2u);
  ASSERT_EQ(original.level2_fill(), 3u);

  TwoLevelWindow copy = original;
  for (int i = 0; i < 30; ++i) {  // rounds, FIFO wraps, then a reset
    const double t = 45.0 - 0.2 * i;
    const auto a = original.add_sample(Celsius{t});
    const auto b = copy.add_sample(Celsius{t});
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(bits(a->level1_delta.value()), bits(b->level1_delta.value()));
      EXPECT_EQ(bits(a->level2_delta.value()), bits(b->level2_delta.value()));
      EXPECT_EQ(bits(a->level1_average.value()), bits(b->level1_average.value()));
      EXPECT_EQ(a->level2_valid, b->level2_valid);
    }
    ASSERT_EQ(copy.level1_fill(), original.level1_fill());
    ASSERT_EQ(copy.level2_fill(), original.level2_fill());
    EXPECT_EQ(bits(copy.level2_front().value()), bits(original.level2_front().value()));
    EXPECT_EQ(bits(copy.level2_rear().value()), bits(original.level2_rear().value()));
  }

  // Feeding only the copy leaves the original exactly where it was.
  const std::size_t fill = original.level1_fill();
  const std::size_t count = original.level2_fill();
  const std::uint64_t front = bits(original.level2_front().value());
  const std::uint64_t rear = bits(original.level2_rear().value());
  for (int i = 0; i < 9; ++i) {
    copy.add_sample(Celsius{60.0 + i});
  }
  copy.reset();
  EXPECT_EQ(original.level1_fill(), fill);
  EXPECT_EQ(original.level2_fill(), count);
  EXPECT_EQ(bits(original.level2_front().value()), front);
  EXPECT_EQ(bits(original.level2_rear().value()), rear);
}

}  // namespace
}  // namespace thermctl::core
