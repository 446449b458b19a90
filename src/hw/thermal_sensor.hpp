// Digital thermal sensor model.
//
// The controller never sees the true die temperature — it sees what the
// on-die diode + ADC report: a quantized, noisy, sample-and-hold value at a
// fixed rate (the paper samples at 4 Hz via lm-sensors). Quantization noise
// is precisely what produces the "jitter" (Type III) behaviour the two-level
// window must ignore, so the sensor model is load-bearing for the evaluation.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace thermctl::hw {

struct SensorParams {
  /// ADC step (lm-sensors k8temp exposes 1 °C; the ADT7467 remote channel
  /// resolves 0.25 °C — default to the finer one, experiments can coarsen).
  double quantization_degc = 0.25;
  /// Gaussian measurement noise before quantization (1 sigma).
  double noise_sigma_degc = 0.18;
  /// Fixed calibration offset.
  double offset_degc = 0.0;
};

class ThermalSensor {
 public:
  /// Standalone sensor holding its reading in a one-slot column of its own.
  /// `source` returns the true temperature being measured.
  ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng);
  /// View holding its reading in slot `slot` of `last_degc`, a column of
  /// sample-and-hold registers (°C, power-on 0.0) such as a fleet's.
  ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng,
                std::vector<double>& last_degc, std::size_t slot);

  // A view holds a reference into its column, so it must not be duplicated.
  ThermalSensor(const ThermalSensor&) = delete;
  ThermalSensor& operator=(const ThermalSensor&) = delete;

  /// Takes a new reading (called on the sampling schedule) and returns it.
  Celsius sample();

  /// Most recent reading without resampling (sample-and-hold).
  [[nodiscard]] Celsius last_reading() const { return Celsius{last_[slot_]}; }

  /// True once at least one real reading exists. Before that,
  /// `last_reading()` is the constructed 0.0 °C placeholder — callers that
  /// can observe the sensor pre-settle should check this first.
  [[nodiscard]] bool ready() const { return has_reading_; }

  /// Fault injection: the sensor reports a frozen value until cleared. A
  /// fault injected before the first `sample()` does NOT freeze the 0.0 °C
  /// placeholder: the first sample still takes a real reading and sticks
  /// there (a frozen register holds its last conversion, not reset garbage).
  void inject_stuck_fault() { stuck_ = true; }
  void clear_fault() { stuck_ = false; }
  [[nodiscard]] bool faulted() const { return stuck_; }

  [[nodiscard]] const SensorParams& params() const { return params_; }

 private:
  ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng,
                std::unique_ptr<std::vector<double>> owned);

  std::function<Celsius()> source_;
  SensorParams params_;
  Rng rng_;
  std::unique_ptr<std::vector<double>> owned_;  // set only for a standalone sensor
  std::vector<double>& last_;
  std::size_t slot_;
  bool stuck_ = false;
  bool has_reading_ = false;
};

}  // namespace thermctl::hw
