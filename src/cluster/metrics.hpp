// Experiment metrics: recorded series and run summaries.
//
// The engine samples every node at a fixed period (default 250 ms, matching
// the paper's plots, whose x axes are "sample points" at 4 Hz). A RunResult
// carries everything a bench needs to print its table/figure series and is
// cheap to copy around.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace thermctl::cluster {

/// Program-activity codes recorded per sample when an app rank runs on the
/// node (Tempest-style attribution input). Matches workload::PhaseKind plus
/// sentinels for "no rank here" and "rank finished".
enum class ActivityCode : int {
  kNone = 0,      // no app rank mapped to this node
  kCompute = 1,
  kCommunicate = 2,
  kIdlePhase = 3,
  kBarrier = 4,
  kFinished = 5,
};

/// One node's recorded series, index-aligned with RunResult::times.
struct NodeSeries {
  std::vector<double> die_temp;     // true die temperature, °C
  std::vector<double> sensor_temp;  // what the controller saw, °C
  std::vector<double> duty;         // fan PWM duty, %
  std::vector<double> rpm;          // fan speed
  std::vector<double> freq_ghz;     // OS-selected CPU frequency
  std::vector<double> power_w;      // wall power (meter reading)
  std::vector<double> util;         // workload utilization fraction
  std::vector<double> activity;     // ActivityCode as double (CSV-friendly)
};

/// Per-node aggregates computed at the end of a run.
struct NodeSummary {
  double avg_die_temp = 0.0;
  double max_die_temp = 0.0;
  double avg_duty = 0.0;
  double avg_power_w = 0.0;     // meter average (energy / time)
  double energy_j = 0.0;        // meter energy integral
  std::uint64_t freq_transitions = 0;
  int prochot_events = 0;
  double prochot_seconds = 0.0;
  double seconds_above_threshold = 0.0;  // die time above the run's threshold
  // Fault-event counters from the node's fan-driver i2c path (all zero on a
  // clean run).
  std::uint64_t i2c_retries = 0;
  std::uint64_t i2c_naks = 0;        // address NAKs seen (attempt outcomes)
  std::uint64_t i2c_bus_faults = 0;  // bus-fault attempt outcomes
  std::uint64_t i2c_exhausted = 0;   // transfers that failed after all retries
};

struct RunResult {
  std::vector<double> times;  // seconds, shared by all node series
  std::vector<NodeSeries> nodes;
  std::vector<NodeSummary> summaries;

  bool app_completed = false;
  double exec_time_s = 0.0;  // app completion time (or horizon if it ran out)

  /// Cluster averages across nodes.
  [[nodiscard]] double avg_power_w() const;
  [[nodiscard]] double avg_die_temp() const;
  [[nodiscard]] double max_die_temp() const;
  [[nodiscard]] double avg_duty() const;
  [[nodiscard]] std::uint64_t total_freq_transitions() const;

  /// Cluster totals of the per-node i2c fault counters.
  [[nodiscard]] std::uint64_t total_i2c_retries() const;
  [[nodiscard]] std::uint64_t total_i2c_bus_faults() const;
  [[nodiscard]] std::uint64_t total_i2c_exhausted() const;

  /// Power-delay product, the paper's combined metric (Table 1): average
  /// per-node wall power × execution time.
  [[nodiscard]] double power_delay_product() const { return avg_power_w() * exec_time_s; }

  /// Writes `times` plus the chosen per-node field for all nodes as CSV.
  void write_csv(const std::string& path, const std::string& field) const;
};

/// Accumulates samples during a run; the engine owns one.
///
/// Hot-path layout: samples are staged column-major — eight flat arrays, one
/// per recorded field, grown a whole fleet row at a time — because the
/// recording loop visits every node each round. Appending into per-node
/// series here would touch 8 x node_count scattered heap buffers per round
/// (at 100k nodes that is ~800k cache misses every record tick, and it shows
/// up as ~30% of a fleet-ladder run). The per-node `RunResult::nodes` shape
/// that everything downstream consumes is materialized by result(), a
/// blocked transpose of every round staged so far — same values, same order,
/// bit-identical output.
class MetricsRecorder {
  static constexpr std::size_t kFieldCount = 8;

 public:
  /// One sampling round's slots in the staging columns. Each node's slot is
  /// written with set(); threads filling disjoint node ranges never touch
  /// the same element. Valid until the next append_row().
  class Row {
   public:
    void set(std::size_t node, double die, double sensor, double duty, double rpm,
             double freq_ghz, double power_w, double util,
             ActivityCode activity = ActivityCode::kNone) const;

   private:
    friend class MetricsRecorder;
    std::array<double*, kFieldCount> cols_{};
    std::size_t node_count_ = 0;
  };

  explicit MetricsRecorder(std::size_t node_count);

  /// Stamps a sampling round at `t_seconds` and grows every column by one
  /// whole fleet row, whose slots the caller then fills, every node once.
  [[nodiscard]] Row append_row(double t_seconds);

  /// Pre-sizes the staging columns for `samples` sampling rounds so recording
  /// never reallocates mid-run. A hint: recording past it still works.
  void reserve(std::size_t samples);

  /// Every round recorded so far as per-node series (summaries sized, zero).
  /// Nodes are transposed per range through runtime::for_each_shard, so
  /// inside a sharded engine's run() the shards share the work.
  [[nodiscard]] RunResult result() const;

 private:
  /// Leaves the slots a resize() adds uninitialized: every slot of a row is
  /// written by the fill that follows append_row(), so zeroing it first
  /// would be a serial pass over the row (with its first-touch page faults)
  /// ahead of the sharded one.
  template <typename T>
  struct UninitializedGrowth : std::allocator<T> {
    using value_type = T;
    UninitializedGrowth() = default;
    template <typename U>
    UninitializedGrowth(const UninitializedGrowth<U>&) noexcept {}
    template <typename U>
    struct rebind {
      using other = UninitializedGrowth<U>;
    };
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  using Column = std::vector<double, UninitializedGrowth<double>>;

  std::size_t node_count_ = 0;
  std::vector<double> times_;
  std::array<Column, kFieldCount> cols_;
};

}  // namespace thermctl::cluster
