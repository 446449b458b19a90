// Shared pieces of the thermctl benchmark: wall clocks, quantiles, process
// memory, the output digest, the span recorder behind the traced run, and
// the metric list every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"

namespace thermbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Process peak resident set size in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();
/// Current resident set size in bytes (/proc/self/statm).
[[nodiscard]] std::size_t current_rss_bytes();
/// Returns freed heap pages to the OS so the next RSS delta is this rig's.
void trim_heap();

/// Whole `period`s in `steps` steps of `dt`, in the engine's microsecond
/// ticks: how often a periodic task fires over that much simulated time.
[[nodiscard]] inline std::uint64_t periods_in(std::uint64_t steps, thermctl::Seconds dt,
                                              thermctl::Seconds period) {
  const auto us = [](thermctl::Seconds s) {
    return static_cast<std::uint64_t>(thermctl::SimTime::from_seconds(s.value()).us());
  };
  return steps * us(dt) / us(period);
}

/// splitmix64: the benchmark derives every generated input from the seed
/// through this, so inputs do not depend on the library's own RNG.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Order-sensitive 64-bit digest of simulated outputs. Doubles are hashed
/// by their bit patterns, so any change in any result bit changes it.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_doubles(const std::vector<double>& vs) {
    add_u64(vs.size());
    for (double v : vs) {
      add_double(v);
    }
  }
  /// Every recorded series and the per-node summaries of one run.
  void add_run(const thermctl::cluster::RunResult& run);
  /// One node's fan retarget and tDVFS transition logs.
  void add_events(const std::vector<thermctl::core::FanEvent>& fan,
                  const std::vector<thermctl::core::TdvfsEvent>& tdvfs);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// In-memory span recorder for the traced run. A null Tracer* means tracing
/// is off; every helper below is then a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
    std::uint32_t tid = 0;
  };

  /// Opens a span and returns its id.
  int begin(const char* name, int parent);
  void end(int id);
  /// Records a span whose bounds were stamped by the caller.
  int add(const char* name, Clock::time_point start, Clock::time_point end, int parent);
  /// Spans recorded from here on carry this run id.
  void set_run(int run);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes the spans as Chrome trace_event JSON; false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int run_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

struct LayerTime {
  std::string layer;
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // minus the time child spans cover
  std::size_t spans = 0;
};

/// Per-layer totals; a layer is the span name's prefix before the first '.'.
[[nodiscard]] std::vector<LayerTime> layer_times(const std::vector<Tracer::Span>& spans);
/// Self time of every span named `name`, summed.
[[nodiscard]] double self_seconds(const std::vector<Tracer::Span>& spans, const std::string& name);
/// Summed duration of every span named `name`.
[[nodiscard]] double span_seconds(const std::vector<Tracer::Span>& spans, const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 for a single measurement or an exact count
};

/// What one workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  std::string digest;  // empty for workloads whose outputs depend on timing

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
};

/// Scale of the generated inputs: kFull is the benchmark proper, kTiny is the
/// same code on small inputs for the benchmark's own tests.
enum class Scale { kFull, kTiny };

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  unsigned hw_threads = 1;
  Tracer* tracer = nullptr;  // non-null exactly when trace is on
  /// Directory (inside the checkout) for the daemon socket.
  std::string work_dir = ".";
  /// daemon_ops test hook: schedule one out-of-range set-policy, which the
  /// daemon must refuse, so the run has a failed reply.
  bool inject_refused = false;
};

Outcome run_fleet(const RunOptions& opt);
Outcome run_sweep(const RunOptions& opt);
Outcome run_daemon(const RunOptions& opt);

}  // namespace thermbench
