#include "verify/differential.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "obs/openmetrics.hpp"
#include "obs/spill.hpp"
#include "runtime/sweep.hpp"

namespace thermctl::verify {

const char* to_string(OraclePairKind kind) {
  switch (kind) {
    case OraclePairKind::kSerialVsParallel:
      return "serial-vs-parallel";
    case OraclePairKind::kTelemetryOnVsOff:
      return "telemetry-on-vs-off";
    case OraclePairKind::kFaultAwareZeroFault:
      return "fault-aware-zero-fault";
    case OraclePairKind::kShardedVsSerial:
      return "sharded-vs-serial";
    case OraclePairKind::kPlanePassiveVsDetached:
      return "plane-passive-vs-detached";
    case OraclePairKind::kLiveTelemetryOnVsOff:
      return "live-telemetry-on-vs-off";
    case OraclePairKind::kDaemonPassiveVsEngine:
      return "daemon-passive-vs-engine";
  }
  return "unknown";
}

namespace {

/// Accumulates bit-exact field comparisons into a ResultDiff.
struct Differ {
  ResultDiff diff;
  std::size_t cap;

  explicit Differ(std::size_t max_differences) : cap(max_differences) {}

  void mismatch(const std::string& what) {
    ++diff.difference_count;
    if (diff.differences.size() < cap) {
      diff.differences.push_back(what);
    }
  }

  void f64(const std::string& name, double a, double b) {
    ++diff.fields_compared;
    // Bit-pattern equality: NaN == NaN, but -0.0 != +0.0 and any ULP drift
    // counts. Determinism means *identical*, not "close".
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      std::ostringstream msg;
      msg << name << ": " << a << " != " << b;
      mismatch(msg.str());
    }
  }

  void u64(const std::string& name, std::uint64_t a, std::uint64_t b) {
    ++diff.fields_compared;
    if (a != b) {
      std::ostringstream msg;
      msg << name << ": " << a << " != " << b;
      mismatch(msg.str());
    }
  }

  void f64_vec(const std::string& name, const std::vector<double>& a,
               const std::vector<double>& b) {
    ++diff.fields_compared;
    if (a.size() != b.size()) {
      std::ostringstream msg;
      msg << name << ".size: " << a.size() << " != " << b.size();
      mismatch(msg.str());
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      f64(name + "[" + std::to_string(i) + "]", a[i], b[i]);
    }
  }
};

/// Folds every walked field of one result into a 64-bit hash. Names are
/// ignored; sizes and values (doubles by bit pattern) are hashed in walk
/// order, so the digest covers exactly what a diff would compare.
struct Digester {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void add(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  void f64(const std::string& /*name*/, double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void u64(const std::string& /*name*/, std::uint64_t v) { add(v); }
  void f64_vec(const std::string& /*name*/, const std::vector<double>& v) {
    add(v.size());
    for (double x : v) {
      add(std::bit_cast<std::uint64_t>(x));
    }
  }
};

/// The one list of behavioural fields, walked over one result (digest) or a
/// pair (diff): every sink call receives the field from each of `r...`.
/// Nested sequences are walked up to the shortest length after their sizes
/// are handed to the sink. Telemetry payloads (trace, metrics snapshot,
/// plane stats) are deliberately not walked.
template <typename Sink, typename... R>
void walk_result(Sink& s, const R&... r) {
  const auto b = [](bool v) { return std::uint64_t{v ? 1u : 0u}; };

  s.f64_vec("times", r.run.times...);
  s.u64("app_completed", b(r.run.app_completed)...);
  s.f64("exec_time_s", r.run.exec_time_s...);

  s.u64("nodes.size", r.run.nodes.size()...);
  for (std::size_t i = 0; i < std::min({r.run.nodes.size()...}); ++i) {
    const std::string p = "node" + std::to_string(i) + ".";
    s.f64_vec(p + "die_temp", r.run.nodes[i].die_temp...);
    s.f64_vec(p + "sensor_temp", r.run.nodes[i].sensor_temp...);
    s.f64_vec(p + "duty", r.run.nodes[i].duty...);
    s.f64_vec(p + "rpm", r.run.nodes[i].rpm...);
    s.f64_vec(p + "freq_ghz", r.run.nodes[i].freq_ghz...);
    s.f64_vec(p + "power_w", r.run.nodes[i].power_w...);
    s.f64_vec(p + "util", r.run.nodes[i].util...);
    s.f64_vec(p + "activity", r.run.nodes[i].activity...);
  }

  s.u64("summaries.size", r.run.summaries.size()...);
  for (std::size_t i = 0; i < std::min({r.run.summaries.size()...}); ++i) {
    const std::string p = "summary" + std::to_string(i) + ".";
    s.f64(p + "avg_die_temp", r.run.summaries[i].avg_die_temp...);
    s.f64(p + "max_die_temp", r.run.summaries[i].max_die_temp...);
    s.f64(p + "avg_duty", r.run.summaries[i].avg_duty...);
    s.f64(p + "avg_power_w", r.run.summaries[i].avg_power_w...);
    s.f64(p + "energy_j", r.run.summaries[i].energy_j...);
    s.u64(p + "freq_transitions", r.run.summaries[i].freq_transitions...);
    s.u64(p + "prochot_events",
          static_cast<std::uint64_t>(r.run.summaries[i].prochot_events)...);
    s.f64(p + "prochot_seconds", r.run.summaries[i].prochot_seconds...);
    s.f64(p + "seconds_above_threshold", r.run.summaries[i].seconds_above_threshold...);
    s.u64(p + "i2c_retries", r.run.summaries[i].i2c_retries...);
    s.u64(p + "i2c_naks", r.run.summaries[i].i2c_naks...);
    s.u64(p + "i2c_bus_faults", r.run.summaries[i].i2c_bus_faults...);
    s.u64(p + "i2c_exhausted", r.run.summaries[i].i2c_exhausted...);
  }

  s.f64("first_dvfs_trigger_s", r.first_dvfs_trigger_s...);

  s.u64("tdvfs_events.size", r.tdvfs_events.size()...);
  for (std::size_t i = 0; i < std::min({r.tdvfs_events.size()...}); ++i) {
    const std::string p = "tdvfs" + std::to_string(i);
    s.u64(p + ".size", r.tdvfs_events[i].size()...);
    for (std::size_t k = 0; k < std::min({r.tdvfs_events[i].size()...}); ++k) {
      const std::string q = p + "[" + std::to_string(k) + "].";
      s.f64(q + "time_s", r.tdvfs_events[i][k].time_s...);
      s.f64(q + "from_ghz", r.tdvfs_events[i][k].from_ghz...);
      s.f64(q + "to_ghz", r.tdvfs_events[i][k].to_ghz...);
    }
  }

  s.u64("fan_events.size", r.fan_events.size()...);
  for (std::size_t i = 0; i < std::min({r.fan_events.size()...}); ++i) {
    const std::string p = "fan" + std::to_string(i);
    s.u64(p + ".size", r.fan_events[i].size()...);
    for (std::size_t k = 0; k < std::min({r.fan_events[i].size()...}); ++k) {
      const std::string q = p + "[" + std::to_string(k) + "].";
      s.f64(q + "time_s", r.fan_events[i][k].time_s...);
      s.f64(q + "from_duty", r.fan_events[i][k].from_duty...);
      s.f64(q + "to_duty", r.fan_events[i][k].to_duty...);
      s.u64(q + "used_level2", b(r.fan_events[i][k].used_level2)...);
    }
  }

  s.u64("fault.failsafe_entries", r.fault_stats.failsafe_entries...);
  s.u64("fault.failsafe_exits", r.fault_stats.failsafe_exits...);
  s.u64("fault.dvfs_hold_entries", r.fault_stats.dvfs_hold_entries...);
  s.u64("fault.dvfs_held_ticks", r.fault_stats.dvfs_held_ticks...);
  s.u64("fault.sensor_rejected", r.fault_stats.sensor_rejected...);
  s.u64("fault.sensor_stuck_detections", r.fault_stats.sensor_stuck_detections...);
  s.u64("fault.sensor_failures", r.fault_stats.sensor_failures...);
  s.u64("fault.sensor_recoveries", r.fault_stats.sensor_recoveries...);
}

}  // namespace

ResultDiff diff_results(const core::ExperimentResult& a, const core::ExperimentResult& b,
                        std::size_t max_differences) {
  Differ d{max_differences};
  walk_result(d, a, b);
  return d.diff;
}

std::uint64_t digest_result(const core::ExperimentResult& result) {
  Digester d;
  walk_result(d, result);
  return d.h;
}

std::vector<core::ExperimentConfig> make_oracle_corpus(std::uint64_t seed, std::size_t count) {
  std::vector<core::ExperimentConfig> corpus;
  corpus.reserve(count);
  Rng rng{seed};
  for (std::size_t i = 0; i < count; ++i) {
    core::ExperimentConfig cfg = core::paper_platform();
    cfg.name = "oracle-" + std::to_string(i);
    // Mostly small racks for speed; every fourth config is wide enough that
    // the sharded-vs-serial pair exercises multi-node shards and partitions
    // the shard count does not divide evenly.
    cfg.nodes = (i % 4 == 3) ? 4 + rng.below(5) : 1 + rng.below(3);
    cfg.seed = rng.next_u64();
    cfg.pp = core::PolicyParam{static_cast<int>(1 + rng.below(100))};
    cfg.max_duty = DutyCycle{static_cast<double>(60 + rng.below(41))};
    cfg.fan = core::FanPolicyKind::kDynamic;

    // Small, fast workloads: each point simulates 20–45 s at 1–3 nodes so a
    // >= 20-config corpus (x4 passes) stays inside a CI budget.
    switch (rng.below(3)) {
      case 0:
        cfg.workload = core::WorkloadKind::kIdle;
        cfg.engine.horizon = Seconds{rng.uniform(20.0, 35.0)};
        break;
      case 1:
        cfg.workload = core::WorkloadKind::kCpuBurn;
        cfg.cpu_burn_duration = Seconds{rng.uniform(8.0, 14.0)};
        cfg.engine.horizon = Seconds{20.0};
        break;
      default:
        cfg.workload = core::WorkloadKind::kCpuBurnCycles;
        cfg.cpu_burn_duration = Seconds{rng.uniform(40.0, 45.0)};
        break;
    }

    if (rng.uniform() < 0.5) {
      cfg.dvfs = core::DvfsPolicyKind::kTdvfs;
      // Thresholds low enough that some corpus points actually trigger.
      cfg.tdvfs.threshold = Celsius{rng.uniform(44.0, 54.0)};
    }
    corpus.push_back(std::move(cfg));
  }
  return corpus;
}

OracleReport run_oracle(const std::vector<core::ExperimentConfig>& corpus,
                        OracleOptions options) {
  OracleReport report;
  report.configs = corpus.size();

  auto record = [&](std::size_t index, OraclePairKind kind, ResultDiff diff) {
    ++report.pairs_checked;
    if (!diff.identical()) {
      report.failures.push_back(
          OracleFailure{index, corpus[index].name, kind, std::move(diff)});
    }
  };

  // Reference pass: strictly serial.
  const std::vector<core::ExperimentResult> base =
      runtime::run_sweep(corpus, runtime::SweepOptions{.threads = 1});

  // Pair 1: the same corpus across worker threads.
  {
    const std::vector<core::ExperimentResult> parallel =
        runtime::run_sweep(corpus, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kSerialVsParallel,
             diff_results(base[i], parallel[i], options.max_differences));
    }
  }

  // Pair 2: telemetry armed (trace + metrics). The payloads differ by
  // construction; everything behavioural must not.
  {
    std::vector<core::ExperimentConfig> lit = corpus;
    for (core::ExperimentConfig& cfg : lit) {
      cfg.telemetry.trace = true;
      cfg.telemetry.metrics = true;
    }
    const std::vector<core::ExperimentResult> traced =
        runtime::run_sweep(lit, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kTelemetryOnVsOff,
             diff_results(base[i], traced[i], options.max_differences));
    }
  }

  // Pair 3: fault-aware gating enabled with nothing to gate (no fault
  // campaign): the monitors watch every sample but must never intervene.
  {
    std::vector<core::ExperimentConfig> gated = corpus;
    for (core::ExperimentConfig& cfg : gated) {
      cfg.fault_aware = true;
      cfg.faults.enabled = false;
    }
    const std::vector<core::ExperimentResult> aware =
        runtime::run_sweep(gated, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kFaultAwareZeroFault,
             diff_results(base[i], aware[i], options.max_differences));
    }
  }

  // Pair 4: the sharded engine. Same configs, but the per-step physics phase
  // is split across 2–5 worker shards (varied per config so both divisible
  // and non-divisible node/shard partitions occur, and shard counts above
  // the node count get clamped). BSP with one barrier per step must be
  // bit-identical to the serial engine.
  {
    std::vector<core::ExperimentConfig> sharded = corpus;
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      sharded[i].engine.workers = static_cast<int>(2 + i % 4);
    }
    const std::vector<core::ExperimentResult> shard_res =
        runtime::run_sweep(sharded, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kShardedVsSerial,
             diff_results(base[i], shard_res[i], options.max_differences));
    }
  }

  // Pair 5: a passive hierarchical control plane attached (joins, telemetry,
  // budget heartbeats all flow every plane round — over a lossy transport,
  // even) vs no plane at all. Passive agents never touch cpufreq or the
  // policy sinks, so the node behaviour must be bit-identical; plane_stats
  // is the only thing allowed to differ and is not diffed.
  {
    std::vector<core::ExperimentConfig> planed = corpus;
    for (std::size_t i = 0; i < planed.size(); ++i) {
      core::ExperimentConfig& cfg = planed[i];
      cfg.control_plane.enabled = true;
      cfg.control_plane.plane.passive = true;
      // Exercise the budget/tightening paths too: they must compute but not
      // actuate. Vary rack width so single- and multi-rack layouts occur.
      cfg.control_plane.plane.nodes_per_rack = 1 + i % 3;
      cfg.control_plane.plane.rack_budget_w = 150.0;
      cfg.control_plane.plane.room_budget_w = 400.0;
      // Faulty transport on half the corpus: drops and reorders consume the
      // plane's own RNG, which must stay isolated from the run's streams.
      if (i % 2 == 1) {
        cfg.control_plane.plane.transport.drop_rate = 0.2;
        cfg.control_plane.plane.transport.reorder_rate = 0.2;
      }
    }
    const std::vector<core::ExperimentResult> attached =
        runtime::run_sweep(planed, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kPlanePassiveVsDetached,
             diff_results(base[i], attached[i], options.max_differences));
    }
  }

  // Pair 6: the full live telemetry pipeline armed — streaming spiller into
  // an in-memory sink, fleet rollups on a sub-second cadence, watchdog rules
  // set low enough to actually fire, and mid-run OpenMetrics expositions
  // into a capturing sink. All of it is observation on the engine thread's
  // serial phases; node behaviour must stay bit-identical to the dark run.
  {
    std::vector<core::ExperimentConfig> live = corpus;
    // Sinks are raw non-owning pointers in TelemetryConfig; keep them alive
    // across the (possibly parallel) sweep.
    std::vector<std::unique_ptr<obs::MemorySpillSink>> spill_sinks;
    std::vector<std::unique_ptr<obs::CapturingTelemetrySink>> live_sinks;
    spill_sinks.reserve(live.size());
    live_sinks.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      core::ExperimentConfig& cfg = live[i];
      cfg.telemetry.trace = true;
      cfg.telemetry.metrics = true;
      // Tiny rings + tight budgets force wraps, deferrals and spiller
      // catch-up — the paths most likely to hide a behavioural side effect.
      cfg.telemetry.trace_ring_capacity = 32;
      cfg.telemetry.spill = true;
      cfg.telemetry.spill_cfg.period_s = 0.5;
      cfg.telemetry.spill_cfg.max_events_per_drain = i % 2 == 0 ? 0 : 16;
      spill_sinks.push_back(std::make_unique<obs::MemorySpillSink>());
      cfg.telemetry.spill_sink = spill_sinks.back().get();
      cfg.telemetry.rollup.enabled = true;
      cfg.telemetry.rollup.interval_s = 0.5;
      cfg.telemetry.rollup.nodes_per_rack = 1 + i % 3;
      cfg.telemetry.rollup.violation_temp_c = 45.0;
      cfg.telemetry.alerts = {
          {"hot-rack", obs::AlertKind::kMaxTemp, 45.0, 1.0, true},
          {"fleet-power", obs::AlertKind::kPowerOverBudget, 50.0, 0.0, false},
      };
      live_sinks.push_back(std::make_unique<obs::CapturingTelemetrySink>());
      cfg.telemetry.live_sink = live_sinks.back().get();
      cfg.telemetry.live_every = 2;
    }
    const std::vector<core::ExperimentResult> lit =
        runtime::run_sweep(live, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kLiveTelemetryOnVsOff,
             diff_results(base[i], lit[i], options.max_differences));
    }
  }

  // Pair 7: the same config hosted inside thermctld with no socket and no
  // commands. The daemon's control round rides the engine as one more
  // periodic observer (pet the deadman, drain an empty queue, refresh a
  // status snapshot), so a command-free daemon run must be bit-identical to
  // the plain engine run. Serial by necessity: Daemon::run() wraps
  // run_experiment itself, so it cannot go through run_sweep.
  {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      daemon::DaemonConfig dc;
      dc.experiment = corpus[i];
      // Armed but effectively un-fireable: a spurious failsafe would actuate.
      dc.watchdog_timeout_s = 3600.0;
      daemon::Daemon d{dc};
      const core::ExperimentResult hosted = d.run();
      record(i, OraclePairKind::kDaemonPassiveVsEngine,
             diff_results(base[i], hosted, options.max_differences));
    }
  }

  return report;
}

std::string OracleReport::to_string() const {
  std::ostringstream out;
  out << configs << " configs, " << pairs_checked << " pairs checked, " << failures.size()
      << " failing";
  for (const OracleFailure& f : failures) {
    out << "\n  config " << f.config_index << " (" << f.config_name << ") "
        << verify::to_string(f.kind) << ": " << f.diff.difference_count << " diffs";
    for (const std::string& line : f.diff.differences) {
      out << "\n    " << line;
    }
  }
  return out.str();
}

}  // namespace thermctl::verify
