// paper_sweep: what a paper user runs — a Pp grid (1..100) x {dynamic fan
// alone, dynamic fan + tDVFS} on the paper's 4-node BT.B platform, fan capped
// at 50 %, decision trace and metrics on as the Fig. 10 bench has them.
//
// Each sweep fans the points out exactly as runtime::run_sweep does — one
// ParallelRunner per sweep, run_experiment per point, engine workers = 1 —
// with clock stamps around each point and at its on_rig_built. The first
// sweep is a warm-up (a cold sweep is ~3x slower) and carries the output
// checks; measured sweeps repeat until the run's time is spent, and every
// one must reproduce the warm-up's digest.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/sweep.hpp"

namespace thermbench {

namespace {

using namespace thermctl;

struct Point {
  int pp = 0;
  bool tdvfs = false;
};

struct PointTiming {
  Clock::time_point entry;
  Clock::time_point built;
  Clock::time_point done;
};

struct SweepRun {
  double wall_s = 0.0;
  std::vector<PointTiming> timing;
  std::vector<core::ExperimentResult> results;
  std::uint64_t errors = 0;
  std::string digest;
  double node_steps = 0.0;
};

std::vector<Point> make_grid(Scale scale) {
  std::vector<Point> grid;
  const std::vector<int> tiny{10, 40, 70, 100};
  for (bool tdvfs : {false, true}) {
    if (scale == Scale::kFull) {
      for (int pp = 1; pp <= 100; ++pp) {
        grid.push_back(Point{pp, tdvfs});
      }
    } else {
      for (int pp : tiny) {
        grid.push_back(Point{pp, tdvfs});
      }
    }
  }
  return grid;
}

core::ExperimentConfig make_config(const Point& p, std::uint64_t seed) {
  core::ExperimentConfig cfg = core::paper_platform();
  cfg.name = "paper_sweep";
  cfg.workload = core::WorkloadKind::kNpbBt;
  cfg.fan = core::FanPolicyKind::kDynamic;
  cfg.dvfs = p.tdvfs ? core::DvfsPolicyKind::kTdvfs : core::DvfsPolicyKind::kNone;
  cfg.pp = core::PolicyParam{p.pp};
  cfg.max_duty = DutyCycle{50.0};
  cfg.engine.workers = 1;
  cfg.seed = mix64(seed);
  cfg.telemetry.trace = true;
  cfg.telemetry.metrics = true;
  return cfg;
}

std::uint64_t counter(const obs::MetricsSnapshot& m, const char* name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

void digest_result(Digest& d, const core::ExperimentResult& r) {
  d.add_run(r.run);
  d.add_u64(r.run.app_completed ? 1 : 0);
  d.add_double(r.run.exec_time_s);
  d.add_double(r.first_dvfs_trigger_s);
  for (std::size_t i = 0; i < r.run.nodes.size(); ++i) {
    d.add_events(r.fan_events[i], r.tdvfs_events[i]);  // both sized to the node count
  }
  for (const char* name : {"engine.steps", "engine.sensor_samples", "engine.record_samples",
                           "fan.retargets", "tdvfs.transitions", "trace.emitted"}) {
    d.add_u64(counter(r.metrics, name));
  }
}

/// One sweep over the grid on `threads` runner threads. With a tracer, each
/// point records core.experiment / core.build / cluster.run_teardown spans
/// under one runtime.map span.
SweepRun run_one_sweep(const std::vector<core::ExperimentConfig>& configs, std::size_t threads,
                       Tracer* tracer) {
  SweepRun sweep;
  sweep.timing.resize(configs.size());
  // Every sweep starts from a trimmed heap, so its rigs' buffers come from
  // fresh pages as in a process's first sweep. Otherwise how much of the
  // last sweep's freed memory glibc kept decides the set-up time (1.1 or
  // 2.7 ms per point), and that stuck per process.
  trim_heap();
  const Clock::time_point start = Clock::now();
  const int map_span = tracer != nullptr ? tracer->begin("runtime.map", -1) : -1;
  {
    runtime::ParallelRunner runner{threads};
    std::vector<std::optional<core::ExperimentResult>> slots =
        runner.map<std::optional<core::ExperimentResult>>(
            configs.size(), [&](std::size_t i) -> std::optional<core::ExperimentResult> {
              PointTiming& t = sweep.timing[i];
              core::ExperimentConfig cfg = configs[i];
              cfg.on_rig_built = [&t](const core::RigView&) { t.built = Clock::now(); };
              t.entry = Clock::now();
              std::optional<core::ExperimentResult> result;
              try {
                result = core::run_experiment(cfg);
              } catch (const std::exception& e) {
                std::fprintf(stderr, "paper_sweep point %zu threw: %s\n", i, e.what());
              }
              t.done = Clock::now();
              if (tracer != nullptr && result) {
                const int id = tracer->add("core.experiment", t.entry, t.done, map_span);
                tracer->add("core.build", t.entry, t.built, id);
                tracer->add("cluster.run_teardown", t.built, t.done, id);
              }
              return result;
            });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i]) {
        sweep.results.push_back(std::move(*slots[i]));
      } else {
        ++sweep.errors;
      }
    }
  }
  if (tracer != nullptr) {
    tracer->end(map_span);
  }
  sweep.wall_s = seconds_between(start, Clock::now());

  Digest d;
  for (const core::ExperimentResult& r : sweep.results) {
    digest_result(d, r);
    sweep.node_steps += static_cast<double>(counter(r.metrics, "engine.steps") *
                                            r.run.nodes.size());
  }
  sweep.digest = d.hex();
  return sweep;
}

/// Fig. 5/10 shape over the grid: average die temperature rises with Pp
/// (checked on quartile-of-Pp means, so one noisy point cannot flip it),
/// every app completes, and the weakest Pp with tDVFS triggers it.
void check_fidelity(Outcome& out, const std::vector<Point>& grid,
                    const std::vector<core::ExperimentResult>& results) {
  bool all_complete = true;
  for (const core::ExperimentResult& r : results) {
    all_complete = all_complete && r.run.app_completed;
  }
  out.check(all_complete, "paper_sweep: an application did not complete");
  for (bool tdvfs : {false, true}) {
    std::vector<double> sum(4, 0.0);
    std::vector<int> n(4, 0);
    int max_pp = 0;
    double weakest_trigger = -1.0;
    for (std::size_t i = 0; i < grid.size() && i < results.size(); ++i) {
      if (grid[i].tdvfs != tdvfs) {
        continue;
      }
      const auto q = static_cast<std::size_t>(std::min(3, (grid[i].pp - 1) / 25));
      sum[q] += results[i].run.avg_die_temp();
      ++n[q];
      if (grid[i].pp > max_pp) {
        max_pp = grid[i].pp;
        weakest_trigger = results[i].first_dvfs_trigger_s;
      }
    }
    for (std::size_t q = 0; q + 1 < 4; ++q) {
      if (n[q] > 0 && n[q + 1] > 0) {
        out.check(sum[q] / n[q] <= sum[q + 1] / n[q + 1] + 0.3,
                  "paper_sweep: average temperature not ordered by Pp");
      }
    }
    if (tdvfs) {
      out.check(weakest_trigger > 0.0, "paper_sweep: the weakest Pp did not trigger tDVFS");
    }
  }
}

}  // namespace

Outcome run_sweep(const RunOptions& opt) {
  Outcome out;
  const std::vector<Point> grid = make_grid(opt.scale);
  std::vector<core::ExperimentConfig> configs;
  for (const Point& p : grid) {
    configs.push_back(make_config(p, opt.seed));
  }
  const std::size_t threads = opt.hw_threads;
  std::printf("paper_sweep: %zu points, %zu runner threads\n", configs.size(), threads);

  auto account = [&](const SweepRun& s, const std::string& reference) {
    out.attempted += configs.size();
    out.failed += s.errors;
    out.check(s.errors == 0, "paper_sweep: an experiment threw");
    out.check(s.digest == reference, "paper_sweep: outputs differ between sweeps of one seed");
  };

  SweepRun warm = run_one_sweep(configs, threads, nullptr);
  account(warm, warm.digest);
  check_fidelity(out, grid, warm.results);
  warm.results.clear();  // one sweep's results (trace rings included) in memory at a time
  out.digest = warm.digest;
  std::printf("  warm-up sweep %.3f s, digest %s\n", warm.wall_s, warm.digest.c_str());

  if (!opt.trace) {
    std::vector<double> rates;
    std::vector<double> builds;
    double measured = 0.0;
    while (measured < opt.seconds || rates.size() < 3) {
      const SweepRun s = run_one_sweep(configs, threads, nullptr);
      account(s, warm.digest);
      measured += s.wall_s;
      rates.push_back(s.node_steps / s.wall_s);
      for (const PointTiming& t : s.timing) {
        builds.push_back(seconds_between(t.entry, t.built));
      }
    }
    std::printf("  %zu measured sweeps in %.3f s\n", rates.size(), measured);
    out.metric("node_steps_per_s", median(rates), "node-steps/s", rates.size());
    out.metric("setup_s", median(builds), "s", builds.size());
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced run: untraced and traced sweeps alternate, so the overhead ratio
  // compares sweeps that ran under the same host conditions.
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<double> experiment;
  std::vector<double> build;
  std::vector<double> teardown;
  obs::MetricsSnapshot counts;  // one untraced sweep's engine and controller counters
  double measured = 0.0;
  for (int pair = 0; pair < 3 || measured < opt.seconds; ++pair) {
    const SweepRun plain = run_one_sweep(configs, threads, nullptr);
    account(plain, warm.digest);
    plain_walls.push_back(plain.wall_s);
    counts = runtime::merged_sweep_metrics(plain.results);
    opt.tracer->set_run(pair + 1);
    const SweepRun traced = run_one_sweep(configs, threads, opt.tracer);
    account(traced, warm.digest);
    traced_walls.push_back(traced.wall_s);
    measured += plain.wall_s + traced.wall_s;
    for (const PointTiming& t : traced.timing) {
      experiment.push_back(seconds_between(t.entry, t.done));
      build.push_back(seconds_between(t.entry, t.built));
      teardown.push_back(seconds_between(t.built, t.done));
    }
  }

  auto count = [&](const char* name) { return static_cast<double>(counter(counts, name)); };
  double build_total = 0.0;
  double experiment_total = 0.0;
  for (std::size_t i = 0; i < build.size(); ++i) {
    build_total += build[i];
    experiment_total += experiment[i];
  }
  double traced_wall_total = 0.0;
  for (double w : traced_walls) {
    traced_wall_total += w;
  }
  out.metric("core.experiment_p50_ms", quantile(experiment, 0.5) * 1e3, "ms", experiment.size());
  out.metric("core.experiment_p99_ms", quantile(experiment, 0.99) * 1e3, "ms", experiment.size());
  out.metric("core.build_s", median(build), "s", build.size());
  out.metric("core.build_frac", build_total / experiment_total, "ratio");
  out.metric("cluster.run_teardown_s", median(teardown), "s", teardown.size());
  out.metric("runtime.busy_frac",
             experiment_total / (static_cast<double>(threads) * traced_wall_total), "ratio");
  out.metric("cluster.steps", count("engine.steps"), "count");
  out.metric("hw.sensor_samples", count("engine.sensor_samples"), "count");
  out.metric("cluster.task_ticks", count("engine.task_ticks"), "count");
  out.metric("cluster.record_samples", count("engine.record_samples"), "count");
  out.metric("obs.trace_events", count("trace.emitted"), "count");
  out.metric("obs.trace_dropped", count("trace.dropped"), "count");
  out.metric("core.fan_retargets", count("fan.retargets"), "count");
  out.metric("core.tdvfs_triggers", count("tdvfs.transitions"), "count");
  out.metric("trace_overhead_frac", median(traced_walls) / median(plain_walls) - 1.0, "ratio");
  return out;
}

}  // namespace thermbench
