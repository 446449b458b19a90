// fleet_100k: the largest synthetic datacenter — 100k batched-layout nodes,
// one UnifiedController per node in a ControlBank ticking at 4 Hz, and a
// seeded out-of-phase sinusoidal load through the engine's fleet load hook.
// No app, no telemetry, no room model (its recirculation gain is per
// rack-watt, which makes a 100k-node inlet unphysical).
//
// One rep builds the rig (a set-up sample), runs a fixed number of physics
// steps (a throughput sample), digests the outputs and tears the rig down.
// Reps repeat until the run's time is spent, at least three times.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "common.hpp"
#include "core/control_bank.hpp"
#include "core/unified_controller.hpp"
#include "obs/metrics_registry.hpp"

namespace thermbench {

namespace {

using namespace thermctl;

struct FleetShape {
  std::size_t nodes;
  long long steps;  // physics steps per rep
  int min_reps;
};

FleetShape shape_for(Scale scale) {
  return scale == Scale::kFull ? FleetShape{100000, 340, 3} : FleetShape{2048, 60, 2};
}

struct Rep {
  double build_s = 0.0;
  double run_s = 0.0;
  std::vector<double> step_s;  // wall time of every physics step
  std::vector<double> tick_s;  // wall time of every bank tick (traced reps only)
  std::uint64_t probe_steps = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ticks_owed = 0;  // control periods in the simulated time run
  std::string digest;
  bool temps_ok = true;
  double fleet_bytes_per_node = 0.0;
  double rss_bytes_per_node = 0.0;
  obs::MetricsSnapshot counts;  // engine counters (traced reps only)
};

/// Seeded per-node load phases; util(i, t) = 0.55 + 0.35 sin(0.7 t + phase_i).
/// The seed moves only the phases, which are uniform over 100k nodes, so the
/// fleet's aggregate load (and the work per step) is the same for every seed.
struct LoadShape {
  std::vector<double> phase_sin;
  std::vector<double> phase_cos;
};

LoadShape make_load(std::size_t nodes, std::uint64_t seed) {
  LoadShape load;
  std::uint64_t state = mix64(seed ^ 0xf1ee7ULL);
  load.phase_sin.resize(nodes);
  load.phase_cos.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    state = mix64(state);
    const double phase = 6.283185307179586 * static_cast<double>(state >> 11) * 0x1.0p-53;
    load.phase_sin[i] = std::sin(phase);
    load.phase_cos[i] = std::cos(phase);
  }
  return load;
}

std::string digest_run(const cluster::RunResult& run, core::ControlBank& bank) {
  Digest d;
  d.add_run(run);
  for (std::size_t i = 0; i < bank.unified_count(); ++i) {
    d.add_events(bank.unified(i).fan().events(), bank.unified(i).dvfs().events());
  }
  return d.hex();
}

Rep run_rep(const FleetShape& shape, const LoadShape& load, std::uint64_t seed, int workers,
            Tracer* tracer) {
  Rep rep;
  trim_heap();
  const std::size_t rss_before = current_rss_bytes();
  const Clock::time_point t0 = Clock::now();
  const int setup_span = tracer != nullptr ? tracer->begin("core.setup", -1) : -1;

  cluster::NodeParams params;
  params.seed = mix64(seed);
  std::unique_ptr<cluster::Cluster> rack;
  {
    ScopedSpan span{tracer, "cluster.build", setup_span};
    rack = std::make_unique<cluster::Cluster>(shape.nodes, params);
    rack->settle_all();
  }
  std::unique_ptr<core::ControlBank> bank;
  {
    ScopedSpan span{tracer, "core.bank_build", setup_span};
    bank = std::make_unique<core::ControlBank>(shape.nodes, rack->fleet()->sensor_last_data());
    for (std::size_t i = 0; i < shape.nodes; ++i) {
      core::UnifiedConfig cfg;
      cfg.pp = core::PolicyParam{50};
      bank->emplace_unified(i, rack->node(i).hwmon(), rack->node(i).cpufreq(), cfg);
    }
  }

  cluster::EngineConfig engine_cfg;
  engine_cfg.workers = workers;
  engine_cfg.horizon = Seconds{static_cast<double>(shape.steps) * engine_cfg.physics_dt.value()};
  rep.ticks_owed = periods_in(static_cast<std::uint64_t>(shape.steps), engine_cfg.physics_dt,
                              params.sample_period);
  obs::MetricsRegistry registry;  // outlives the engine that writes to it
  std::unique_ptr<cluster::Engine> engine;
  int run_span = -1;
  Clock::time_point last_step;
  {
    ScopedSpan span{tracer, "cluster.engine_build", setup_span};
    engine = std::make_unique<cluster::Engine>(*rack, engine_cfg);
    engine->add_periodic(params.sample_period, [&](SimTime now) {
      if (tracer == nullptr) {
        bank->tick_unified(now);
      } else {
        const int id = tracer->begin("core.tick", run_span);
        const Clock::time_point a = Clock::now();
        bank->tick_unified(now);
        rep.tick_s.push_back(seconds_between(a, Clock::now()));
        tracer->end(id);
      }
      ++rep.ticks;
    });
    engine->set_fleet_load_fn([&](SimTime t, double* util, const std::uint8_t* halted,
                                  std::size_t count) {
      const int id = tracer != nullptr ? tracer->begin("workload.load_fill", run_span) : -1;
      const double s = std::sin(0.7 * t.seconds());
      const double c = std::cos(0.7 * t.seconds());
      const double* ps = load.phase_sin.data();
      const double* pc = load.phase_cos.data();
      for (std::size_t i = 0; i < count; ++i) {
        util[i] = halted[i] != 0 ? 0.0 : 0.55 + 0.35 * (s * pc[i] + c * ps[i]);
      }
      if (tracer != nullptr) {
        tracer->end(id);
      }
    });
    // Step probe: registered last, so it fires after the step's sampling and
    // controller tick; the gap between two firings is one step's wall time.
    rep.step_s.reserve(static_cast<std::size_t>(shape.steps));
    engine->add_periodic(engine_cfg.physics_dt, [&](SimTime) {
      const Clock::time_point now = Clock::now();
      rep.step_s.push_back(seconds_between(last_step, now));
      last_step = now;
      ++rep.probe_steps;
    });
    if (tracer != nullptr) {
      engine->set_metrics(&registry.shard(0));
    }
  }
  if (tracer != nullptr) {
    tracer->end(setup_span);
  }
  const Clock::time_point t_built = Clock::now();
  rep.build_s = seconds_between(t0, t_built);
  rep.fleet_bytes_per_node =
      static_cast<double>(rack->fleet()->memory_bytes()) / static_cast<double>(shape.nodes);
  const std::size_t rss_after = current_rss_bytes();
  rep.rss_bytes_per_node =
      rss_after > rss_before
          ? static_cast<double>(rss_after - rss_before) / static_cast<double>(shape.nodes)
          : 0.0;

  cluster::RunResult run;
  {
    ScopedSpan span{tracer, "cluster.run"};
    run_span = span.id();
    last_step = Clock::now();
    const Clock::time_point a = last_step;
    run = engine->run();
    rep.run_s = seconds_between(a, Clock::now());
  }
  if (tracer != nullptr) {
    rep.counts = registry.merged();
  }

  for (const cluster::NodeSeries& s : run.nodes) {
    for (double t : s.die_temp) {
      rep.temps_ok = rep.temps_ok && std::isfinite(t) && t > 0.0 && t < 110.0;
    }
  }
  rep.digest = digest_run(run, *bank);
  ScopedSpan teardown{tracer, "cluster.teardown"};
  engine.reset();
  bank.reset();
  rack.reset();
  return rep;
}

}  // namespace

Outcome run_fleet(const RunOptions& opt) {
  Outcome out;
  const FleetShape shape = shape_for(opt.scale);
  const LoadShape load = make_load(shape.nodes, opt.seed);
  const int workers = static_cast<int>(opt.hw_threads);
  std::printf("fleet_100k: %zu nodes, %lld steps per rep, %d engine workers\n", shape.nodes,
              shape.steps, workers);

  std::vector<Rep> reps;
  auto check_rep = [&](const Rep& rep, const char* what) {
    ++out.attempted;
    const std::size_t failures_before = out.check_failures.size();
    const std::string tag = what;
    out.check(rep.temps_ok, tag + ": die temperature outside the physical envelope");
    out.check(rep.probe_steps == static_cast<std::uint64_t>(shape.steps),
              tag + ": physics step count is not exact");
    out.check(rep.ticks == rep.ticks_owed, tag + ": controller tick count " +
                                               std::to_string(rep.ticks) + " is not " +
                                               std::to_string(rep.ticks_owed));
    out.check(reps.empty() || rep.digest == reps.front().digest,
              tag + ": outputs differ between reps of one seed");
    if (out.check_failures.size() != failures_before) {
      ++out.failed;
    }
    std::printf("  %-14s build %.3f s, run %.3f s, %.0f node-steps/s, digest %s\n", what,
                rep.build_s, rep.run_s,
                static_cast<double>(shape.nodes * rep.probe_steps) / rep.run_s,
                rep.digest.c_str());
  };

  if (!opt.trace) {
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(reps.size()) < shape.min_reps ||
           seconds_between(start, Clock::now()) < opt.seconds) {
      Rep rep = run_rep(shape, load, opt.seed, workers, nullptr);
      check_rep(rep, "rep");
      reps.push_back(std::move(rep));
    }
    std::vector<double> rates;
    std::vector<double> builds;
    for (const Rep& r : reps) {
      rates.push_back(static_cast<double>(shape.nodes * r.probe_steps) / r.run_s);
      builds.push_back(r.build_s);
    }
    out.metric("node_steps_per_s", median(rates), "node-steps/s", rates.size());
    out.metric("setup_s", median(builds), "s", builds.size());
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.digest = reps.front().digest;
    return out;
  }

  // Traced run: an untraced rep as the overhead reference, the traced rep,
  // then a 1-worker rep for the sharding speedup (and the sharded-vs-serial
  // bit-identity it implies).
  Rep plain = run_rep(shape, load, opt.seed, workers, nullptr);
  check_rep(plain, "untraced rep");
  reps.push_back(plain);
  opt.tracer->set_run(1);
  Rep traced = run_rep(shape, load, opt.seed, workers, opt.tracer);
  check_rep(traced, "traced rep");
  Rep serial = run_rep(shape, load, opt.seed, 1, nullptr);
  check_rep(serial, "1-worker rep");
  out.digest = plain.digest;

  const std::vector<Tracer::Span> spans = opt.tracer->spans();
  const double run_s = span_seconds(spans, "cluster.run");
  const double tick_s = span_seconds(spans, "core.tick");
  const double fill_s = span_seconds(spans, "workload.load_fill");
  auto count = [&](const char* name) {
    auto it = traced.counts.counters.find(name);
    return it == traced.counts.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  out.metric("cluster.build_s", span_seconds(spans, "cluster.build"), "s");
  out.metric("core.bank_build_s", span_seconds(spans, "core.bank_build"), "s");
  out.metric("cluster.engine_build_s", span_seconds(spans, "cluster.engine_build"), "s");
  out.metric("core.build_s", traced.build_s, "s");
  out.metric("cluster.run_s", run_s, "s");
  out.metric("core.tick_s", tick_s, "s");
  out.metric("core.tick_calls", static_cast<double>(traced.ticks), "count");
  out.metric("core.tick_p99_us", quantile(traced.tick_s, 0.99) * 1e6, "us", traced.tick_s.size());
  out.metric("workload.load_fill_s", fill_s, "s");
  out.metric("cluster.self_s", self_seconds(spans, "cluster.run"), "s");
  out.metric("cluster.step_p50_us", quantile(traced.step_s, 0.5) * 1e6, "us",
             traced.step_s.size());
  out.metric("cluster.step_p99_us", quantile(traced.step_s, 0.99) * 1e6, "us",
             traced.step_s.size());
  out.metric("cluster.speedup_vs_serial", serial.run_s / plain.run_s, "ratio");
  out.metric("cluster.steps", count("engine.steps"), "count");
  out.metric("hw.sensor_samples", count("engine.sensor_samples"), "count");
  out.metric("cluster.task_ticks", count("engine.task_ticks"), "count");
  out.metric("cluster.record_samples", count("engine.record_samples"), "count");
  out.metric("cluster.fleet_bytes_per_node", traced.fleet_bytes_per_node, "B");
  out.metric("cluster.rss_bytes_per_node", traced.rss_bytes_per_node, "B");
  out.metric("trace_overhead_frac",
             (traced.build_s + traced.run_s) / (plain.build_s + plain.run_s) - 1.0, "ratio");
  return out;
}

}  // namespace thermbench
