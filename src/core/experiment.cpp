#include "core/experiment.hpp"

#include <algorithm>

#include "core/control_bank.hpp"

#include "common/assert.hpp"
#include "workload/app.hpp"

namespace thermctl::core {

void retune_policy(const RigView& rig, PolicyParam pp) {
  for (DynamicFanController* fan : rig.fans) {
    fan->set_policy(pp);
  }
  for (TdvfsDaemon* daemon : rig.tdvfs) {
    daemon->set_policy(pp);
  }
  if (rig.plane != nullptr) {
    rig.plane->broadcast_policy(pp.value);
  }
}

ExperimentConfig paper_platform() {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.pp = PolicyParam::moderate();
  cfg.tdvfs.threshold = Celsius{51.0};
  cfg.node_params.sample_period = Seconds{0.25};  // 4 samples per second
  cfg.engine.physics_dt = Seconds{0.05};
  cfg.engine.record_period = Seconds{0.25};
  return cfg;
}

std::vector<FaultEpisode> make_fault_schedule(const FaultCampaignConfig& cfg, std::size_t node,
                                              Seconds horizon) {
  std::vector<FaultEpisode> schedule;
  if (!cfg.enabled || cfg.episodes_per_node <= 0) {
    return schedule;
  }
  THERMCTL_ASSERT(cfg.max_duration.value() >= cfg.min_duration.value(),
                  "fault durations inverted");
  const double latest_start = horizon.value() - cfg.min_duration.value();
  if (latest_start <= cfg.start_after.value()) {
    return schedule;  // horizon too short for any episode
  }
  // Per-node stream: same splitmix64-style spread the cluster uses for node
  // seeds, so schedules are independent across nodes and stable across runs.
  Rng rng{cfg.seed * 0x9e3779b97f4a7c15ULL + node + 1};
  schedule.reserve(static_cast<std::size_t>(cfg.episodes_per_node));
  for (int i = 0; i < cfg.episodes_per_node; ++i) {
    FaultEpisode e;
    e.kind = rng.uniform() < cfg.sensor_stuck_weight ? FaultEpisode::Kind::kSensorStuck
                                                     : FaultEpisode::Kind::kBusFault;
    e.start = Seconds{rng.uniform(cfg.start_after.value(), latest_start)};
    const double duration = rng.uniform(cfg.min_duration.value(), cfg.max_duration.value());
    e.end = Seconds{std::min(e.start.value() + duration, horizon.value())};
    schedule.push_back(e);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const FaultEpisode& a, const FaultEpisode& b) {
              return a.start.value() < b.start.value();
            });
  return schedule;
}

namespace {

/// Walks one node's fault schedule as edge events; overlapping episodes of
/// the same kind are refcounted so a fault clears only when the last
/// overlapping episode ends.
struct FaultApplier {
  struct Edge {
    double t = 0.0;
    FaultEpisode::Kind kind{};
    int delta = 0;  // +1 start, -1 end
  };

  cluster::Node* node = nullptr;
  std::vector<Edge> edges;
  std::size_t next = 0;
  int stuck_active = 0;
  int bus_active = 0;

  explicit FaultApplier(cluster::Node& n, const std::vector<FaultEpisode>& schedule) : node(&n) {
    edges.reserve(schedule.size() * 2);
    for (const FaultEpisode& e : schedule) {
      edges.push_back({e.start.value(), e.kind, +1});
      edges.push_back({e.end.value(), e.kind, -1});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.t != b.t) return a.t < b.t;
      return a.delta < b.delta;  // ends before starts at the same instant
    });
  }

  void tick(SimTime now) {
    while (next < edges.size() && edges[next].t <= now.seconds()) {
      const Edge& e = edges[next++];
      int& active =
          e.kind == FaultEpisode::Kind::kSensorStuck ? stuck_active : bus_active;
      const int before = active;
      active += e.delta;
      if (e.kind == FaultEpisode::Kind::kSensorStuck) {
        if (before == 0 && active > 0) {
          node->sensor().inject_stuck_fault();
        } else if (before > 0 && active == 0) {
          node->sensor().clear_fault();
        }
      } else {
        if (before == 0 && active > 0) {
          node->i2c().inject_bus_fault();
        } else if (before > 0 && active == 0) {
          node->i2c().clear_bus_fault();
        }
      }
    }
  }
};

/// Everything the harness allocates for a run; kept alive until the engine
/// finishes.
struct Rig {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::Engine> engine;
  std::unique_ptr<workload::ParallelApp> app;
  std::vector<workload::SegmentLoad> loads;
  /// All dynamic fan / tDVFS controllers live in one bank, ticked by one
  /// periodic per family.
  std::unique_ptr<ControlBank> bank;
  /// Node i's controllers (into `bank`).
  std::vector<DynamicFanController*> fans;
  std::vector<TdvfsDaemon*> tdvfs;
  std::vector<std::unique_ptr<CpuspeedGovernor>> cpuspeed;
  std::vector<std::unique_ptr<FaultApplier>> fault_appliers;
  std::unique_ptr<cluster::RoomModel> room;
  std::unique_ptr<cluster::ctrl::ControlPlane> plane;
  std::shared_ptr<obs::RunTrace> trace;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::FileSpillSink> spill_file;
  std::unique_ptr<obs::TraceSpiller> spiller;
  std::shared_ptr<obs::FleetRollup> rollup;
  std::unique_ptr<obs::AlertWatchdog> watchdog;

  /// The node's trace ring, or nullptr when tracing is off — controllers
  /// treat nullptr as "don't record".
  [[nodiscard]] obs::TraceRing* ring(std::size_t node) {
    return trace != nullptr ? &trace->ring(node) : nullptr;
  }
};

/// Registers the fault-injection walker for every node. Must run before the
/// controllers are registered so a tick's faults are in force by the time
/// the controllers sample.
void build_fault_campaign(Rig& rig, const ExperimentConfig& config, Seconds horizon,
                          ExperimentResult& result) {
  if (!config.faults.enabled) {
    return;
  }
  result.fault_schedules.resize(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    result.fault_schedules[i] = make_fault_schedule(config.faults, i, horizon);
    auto applier = std::make_unique<FaultApplier>(rig.cluster->node(i), result.fault_schedules[i]);
    FaultApplier* raw = applier.get();
    rig.fault_appliers.push_back(std::move(applier));
    rig.engine->add_periodic(config.node_params.sample_period,
                             [raw](SimTime now) { raw->tick(now); });
  }
}

void build_workload(Rig& rig, const ExperimentConfig& config) {
  Rng rng{config.seed};
  switch (config.workload) {
    case WorkloadKind::kIdle:
      break;
    case WorkloadKind::kCpuBurn: {
      // One cpu-burn per node, uncoupled (no barriers).
      std::vector<workload::Program> programs;
      programs.reserve(config.nodes);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        programs.push_back(workload::cpu_burn_program(config.cpu_burn_duration));
      }
      rig.app = std::make_unique<workload::ParallelApp>("cpu-burn", std::move(programs));
      break;
    }
    case WorkloadKind::kNpbBt:
    case WorkloadKind::kNpbLu: {
      workload::NpbParams params = config.workload == WorkloadKind::kNpbBt
                                       ? workload::bt_class_b()
                                       : workload::lu_class_b();
      if (config.npb_iterations_override > 0) {
        params.iterations = config.npb_iterations_override;
      }
      auto programs =
          workload::make_npb_programs(params, static_cast<int>(config.nodes), rng);
      const char* name = config.workload == WorkloadKind::kNpbBt ? "BT.B" : "LU.B";
      rig.app = std::make_unique<workload::ParallelApp>(name, std::move(programs));
      break;
    }
    case WorkloadKind::kCpuBurnCycles: {
      // Three instances separated by idle gaps; total ~ cpu_burn_duration.
      const double instance = config.cpu_burn_duration.value() / 3.0 - 12.0;
      rig.loads.reserve(config.nodes);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        std::vector<workload::LoadSegment> segments;
        for (int k = 0; k < 3; ++k) {
          segments.push_back({Seconds{12.0}, 0.04, 0.04, 0.0, Seconds{0.0}, 0.01});
          segments.push_back({Seconds{instance}, 1.0, 1.0, 0.0, Seconds{0.0}, 0.02});
        }
        rig.loads.emplace_back(std::move(segments), config.seed + i);
      }
      break;
    }
    case WorkloadKind::kFig2Profile: {
      rig.loads.reserve(config.nodes);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        rig.loads.push_back(workload::fig2_profile(1.0, config.seed + i));
      }
      break;
    }
  }

  if (rig.app != nullptr) {
    std::vector<std::size_t> mapping(config.nodes);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      mapping[i] = i;
    }
    rig.engine->attach_app(*rig.app, std::move(mapping));
  } else {
    for (std::size_t i = 0; i < rig.loads.size(); ++i) {
      rig.engine->set_node_load(i, &rig.loads[i]);
    }
  }
}

void build_fan_policy(Rig& rig, const ExperimentConfig& config) {
  for (std::size_t i = 0; i < config.nodes; ++i) {
    cluster::Node& node = rig.cluster->node(i);
    switch (config.fan) {
      case FanPolicyKind::kChipDefault: {
        // Power-on behaviour is automatic mode; just honour the ceiling.
        const auto st = node.fan_driver().set_max_duty(config.max_duty);
        THERMCTL_ASSERT(st == sysfs::DriverStatus::kOk, "set_max_duty failed");
        const auto mode = node.fan_driver().set_automatic_mode();
        THERMCTL_ASSERT(mode == sysfs::DriverStatus::kOk, "auto mode failed");
        break;
      }
      case FanPolicyKind::kStaticCurve: {
        StaticFanPolicy policy{node.fan_driver(), StaticFanPolicy::Curve{}, config.max_duty};
        THERMCTL_ASSERT(policy.apply(), "static fan policy apply failed");
        break;
      }
      case FanPolicyKind::kConstantDuty: {
        ConstantFanPolicy policy{node.hwmon(), config.constant_duty};
        THERMCTL_ASSERT(policy.apply(), "constant fan policy apply failed");
        break;
      }
      case FanPolicyKind::kDynamic: {
        FanControlConfig fc = config.fan_cfg;
        fc.pp = config.pp;
        fc.max_duty = config.max_duty;
        fc.fault_aware = config.fault_aware;
        fc.health = config.health;
        DynamicFanController& fan = rig.bank->emplace_fan(i, node.hwmon(), fc);
        fan.set_trace(rig.ring(i));
        rig.fans.push_back(&fan);
        break;
      }
    }
  }
  if (rig.bank != nullptr && rig.bank->fan_count() > 0) {
    // One periodic sweeps the whole family (over the engine's shards when it
    // is sharded), after the fault campaign's walkers and before the DVFS
    // family.
    ControlBank* bank = rig.bank.get();
    rig.engine->add_periodic(config.node_params.sample_period,
                             [bank](SimTime now) { bank->tick_fans(now); });
  }
}

void build_dvfs_policy(Rig& rig, const ExperimentConfig& config) {
  for (std::size_t i = 0; i < config.nodes; ++i) {
    cluster::Node& node = rig.cluster->node(i);
    switch (config.dvfs) {
      case DvfsPolicyKind::kNone:
        break;
      case DvfsPolicyKind::kTdvfs: {
        TdvfsConfig tc = config.tdvfs;
        tc.pp = config.pp;
        tc.fault_aware = config.fault_aware;
        tc.health = config.health;
        TdvfsDaemon& daemon = rig.bank->emplace_tdvfs(i, node.hwmon(), node.cpufreq(), tc);
        daemon.set_trace(rig.ring(i));
        rig.tdvfs.push_back(&daemon);
        break;
      }
      case DvfsPolicyKind::kCpuspeed: {
        // Daemon-faithful wiring: cpuspeed reads /proc/stat from the node.
        auto governor = std::make_unique<CpuspeedGovernor>(
            node.vfs(), node.proc_stat(), node.cpufreq(), config.cpuspeed);
        CpuspeedGovernor* raw = governor.get();
        rig.cpuspeed.push_back(std::move(governor));
        rig.engine->add_periodic(config.cpuspeed.interval,
                                 [raw](SimTime now) { raw->on_interval(now); });
        break;
      }
    }
  }
  if (rig.bank != nullptr && rig.bank->tdvfs_count() > 0) {
    ControlBank* bank = rig.bank.get();
    rig.engine->add_periodic(config.node_params.sample_period,
                             [bank](SimTime now) { bank->tick_tdvfs(now); });
  }
}

/// Builds the room model and hierarchical control plane when enabled. Runs
/// after the fan/DVFS controllers so the Pp re-tune sinks can point at them;
/// node `i`'s controllers sit at index `i` of rig.fans / rig.tdvfs because
/// the builders above fill one entry per node for the dynamic kinds.
void build_control_plane(Rig& rig, const ExperimentConfig& config) {
  if (!config.control_plane.enabled) {
    return;
  }
  if (config.control_plane.room_enabled) {
    rig.room = std::make_unique<cluster::RoomModel>(config.nodes, config.control_plane.room);
    double idle_wall_w = 0.0;
    for (std::size_t i = 0; i < config.nodes; ++i) {
      idle_wall_w += rig.cluster->node(i).wall_power().value();
    }
    rig.room->settle(Watts{idle_wall_w});
    rig.engine->attach_room(*rig.room);
  }
  rig.plane = std::make_unique<cluster::ctrl::ControlPlane>(
      *rig.cluster, config.control_plane.plane, rig.room.get());
  for (std::size_t i = 0; i < config.nodes; ++i) {
    DynamicFanController* fan =
        config.fan == FanPolicyKind::kDynamic ? rig.fans[i] : nullptr;
    TdvfsDaemon* daemon = config.dvfs == DvfsPolicyKind::kTdvfs ? rig.tdvfs[i] : nullptr;
    if (fan == nullptr && daemon == nullptr) {
      continue;
    }
    rig.plane->set_policy_sink(i, [fan, daemon](int pp) {
      const PolicyParam p{std::clamp(pp, PolicyParam::kMin, PolicyParam::kMax)};
      if (fan != nullptr) {
        fan->set_policy(p);
      }
      if (daemon != nullptr) {
        daemon->set_policy(p);
      }
    });
  }
  if (rig.trace != nullptr) {
    rig.plane->set_trace(rig.trace.get());
  }
  if (rig.registry != nullptr) {
    rig.plane->set_metrics(&rig.registry->shard(0));
  }
  rig.engine->attach_plane(*rig.plane);
}

/// Wires the live telemetry pipeline: the streaming trace spiller, the
/// rollup/watchdog/exposition periodic, or neither — all default off. Runs
/// after build_control_plane so the rollup can read plane state, and before
/// on_rig_built so verification observers see the final task order. All
/// tasks are pure observation on the engine thread's serial phases; the
/// oracle's kLiveTelemetryOnVsOff pairing asserts an enabled run stays
/// bit-identical to a dark one.
void build_live_telemetry(Rig& rig, const ExperimentConfig& config) {
  const TelemetryConfig& t = config.telemetry;

  if (t.spill) {
    THERMCTL_ASSERT(rig.trace != nullptr, "telemetry.spill requires telemetry.trace");
    obs::SpillSink* sink = t.spill_sink;
    if (sink == nullptr) {
      THERMCTL_ASSERT(!t.spill_path.empty(), "telemetry.spill needs a sink or a spill_path");
      rig.spill_file = std::make_unique<obs::FileSpillSink>(t.spill_path);
      sink = rig.spill_file.get();
    }
    rig.spiller = std::make_unique<obs::TraceSpiller>(*rig.trace, *sink, t.spill_cfg);
    obs::TraceSpiller* spiller = rig.spiller.get();
    rig.engine->add_periodic(Seconds{t.spill_cfg.period_s},
                             [spiller](SimTime now) { spiller->drain(now.seconds()); });
  }

  if (!t.rollup.enabled) {
    THERMCTL_ASSERT(t.alerts.empty(), "telemetry.alerts require telemetry.rollup.enabled");
    THERMCTL_ASSERT(t.live_sink == nullptr,
                    "telemetry.live_sink requires telemetry.rollup.enabled");
    return;
  }

  obs::RollupConfig rollup_cfg = t.rollup;
  if (rollup_cfg.nodes_per_rack == 0 && config.control_plane.enabled) {
    rollup_cfg.nodes_per_rack = config.control_plane.plane.nodes_per_rack;
  }
  rig.rollup = std::make_shared<obs::FleetRollup>(config.nodes, rollup_cfg);
  if (!t.alerts.empty()) {
    rig.watchdog = std::make_unique<obs::AlertWatchdog>(t.alerts, rig.rollup->rack_count());
    rig.watchdog->set_trace(rig.ring(0));
  }

  // Cumulative sensor-rejection counters live in the controllers' health
  // monitors; resolve them once instead of per sample.
  std::vector<const SensorHealthMonitor*> monitors;
  for (const auto& fan : rig.fans) {
    if (const SensorHealthMonitor* m = fan->health(); m != nullptr) {
      monitors.push_back(m);
    }
  }
  for (const auto& daemon : rig.tdvfs) {
    if (const SensorHealthMonitor* m = daemon->health(); m != nullptr) {
      monitors.push_back(m);
    }
  }

  // One periodic drives sample → watchdog → exposition so the three stay
  // phase-locked on the rollup cadence.
  cluster::Cluster* cl = rig.cluster.get();
  cluster::ctrl::ControlPlane* plane = rig.plane.get();
  obs::FleetRollup* rollup = rig.rollup.get();
  obs::AlertWatchdog* watchdog = rig.watchdog.get();
  obs::TraceSpiller* spiller = rig.spiller.get();
  obs::MetricsRegistry* registry = rig.registry.get();
  obs::LiveTelemetrySink* sink = t.live_sink;
  const std::uint32_t live_every = t.live_every == 0 ? 1 : t.live_every;
  rig.engine->add_periodic(
      Seconds{rollup_cfg.interval_s},
      [cl, plane, rollup, watchdog, spiller, registry, sink, live_every,
       monitors = std::move(monitors), ticks = std::uint64_t{0}](SimTime now) mutable {
        rollup->begin(now.seconds());
        for (std::size_t i = 0; i < cl->size(); ++i) {
          const cluster::Node& node = cl->node(i);
          const bool capped = plane != nullptr && plane->agent(i).cap_index() > 0;
          const bool autonomous = plane != nullptr && plane->agent(i).autonomous();
          rollup->observe(i, node.die_temperature().value(), node.wall_power().value(),
                          capped, autonomous);
        }
        std::uint64_t rejected = 0;
        for (const SensorHealthMonitor* m : monitors) {
          rejected += m->stats().rejected;
        }
        rollup->commit(plane != nullptr ? plane->stats().failsafe_entries : 0, rejected);
        if (watchdog != nullptr) {
          watchdog->evaluate(now.seconds(), *rollup);
        }
        ++ticks;
        if (sink != nullptr && ticks % live_every == 0) {
          const obs::MetricsSnapshot snapshot =
              registry != nullptr ? registry->merged() : obs::MetricsSnapshot{};
          sink->on_exposition(
              now.seconds(),
              obs::render_openmetrics(snapshot, rollup, watchdog,
                                      spiller != nullptr ? &spiller->stats() : nullptr,
                                      now.seconds()));
        }
      });
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  THERMCTL_ASSERT(config.nodes > 0, "experiment needs nodes");

  Rig rig;
  cluster::NodeParams node_params = config.node_params;
  node_params.seed = config.seed;
  rig.cluster = std::make_unique<cluster::Cluster>(config.nodes, node_params);
  if (config.fan == FanPolicyKind::kDynamic || config.dvfs == DvfsPolicyKind::kTdvfs) {
    rig.bank = std::make_unique<ControlBank>(config.nodes,
                                             rig.cluster->fleet()->sensor_last_data());
  }

  // The machine idles before the job starts: settle at near-zero load.
  for (std::size_t i = 0; i < config.nodes; ++i) {
    rig.cluster->node(i).set_utilization(Utilization{0.02});
  }
  rig.cluster->settle_all();

  cluster::EngineConfig engine_cfg = config.engine;
  if (config.workload == WorkloadKind::kCpuBurn) {
    engine_cfg.horizon =
        Seconds{std::max(engine_cfg.horizon.value(), config.cpu_burn_duration.value() * 2.0)};
  } else if (config.workload == WorkloadKind::kCpuBurnCycles) {
    // Time-function load: the run ends exactly when the last instance does.
    engine_cfg.horizon = config.cpu_burn_duration;
  } else if (config.workload == WorkloadKind::kFig2Profile) {
    engine_cfg.horizon = Seconds{245.0};
  }
  rig.engine = std::make_unique<cluster::Engine>(*rig.cluster, engine_cfg);

  if (config.telemetry.trace) {
    rig.trace = std::make_shared<obs::RunTrace>(config.nodes, config.telemetry.trace_ring_capacity);
    // The fan i2c master rides the same ring as the node's controllers, so
    // bus retries interleave with the decisions that caused the traffic.
    for (std::size_t i = 0; i < config.nodes; ++i) {
      rig.cluster->node(i).fan_driver().set_trace(rig.ring(i));
    }
  }
  if (config.telemetry.metrics) {
    rig.registry = std::make_unique<obs::MetricsRegistry>(1);
    rig.engine->set_metrics(&rig.registry->shard(0));
  }

  ExperimentResult result;
  build_workload(rig, config);
  build_fault_campaign(rig, config, engine_cfg.horizon, result);
  build_fan_policy(rig, config);
  build_dvfs_policy(rig, config);
  build_control_plane(rig, config);
  build_live_telemetry(rig, config);

  if (config.on_rig_built) {
    RigView view;
    view.cluster = rig.cluster.get();
    view.engine = rig.engine.get();
    view.plane = rig.plane.get();
    view.rollup = rig.rollup.get();
    view.watchdog = rig.watchdog.get();
    view.spiller = rig.spiller.get();
    view.config = &config;
    view.fans = rig.fans;
    view.tdvfs = rig.tdvfs;
    config.on_rig_built(view);
  }

  result.run = rig.engine->run();

  if (rig.spiller != nullptr) {
    rig.spiller->finish();
    result.spill = rig.spiller->stats();
  }
  result.rollup = rig.rollup;
  if (rig.watchdog != nullptr) {
    result.alert_rules = rig.watchdog->rules();
    result.alerts = rig.watchdog->events();
  }

  if (rig.plane != nullptr) {
    result.plane_stats = rig.plane->stats();
  }

  result.tdvfs_events.resize(config.nodes);
  result.fan_events.resize(config.nodes);
  for (std::size_t i = 0; i < rig.tdvfs.size(); ++i) {
    result.tdvfs_events[i] = rig.tdvfs[i]->events();
    for (const TdvfsEvent& e : result.tdvfs_events[i]) {
      if (result.first_dvfs_trigger_s < 0.0 || e.time_s < result.first_dvfs_trigger_s) {
        result.first_dvfs_trigger_s = e.time_s;
      }
    }
  }
  for (std::size_t i = 0; i < rig.fans.size(); ++i) {
    result.fan_events[i] = rig.fans[i]->events();
  }

  ControllerFaultStats& fs = result.fault_stats;
  for (const auto& fan : rig.fans) {
    fs.failsafe_entries += fan->failsafe_entries();
    fs.failsafe_exits += fan->failsafe_exits();
    if (const SensorHealthMonitor* m = fan->health(); m != nullptr) {
      fs.sensor_rejected += m->stats().rejected;
      fs.sensor_stuck_detections += m->stats().stuck_detections;
      fs.sensor_failures += m->stats().failures;
      fs.sensor_recoveries += m->stats().recoveries;
    }
  }
  for (const auto& daemon : rig.tdvfs) {
    fs.dvfs_hold_entries += daemon->hold_entries();
    fs.dvfs_held_ticks += daemon->held_ticks();
    if (const SensorHealthMonitor* m = daemon->health(); m != nullptr) {
      fs.sensor_rejected += m->stats().rejected;
      fs.sensor_stuck_detections += m->stats().stuck_detections;
      fs.sensor_failures += m->stats().failures;
      fs.sensor_recoveries += m->stats().recoveries;
    }
  }

  if (rig.registry != nullptr) {
    // Controller/bus totals and series-shape histograms, folded in post-run
    // so the control loops never pay for the bookkeeping.
    obs::MetricsShard& shard = rig.registry->shard(0);
    for (const auto& fan : rig.fans) {
      shard.counter("fan.retargets").add(fan->retarget_count());
      shard.counter("fan.failsafe_entries").add(fan->failsafe_entries());
      shard.counter("fan.failsafe_exits").add(fan->failsafe_exits());
    }
    for (const auto& daemon : rig.tdvfs) {
      shard.counter("tdvfs.transitions").add(daemon->events().size());
      shard.counter("tdvfs.hold_entries").add(daemon->hold_entries());
      shard.counter("tdvfs.held_ticks").add(daemon->held_ticks());
    }
    for (std::size_t i = 0; i < config.nodes; ++i) {
      const hw::I2cErrorStats& io = rig.cluster->node(i).fan_driver().io_stats();
      shard.counter("i2c.transfers").add(io.transfers);
      shard.counter("i2c.retries").add(io.retries);
      shard.counter("i2c.exhausted").add(io.exhausted);
    }
    obs::Histogram& duty_h =
        shard.histogram("fan.duty_pct", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
    obs::Histogram& temp_h =
        shard.histogram("node.die_temp_c", {40, 45, 50, 55, 60, 65, 70, 75, 80, 85});
    for (const cluster::NodeSeries& series : result.run.nodes) {
      for (double d : series.duty) {
        duty_h.observe(d);
      }
      for (double t : series.die_temp) {
        temp_h.observe(t);
      }
    }
    if (rig.trace != nullptr) {
      shard.counter("trace.emitted").add(rig.trace->total_emitted());
      shard.counter("trace.dropped").add(rig.trace->total_dropped());
    }
    if (result.spill.has_value()) {
      shard.counter("spill.drains").add(result.spill->drains);
      shard.counter("spill.events").add(result.spill->events_spilled);
      shard.counter("spill.events_lost").add(result.spill->events_lost);
      shard.counter("spill.deferred_drains").add(result.spill->deferred_drains);
    }
    if (rig.rollup != nullptr) {
      shard.counter("rollup.samples").add(rig.rollup->samples_recorded());
    }
    if (rig.watchdog != nullptr) {
      shard.counter("alerts.events").add(rig.watchdog->events().size());
    }
    result.metrics = rig.registry->merged();
  }
  result.trace = rig.trace;
  return result;
}

}  // namespace thermctl::core
