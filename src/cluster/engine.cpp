#include "cluster/engine.hpp"

#include <algorithm>

#include "cluster/coordinator/coordinator.hpp"
#include "common/assert.hpp"

namespace thermctl::cluster {

Engine::Engine(Cluster& cluster, EngineConfig config)
    : cluster_(cluster),
      config_(config),
      rank_of_node_(cluster.size(), kNoRank),
      node_loads_(cluster.size(), nullptr),
      steal_fraction_(cluster.size(), 0.0),
      recorder_(cluster.size()),
      record_schedule_(static_cast<std::int64_t>(config.record_period.value() * 1e6)) {
  THERMCTL_ASSERT(config_.physics_dt.value() > 0.0, "physics step must be positive");
  THERMCTL_ASSERT(config_.workers >= 0, "workers must be >= 0 (0 = auto)");
}

std::size_t Engine::resolved_workers() const {
  const std::size_t requested = config_.workers == 0
                                    ? runtime::default_thread_count()
                                    : static_cast<std::size_t>(config_.workers);
  return std::max<std::size_t>(1, std::min(requested, cluster_.size()));
}

void Engine::attach_app(workload::ParallelApp& app, std::vector<std::size_t> node_for_rank) {
  THERMCTL_ASSERT(app.rank_count() == node_for_rank.size(), "one node per rank required");
  std::vector<bool> used(cluster_.size(), false);
  for (std::size_t n : node_for_rank) {
    THERMCTL_ASSERT(n < cluster_.size(), "rank mapped to missing node");
    THERMCTL_ASSERT(!used[n], "at most one rank per node");
    used[n] = true;
  }
  app_ = &app;
  node_for_rank_ = std::move(node_for_rank);
  std::fill(rank_of_node_.begin(), rank_of_node_.end(), kNoRank);
  for (std::size_t r = 0; r < node_for_rank_.size(); ++r) {
    rank_of_node_[node_for_rank_[r]] = r;
  }
  freqs_scratch_.reserve(node_for_rank_.size());
  utils_scratch_.reserve(node_for_rank_.size());
}

void Engine::set_node_load(std::size_t i, const workload::SegmentLoad* load) {
  if (load == nullptr) {
    set_node_load_fn(i, nullptr);
    return;
  }
  set_node_load_fn(i, [load](SimTime t) { return load->at(t); });
}

void Engine::set_node_load(std::size_t i, const workload::TraceLoad* load) {
  if (load == nullptr) {
    set_node_load_fn(i, nullptr);
    return;
  }
  set_node_load_fn(i, [load](SimTime t) { return load->at(t); });
}

void Engine::set_node_load_fn(std::size_t i, std::function<Utilization(SimTime)> load) {
  THERMCTL_ASSERT(i < cluster_.size(), "node index out of range");
  node_loads_[i] = std::move(load);
}

void Engine::set_fleet_load_fn(FleetLoadFn load) { fleet_load_ = std::move(load); }

void Engine::attach_room(RoomModel& room) {
  THERMCTL_ASSERT(room.node_count() == cluster_.size(), "room sized for a different rack");
  room_ = &room;
}

void Engine::attach_plane(ctrl::ControlPlane& plane) { plane_ = &plane; }

void Engine::set_inband_overhead(std::size_t i, Seconds per_tick, Seconds period) {
  THERMCTL_ASSERT(i < cluster_.size(), "node index out of range");
  THERMCTL_ASSERT(period.value() > 0.0, "overhead period must be positive");
  THERMCTL_ASSERT(per_tick.value() >= 0.0 && per_tick.value() < period.value(),
                  "overhead must be shorter than its period");
  steal_fraction_[i] = per_tick.value() / period.value();
}

std::size_t Engine::node_of_rank(std::size_t r) const {
  THERMCTL_ASSERT(app_ != nullptr, "no app attached");
  THERMCTL_ASSERT(r < node_for_rank_.size(), "rank out of range");
  return node_for_rank_[r];
}

std::optional<std::size_t> Engine::rank_on_node(std::size_t i) const {
  THERMCTL_ASSERT(i < rank_of_node_.size(), "node index out of range");
  const std::size_t r = rank_of_node_[i];
  if (r == kNoRank) {
    return std::nullopt;
  }
  return r;
}

bool Engine::migrate_rank(std::size_t r, std::size_t new_node, Seconds cost) {
  THERMCTL_ASSERT(app_ != nullptr, "no app attached");
  THERMCTL_ASSERT(r < node_for_rank_.size(), "rank out of range");
  THERMCTL_ASSERT(new_node < cluster_.size(), "node out of range");
  if (rank_of_node_[new_node] != kNoRank || cluster_.node(new_node).halted()) {
    return false;
  }
  const std::size_t old_node = node_for_rank_[r];
  node_for_rank_[r] = new_node;
  rank_of_node_[old_node] = kNoRank;
  rank_of_node_[new_node] = r;
  app_->inject_stall(r, cost);
  cluster_.node(old_node).set_utilization(Utilization{0.02});  // vacated
  ++migrations_;
  return true;
}

void Engine::add_periodic(Seconds period, std::function<void(SimTime)> task) {
  THERMCTL_ASSERT(period.value() > 0.0, "task period must be positive");
  THERMCTL_ASSERT(static_cast<bool>(task), "task must be callable");
  // Phase tasks at one period so controllers first fire after the first full
  // sampling round, not at t=0 when no data exists.
  tasks_.push_back(PeriodicTask{
      PeriodicSchedule{static_cast<std::int64_t>(period.value() * 1e6),
                       static_cast<std::int64_t>(period.value() * 1e6)},
      std::move(task)});
}

void Engine::set_metrics(obs::MetricsShard* shard) {
  if (shard == nullptr) {
    m_steps_ = nullptr;
    m_sensor_samples_ = nullptr;
    m_task_ticks_ = nullptr;
    m_record_samples_ = nullptr;
    m_sim_time_ = nullptr;
    return;
  }
  m_steps_ = &shard->counter("engine.steps");
  m_sensor_samples_ = &shard->counter("engine.sensor_samples");
  m_task_ticks_ = &shard->counter("engine.task_ticks");
  m_record_samples_ = &shard->counter("engine.record_samples");
  m_sim_time_ = &shard->gauge("engine.sim_time_s");
}

ActivityCode Engine::activity_of_node(std::size_t i) const {
  if (app_ == nullptr) {
    return ActivityCode::kNone;
  }
  const auto rank = rank_on_node(i);
  if (!rank.has_value()) {
    return ActivityCode::kNone;
  }
  const auto kind = app_->current_phase_kind(*rank);
  if (!kind.has_value()) {
    return ActivityCode::kFinished;
  }
  switch (*kind) {
    case workload::PhaseKind::kCompute:
      return ActivityCode::kCompute;
    case workload::PhaseKind::kCommunicate:
      return ActivityCode::kCommunicate;
    case workload::PhaseKind::kIdle:
      return ActivityCode::kIdlePhase;
    case workload::PhaseKind::kBarrier:
      return ActivityCode::kBarrier;
  }
  return ActivityCode::kNone;
}

void Engine::record_sample() {
  recorder_.stamp(now_.seconds());
  // Every recorded field is fleet-resident (or, for the wall watts, resolved
  // by the sweep with Node::wall_power()'s exact memo semantics), so the
  // recording loop streams arrays instead of walking Node objects.
  FleetSweep& sweep = cluster_.sweep();
  FleetState& fleet = *cluster_.fleet();
  const double* die = fleet.batch().temperature_cell(0, fleet.wiring().die);
  const double* sensor = fleet.sensor_last.data();
  const double* duty = fleet.fan.duty_pct.data();
  const double* rpm = fleet.fan.rpm.data();
  const double* util = fleet.node.util.data();
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    recorder_.sample(now_.seconds(), i, die[i], sensor[i], duty[i], rpm[i],
                     sweep.nominal_freq_ghz(i), sweep.wall_power_w(i), util[i],
                     activity_of_node(i));
  }
}

std::uint64_t Engine::step_shard(std::size_t begin, std::size_t end, Seconds dt,
                                 SimTime after) {
  // Device/OS pre-pass, the batched RC solve over the shard's contiguous SoA
  // slice, the post-pass, then sensor sampling on each node's own schedule.
  // Every pass only touches its own nodes' state, so shards never race.
  // Samples are counted locally; the caller reduces shard counts in shard
  // order so metrics stay deterministic.
  FleetSweep& sweep = cluster_.sweep();
  sweep.pre_range(begin, end, dt);
  cluster_.fleet()->batch().step_range(dt, begin, end);
  sweep.post_range(begin, end, dt);
  return sweep.sample_range(begin, end, after);
}

RunResult Engine::run() {
  // Bind the engine to the first thread that runs it: a rig shared between
  // sweep workers is a determinism (and data-race) bug, caught here rather
  // than as silent corruption.
  std::thread::id expected{};
  const std::thread::id me = std::this_thread::get_id();
  if (!owner_thread_.compare_exchange_strong(expected, me)) {
    THERMCTL_ASSERT(expected == me,
                    "Engine is bound to the thread that first ran it; build one "
                    "cluster/engine rig per sweep point instead of sharing");
  }

  const Seconds dt = config_.physics_dt;
  const std::size_t node_count = cluster_.size();
  Node* const* nodes = cluster_.raw_nodes().data();
  // Node::set_utilization is `util = halted ? 0 : u` over these fleet rows;
  // the load fill writes them directly instead of bouncing through Nodes.
  double* util = cluster_.fleet()->node.util.data();
  const std::uint8_t* halted = cluster_.fleet()->node.halted.data();
  const std::size_t shards = resolved_workers();
  if (shards > 1 && pool_ == nullptr) {
    // Pool threads only run step_shard on disjoint node ranges; the barrier
    // (wait_idle) sits at the step's coupling point.
    pool_ = std::make_unique<runtime::ThreadPool>(shards - 1);
  }
  shard_samples_.assign(shards, 0);
  std::optional<Seconds> completion;
  // done() scans every rank; track it across the loop instead of re-asking
  // twice per step.
  bool app_running = app_ != nullptr && !app_->done();

  // Nodes breathe the room's air from the very first step: prime every inlet
  // from the room's current state (benches settle() it pre-run) so step one
  // of the physics already runs under the attached ambient.
  if (room_ != nullptr) {
    for (std::size_t i = 0; i < node_count; ++i) {
      nodes[i]->package().set_ambient(room_->inlet(i));
    }
  }

  // Record the initial state so series start at t=0.
  record_schedule_.due(now_);  // consume the t=0 firing
  // Pre-size the series for the horizon (capped so absurd horizons don't
  // balloon memory up front; past the cap push_back just grows as before).
  recorder_.reserve(std::min<std::size_t>(
      static_cast<std::size_t>(config_.horizon.value() / config_.record_period.value()) + 2,
      1u << 20));
  record_sample();

  while (true) {
    // 1. Workload → utilization.
    if (app_running) {
      freqs_scratch_.clear();
      for (std::size_t n : node_for_rank_) {
        const Node& node = *nodes[n];
        // A halted node makes no progress; a throttled or idle-injected one
        // runs at its delivered (not nominal) rate; in-band daemon overhead
        // (OS noise) steals a further slice.
        const double steal = 1.0 - steal_fraction_[n];
        freqs_scratch_.push_back(
            node.halted() ? GigaHertz{1e-6}
                          : GigaHertz{node.cpu().delivered_frequency().value() * steal});
      }
      app_->step(dt, freqs_scratch_, utils_scratch_);
      for (std::size_t r = 0; r < utils_scratch_.size(); ++r) {
        nodes[node_for_rank_[r]]->set_utilization(utils_scratch_[r]);
      }
      if (app_->done()) {
        app_running = false;
        completion = app_->completion_time();
      }
    }
    if (fleet_load_) {
      // One batched call fills the row; per-node functions override below.
      fleet_load_(now_, util, halted, node_count);
    }
    for (std::size_t i = 0; i < node_count; ++i) {
      if (node_loads_[i]) {
        util[i] = halted[i] != 0 ? 0.0 : node_loads_[i](now_).fraction();
      } else if (app_ != nullptr && !app_running && rank_of_node_[i] != kNoRank) {
        util[i] = halted[i] != 0 ? 0.0 : 0.02;  // job exited
      }
    }

    // 2. Physics, per-node and sharded BSP-style: contiguous node ranges
    // (contiguous SoA slices), one barrier per step at the join.
    SimTime after = now_;
    after.advance_us(static_cast<std::int64_t>(dt.value() * 1e6));
    if (shards == 1) {
      shard_samples_[0] = step_shard(0, node_count, dt, after);
    } else {
      const std::size_t base = node_count / shards;
      const std::size_t rem = node_count % shards;
      std::size_t begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t len = base + (s < rem ? 1 : 0);
        const std::size_t end = begin + len;
        if (s + 1 == shards) {
          // Last shard runs inline: the main thread works instead of waiting.
          shard_samples_[s] = step_shard(begin, end, dt, after);
        } else {
          pool_->submit([this, s, begin, end, dt, after] {
            shard_samples_[s] = step_shard(begin, end, dt, after);
          });
        }
        begin = end;
      }
      pool_->wait_idle();  // BSP barrier: all shards joined before coupling
    }
    now_ = after;

    // 3. Room coupling, serially at the barrier: the room mixes under the
    // rack's dissipation *from the step that just ran* — summed in node order
    // as metered wall power, the same quantity RoomModel::settle is primed
    // with — and sets every node's inlet for the next step. This is the only
    // way node state crosses node boundaries, which is what keeps the shard
    // phase above embarrassingly parallel and bit-identical at any shard
    // count. (It used to run before the physics phase on the *previous*
    // step's DC-only cpu+fan power: one round stale, and ~40% low against
    // settle()'s wall watts — the rack's PSU losses and platform base load
    // heat the room too, so a settled room drifted away from its own
    // steady state the moment the engine started stepping it.)
    if (room_ != nullptr) {
      FleetSweep& sweep = cluster_.sweep();
      double rack_watts = 0.0;
      for (std::size_t i = 0; i < node_count; ++i) {
        rack_watts += sweep.wall_power_w(i);  // == Node::wall_power()
      }
      room_->step(dt, Watts{rack_watts});
      for (std::size_t i = 0; i < node_count; ++i) {
        nodes[i]->package().set_ambient(room_->inlet(i));
      }
    }

    if (m_steps_ != nullptr) {
      m_steps_->inc();
    }
    if (m_sensor_samples_ != nullptr) {
      // Reduce per-shard counts in shard order (deterministic, and identical
      // to the serial engine's per-sample increments).
      for (std::size_t s = 0; s < shards; ++s) {
        m_sensor_samples_->add(shard_samples_[s]);
      }
    }

    // 4. Control plane, serially at the barrier: agents report, racks deal
    // budgets, the room re-budgets racks — paced internally to the plane
    // period. A passive plane exchanges the same messages but never
    // actuates, which the differential oracle holds to bit-identity.
    if (plane_ != nullptr) {
      plane_->on_round(now_);
    }

    // 5. Controller ticks.
    for (PeriodicTask& task : tasks_) {
      while (task.schedule.due(now_)) {
        task.fn(now_);
        if (m_task_ticks_ != nullptr) {
          m_task_ticks_->inc();
        }
      }
    }

    // 6. Metrics.
    while (record_schedule_.due(now_)) {
      record_sample();
      if (m_record_samples_ != nullptr) {
        m_record_samples_->inc();
      }
    }

    // 7. Termination.
    if (completion.has_value() &&
        now_.seconds() >= completion->value() + config_.cooldown.value()) {
      break;
    }
    if (now_.seconds() >= config_.horizon.value()) {
      break;
    }
    // External stop (thermctld shutdown): checked last so the step that saw
    // the request still completes its controller and metrics phases.
    if (stop_requested_.load(std::memory_order_acquire)) {
      break;
    }
  }

  if (m_sim_time_ != nullptr) {
    m_sim_time_->set(now_.seconds());
  }

  RunResult result = recorder_.result();
  result.app_completed = app_ != nullptr && app_->done();
  result.exec_time_s =
      completion.has_value() ? completion->value() : now_.seconds();
  finalize(result);
  return result;
}

void Engine::finalize(RunResult& result) const {
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    const Node& n = cluster_.node(i);
    NodeSummary& s = result.summaries[i];
    const NodeSeries& series = result.nodes[i];

    double sum_die = 0.0;
    double max_die = 0.0;
    double sum_duty = 0.0;
    for (std::size_t k = 0; k < series.die_temp.size(); ++k) {
      sum_die += series.die_temp[k];
      max_die = std::max(max_die, series.die_temp[k]);
      sum_duty += series.duty[k];
    }
    const double count = static_cast<double>(std::max<std::size_t>(1, series.die_temp.size()));
    s.avg_die_temp = sum_die / count;
    s.max_die_temp = max_die;
    s.avg_duty = sum_duty / count;
    s.avg_power_w = n.meter().average_power().value();
    s.energy_j = n.meter().energy().value();
    s.freq_transitions = n.cpu().transition_count();
    s.prochot_events = n.prochot_events();
    s.prochot_seconds = n.prochot_time().value();

    const hw::I2cErrorStats& io = n.fan_driver().io_stats();
    s.i2c_retries = io.retries;
    s.i2c_naks = io.naks;
    s.i2c_bus_faults = io.bus_faults;
    s.i2c_exhausted = io.exhausted;
  }
}

}  // namespace thermctl::cluster
