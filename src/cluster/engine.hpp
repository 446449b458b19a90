// Discrete-time simulation engine.
//
// Advances cluster physics on a fine fixed step (default 50 ms) and drives
// three families of scheduled activity on top:
//
//   1. per-node sensor sampling (default 4 Hz, the paper's rate),
//   2. user-registered periodic tasks — this is where controllers
//      (fan policies, tDVFS, CPUSPEED) are plugged in, keeping the engine
//      free of any knowledge of control logic,
//   3. metrics recording (default 4 Hz to match the figures' sample-point
//      axes).
//
// Workload sources per node: either a rank of an attached ParallelApp
// (barrier-coupled across nodes) or a time-driven SegmentLoad. The run ends
// when the app completes (its completion time is the experiment's execution
// time) or at the horizon.
//
// Physics has one layout: each step runs the cluster's FleetSweep passes and
// the batched RC solve over the FleetState SoA arrays, and loads, recording
// and the room's power sum read and write those arrays directly — no
// per-node object walk.
//
// Sharding: with `workers > 1` the per-node phases of each step are
// partitioned into contiguous node shards (contiguous SoA slices) executed on
// a ThreadPool, BSP style — a barrier after each phase. The sharded phases
// are physics + sensor sampling, controller-bank family ticks (which reach
// the partition through the runtime shard scope the engine installs for the
// length of run(); see runtime/shard_scope.hpp) and recording. Each reads
// and writes only its own nodes' state. Everything that couples nodes (app
// stepping before the physics phase; the room/ambient power reduction and
// the control plane after it) and every other periodic task runs serially
// in node/registration order, so a sharded run is bit-identical to the
// serial engine (asserted by the differential oracle's sharded-vs-serial
// pairs).
// Thread-safety: an Engine (and the Cluster/app it drives) belongs to one
// thread. The first call to run() binds the engine to the calling thread and
// any later run() from a different thread trips a THERMCTL_ASSERT — catching
// the one misuse a parallel sweep invites (sharing a rig across runner
// workers instead of building one rig per sweep point; see src/runtime/).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/room.hpp"
#include "common/sim_time.hpp"
#include "obs/metrics_registry.hpp"
#include "runtime/shard_scope.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/app.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_load.hpp"

namespace thermctl::cluster {

namespace ctrl {
class ControlPlane;
}

struct EngineConfig {
  Seconds physics_dt{0.05};
  Seconds horizon{900.0};
  Seconds record_period{0.25};
  /// Keep simulating this long after app completion (lets figures show the
  /// cool-down tail); 0 stops immediately.
  Seconds cooldown{0.0};
  /// Node shards for the per-step physics/sampling, bank tick and recording
  /// phases: 1 = serial engine (no pool), >1 = that many shards on a
  /// ThreadPool, 0 = one per hardware thread. Results are bit-identical for
  /// every value.
  int workers = 1;
};

class Engine {
 public:
  Engine(Cluster& cluster, EngineConfig config = {});

  /// Attaches a parallel app; rank r runs on node `node_for_rank[r]`.
  /// At most one rank per node. The app is not owned.
  void attach_app(workload::ParallelApp& app, std::vector<std::size_t> node_for_rank);

  /// Drives node `i` from a time-function load instead (not owned).
  void set_node_load(std::size_t i, const workload::SegmentLoad* load);
  void set_node_load(std::size_t i, const workload::TraceLoad* load);
  /// Fully general form: any utilization function of simulated time.
  void set_node_load_fn(std::size_t i, std::function<Utilization(SimTime)> load);

  /// Batched load hook for dense synthetic fleets: ONE call per physics step
  /// fills the fleet's whole utilization row in place of N per-node
  /// std::function dispatches (at 100k nodes the per-node hops cost more
  /// than the RC solve). The callback must write
  /// `util[i] = halted[i] != 0 ? 0.0 : <fraction in [0, 1]>` for every i.
  /// Per-node load functions still override individual nodes afterwards.
  using FleetLoadFn =
      std::function<void(SimTime, double* util, const std::uint8_t* halted, std::size_t count)>;
  void set_fleet_load_fn(FleetLoadFn load);

  /// Attaches a machine-room air model (not owned): each physics step the
  /// room mixes under the rack's dissipation and every node's inlet
  /// temperature is driven from it — closing the datacenter-level loop.
  void attach_room(RoomModel& room);

  /// Attaches a hierarchical control plane (not owned): its on_round fires
  /// serially at the BSP barrier every step, after room coupling and before
  /// controller ticks, so plane decisions land with one-step-fresh state and
  /// the local controllers see any cap/policy the plane just applied.
  void attach_plane(ctrl::ControlPlane& plane);

  /// Registers a periodic task (controller tick). Tasks fire after sensor
  /// sampling at the same instant, in registration order, on the thread that
  /// runs the engine; a task that calls runtime::for_each_shard (a
  /// ControlBank family tick) spreads its nodes over the engine's shards.
  void add_periodic(Seconds period, std::function<void(SimTime)> task);

  /// Models the in-band cost of a control daemon on node `i`: `per_tick` of
  /// CPU time stolen from the application every `period` (OS noise). The
  /// stolen fraction scales the delivered frequency the app sees on that
  /// node — and through barriers, taxes the whole parallel job. 0 disables.
  void set_inband_overhead(std::size_t i, Seconds per_tick, Seconds period);

  // ---- load migration (the in-band technique of Heath/Powell et al.) ----

  /// Node currently hosting rank `r` (requires an attached app).
  [[nodiscard]] std::size_t node_of_rank(std::size_t r) const;
  /// Rank hosted on node `i`, if any. O(1): served from a reverse map kept
  /// in sync by attach_app()/migrate_rank().
  [[nodiscard]] std::optional<std::size_t> rank_on_node(std::size_t i) const;

  /// Moves rank `r` to `new_node` (which must be free and not halted). The
  /// rank pays `cost` of checkpoint/transfer stall; the vacated node goes
  /// idle. Returns false (no change) if the target is occupied or down.
  bool migrate_rank(std::size_t r, std::size_t new_node, Seconds cost);

  [[nodiscard]] int migrations() const { return migrations_; }

  /// Points the engine at a metrics shard (nullptr detaches). Handles are
  /// resolved once here, so the run loop pays one branch + one non-atomic
  /// add per update — never a name lookup.
  void set_metrics(obs::MetricsShard* shard);

  /// Runs to completion and returns the recorded result.
  RunResult run();

  /// Asks a running engine to stop at the end of the current step (after the
  /// step's controllers and metrics have run), as if the horizon had been
  /// reached. Thread-safe and callable from any thread — this is how
  /// thermctld's socket `shutdown` ends a live run cleanly (spill finalize
  /// and result finalization happen exactly as on a natural exit). A stop
  /// requested before run() makes the run end after its first step.
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }
  [[nodiscard]] bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  [[nodiscard]] SimTime now() const { return now_; }

  /// Shard count the per-node phases will actually use (config workers
  /// resolved against hardware threads and clamped to the node count).
  [[nodiscard]] std::size_t resolved_workers() const;

 private:
  struct PeriodicTask {
    PeriodicSchedule schedule;
    std::function<void(SimTime)> fn;
  };

  void record_sample();
  [[nodiscard]] ActivityCode activity_of_node(std::size_t i) const;
  void finalize(RunResult& result) const;
  /// Physics + sampling for nodes [begin, end); `after` is the step's end
  /// time (sampling schedules are checked against it). Returns the number of
  /// sensor samples taken.
  std::uint64_t step_shard(std::size_t begin, std::size_t end, Seconds dt, SimTime after);
  /// Runs fn(begin, end) over the run's shard partition of [0, n) and
  /// returns once every range has finished: the one partition routine of the
  /// physics, tick and recording phases.
  void for_each_range(std::size_t n, const runtime::RangeFn& fn);

  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

  Cluster& cluster_;
  EngineConfig config_;
  workload::ParallelApp* app_ = nullptr;
  RoomModel* room_ = nullptr;
  ctrl::ControlPlane* plane_ = nullptr;
  std::vector<std::size_t> node_for_rank_;
  std::vector<std::size_t> rank_of_node_;  // reverse map; kNoRank = vacant
  std::vector<std::function<Utilization(SimTime)>> node_loads_;
  std::size_t node_load_count_ = 0;  // entries of node_loads_ that are set
  FleetLoadFn fleet_load_;
  std::vector<double> steal_fraction_;  // per node, from in-band overhead
  std::vector<PeriodicTask> tasks_;
  MetricsRecorder recorder_;
  PeriodicSchedule record_schedule_;
  // Pre-resolved metric handles; all null when no shard is attached.
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_sensor_samples_ = nullptr;
  obs::Counter* m_task_ticks_ = nullptr;
  obs::Counter* m_record_samples_ = nullptr;
  obs::Gauge* m_sim_time_ = nullptr;
  SimTime now_;
  int migrations_ = 0;
  // Hot-loop scratch, reused every physics step instead of reallocated.
  std::vector<GigaHertz> freqs_scratch_;
  std::vector<Utilization> utils_scratch_;
  // Shard machinery (the pool is only materialized when resolved_workers() > 1).
  std::size_t shards_ = 1;  // resolved_workers() of the current run
  std::unique_ptr<runtime::ThreadPool> pool_;
  // Set by the first run(); later runs must come from the same thread.
  std::atomic<std::thread::id> owner_thread_{};
  // Cross-thread early-stop flag (see request_stop()).
  std::atomic<bool> stop_requested_{false};
};

}  // namespace thermctl::cluster
