// Experiment harness.
//
// One declarative config describing a paper experiment — cluster size,
// workload, fan policy, DVFS policy, Pp, fan ceiling — and a runner that
// builds the full stack (cluster → sysfs planes → controllers → engine),
// executes it, and returns the recorded result plus controller event logs.
// The rig has one layout: the nodes share FleetState SoA arrays stepped by
// FleetSweep, and the dynamic fan / tDVFS controllers live in a ControlBank
// ticked by one periodic per family from a latched sensor row.
// Every bench, example and integration test goes through this entry point,
// so experiment definitions stay single-sourced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/coordinator/coordinator.hpp"
#include "cluster/engine.hpp"
#include "cluster/metrics.hpp"
#include "cluster/room.hpp"
#include "core/cpuspeed.hpp"
#include "core/fan_policy.hpp"
#include "core/policy.hpp"
#include "core/tdvfs.hpp"
#include "core/unified_controller.hpp"
#include "obs/alerts.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/openmetrics.hpp"
#include "obs/rollup.hpp"
#include "obs/spill.hpp"
#include "obs/trace.hpp"
#include "workload/npb.hpp"
#include "workload/synthetic.hpp"

namespace thermctl::core {

enum class FanPolicyKind {
  kChipDefault,   // leave the chip's power-on automatic mode alone
  kStaticCurve,   // the traditional Fig. 1 policy (baseline)
  kConstantDuty,  // pinned duty (baseline)
  kDynamic,       // the paper's history-based controller
};

enum class DvfsPolicyKind {
  kNone,
  kTdvfs,
  kCpuspeed,
};

enum class WorkloadKind {
  kIdle,
  kCpuBurn,        // §4.2 stressor, one sustained instance
  kCpuBurnCycles,  // three back-to-back cpu-burn instances with gaps between
                   // them (§4.2 runs "three instances"; the inter-instance
                   // dips are visible in Fig. 5's temperature traces)
  kNpbBt,          // BT class B
  kNpbLu,          // LU class B
  kFig2Profile,    // the sudden/gradual/jitter composite
};

/// One scheduled fault episode on one node (half-open interval, sim time).
struct FaultEpisode {
  enum class Kind : std::uint8_t {
    kSensorStuck,  // thermal sensor freezes at its last conversion
    kBusFault,     // i2c transfers fail electrically
  };
  Kind kind{};
  Seconds start{0.0};
  Seconds end{0.0};
};

/// Randomized fault campaign: every node gets a seeded, reproducible
/// schedule of sensor-stuck and bus-fault episodes. Pairs with
/// `ExperimentConfig::fault_aware` to exercise the degradation paths; with
/// it off, the same campaign shows what the blind controller does instead.
struct FaultCampaignConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  int episodes_per_node = 2;
  /// No episode starts before this (lets the controllers reach steady state).
  Seconds start_after{20.0};
  Seconds min_duration{10.0};
  Seconds max_duration{30.0};
  /// Probability an episode is kSensorStuck (the rest are kBusFault).
  double sensor_stuck_weight = 0.5;
};

/// The deterministic schedule for `node` (sorted by start time). Exposed so
/// tests can assert exactly which faults a run saw.
[[nodiscard]] std::vector<FaultEpisode> make_fault_schedule(const FaultCampaignConfig& cfg,
                                                            std::size_t node, Seconds horizon);

/// Cluster-wide controller-side fault counters (sums over all nodes).
struct ControllerFaultStats {
  std::uint64_t failsafe_entries = 0;      // fan fail-safe cooling entries
  std::uint64_t failsafe_exits = 0;        // ... and recoveries out of it
  std::uint64_t dvfs_hold_entries = 0;     // tDVFS frequency-hold entries
  std::uint64_t dvfs_held_ticks = 0;       // ticks spent holding
  std::uint64_t sensor_rejected = 0;       // readings rejected by the monitors
  std::uint64_t sensor_stuck_detections = 0;
  std::uint64_t sensor_failures = 0;       // confirmed-failure entries
  std::uint64_t sensor_recoveries = 0;
};

/// Hierarchical rack/room control plane riding above the per-node
/// controllers (node agent → rack coordinator → room coordinator). Off by
/// default — the paper's flat per-node loops run exactly as before. With
/// `room_enabled` a RoomModel is built, settled at the cluster's idle wall
/// draw and attached to the engine, closing the datacenter ambient loop the
/// room coordinator budgets against.
struct PlaneHarnessConfig {
  bool enabled = false;
  cluster::ctrl::PlaneConfig plane{};
  bool room_enabled = false;
  cluster::RoomParams room{};
};

/// Run telemetry switches. Everything defaults off; a disabled run pays one
/// untaken branch per decision site and is bit-identical to a build without
/// any of this wired in. The live pipeline below (spill / rollup / alerts /
/// exposition) is pure observation on the engine thread's serial phases: the
/// oracle's kLiveTelemetryOnVsOff pairing asserts an enabled run stays
/// bit-identical on every behavioural axis.
struct TelemetryConfig {
  /// Record controller decisions into per-node trace rings; the result then
  /// carries a RunTrace for export (.thermtrace / Chrome JSON) and analysis.
  bool trace = false;
  /// Events retained per node (oldest overwritten beyond this).
  std::size_t trace_ring_capacity = 1u << 14;
  /// Count engine/controller activity into a metrics registry; the result
  /// then carries a merged MetricsSnapshot.
  bool metrics = false;

  /// Stream ring contents into a SpillSink during the run (requires trace).
  /// With a drain period short enough for the ring capacity, a run whose
  /// rings would wrap loses nothing — drops surface in SpillStats instead.
  bool spill = false;
  obs::SpillConfig spill_cfg{};
  /// Spill destination: an externally owned sink takes precedence; else a
  /// .thermtrace file is created at spill_path. One must be set when
  /// spill is on.
  obs::SpillSink* spill_sink = nullptr;
  std::string spill_path;

  /// Online per-rack/fleet aggregation on a sim-time cadence. When the
  /// control plane is enabled and rollup.nodes_per_rack is 0, rack geometry
  /// is inherited from the plane config.
  obs::RollupConfig rollup{};

  /// Watchdog threshold rules evaluated after every rollup sample (requires
  /// rollup.enabled). Fires land on the fleet trace lane (ring 0, when
  /// tracing) and in the run summary's alerts section.
  std::vector<obs::AlertRule> alerts;

  /// Mid-run OpenMetrics exposition sink (not owned), called every
  /// `live_every` rollup intervals (requires rollup.enabled).
  obs::LiveTelemetrySink* live_sink = nullptr;
  std::uint32_t live_every = 1;
};

/// Read-only view of a fully built rig, handed to `on_rig_built` observers
/// after the controllers are wired but before the engine runs. Observers may
/// register additional periodic engine tasks (they fire after the node
/// sampling and after every controller registered before them).
/// *Verification* observers must not actuate anything — their contract is
/// that an observed run is bit-identical to an unobserved one. Scenario
/// drivers (benches scripting mid-run plane events through `plane`) actuate
/// on purpose and give up that guarantee.
struct RigView {
  cluster::Cluster* cluster = nullptr;
  cluster::Engine* engine = nullptr;
  std::vector<DynamicFanController*> fans;    // empty unless fan == kDynamic
  std::vector<TdvfsDaemon*> tdvfs;            // empty unless dvfs == kTdvfs
  cluster::ctrl::ControlPlane* plane = nullptr;  // null unless plane enabled
  // Live-telemetry handles (null unless the corresponding TelemetryConfig
  // switch is on). thermctld serves these over its socket; observers may
  // read them from the engine thread only.
  obs::FleetRollup* rollup = nullptr;
  obs::AlertWatchdog* watchdog = nullptr;
  obs::TraceSpiller* spiller = nullptr;
  const struct ExperimentConfig* config = nullptr;
};

/// Hot policy re-tune across a built rig: applies `pp` directly to every
/// dynamic fan controller and tDVFS daemon (taking effect at their next
/// sample, i.e. well inside one L2 window) and, when an active control plane
/// is attached, also broadcasts it down the hierarchy so late joiners and
/// plane bookkeeping converge on the same Pp. This is thermctld's
/// `set-policy` path; engine-thread only, like the controllers themselves.
void retune_policy(const RigView& rig, PolicyParam pp);

struct ExperimentConfig {
  std::string name = "experiment";
  std::size_t nodes = 4;
  WorkloadKind workload = WorkloadKind::kNpbBt;
  Seconds cpu_burn_duration{300.0};  // "each run lasts about five minutes"
  /// Overrides the NPB iteration count (0 = benchmark default); lets tests
  /// run miniature BT/LU instances.
  int npb_iterations_override = 0;

  FanPolicyKind fan = FanPolicyKind::kDynamic;
  DvfsPolicyKind dvfs = DvfsPolicyKind::kNone;

  PolicyParam pp{};
  /// Fan ceiling — emulates less powerful fans (Figs. 6–10, Table 1).
  DutyCycle max_duty{100.0};
  /// Duty for kConstantDuty.
  DutyCycle constant_duty{75.0};

  TdvfsConfig tdvfs{};
  CpuspeedConfig cpuspeed{};
  FanControlConfig fan_cfg{};

  cluster::NodeParams node_params{};
  cluster::EngineConfig engine{};
  std::uint64_t seed = 20260708;

  /// Sensor-health gating for the dynamic fan and tDVFS controllers (one
  /// knob for both, like Pp). Off by default: zero-fault runs are
  /// bit-identical with it on or off, but the default keeps the paper's
  /// blind-controller behaviour exact under injected faults too.
  bool fault_aware = false;
  SensorHealthConfig health{};
  FaultCampaignConfig faults{};

  PlaneHarnessConfig control_plane{};

  TelemetryConfig telemetry{};

  /// Observer called once per run with the built rig (see RigView). Null by
  /// default; the verification layer uses this to arm invariant checking on
  /// any experiment without core depending on it.
  std::function<void(const RigView&)> on_rig_built;
};

struct ExperimentResult {
  cluster::RunResult run;
  /// Per-node tDVFS event logs (empty unless tDVFS ran on that node).
  std::vector<std::vector<TdvfsEvent>> tdvfs_events;
  /// Per-node dynamic-fan retarget logs.
  std::vector<std::vector<FanEvent>> fan_events;
  /// First DVFS intervention time across the cluster (-1 if none).
  double first_dvfs_trigger_s = -1.0;
  /// Controller-side fault counters (all zero unless fault_aware was set).
  ControllerFaultStats fault_stats;
  /// The fault schedule each node actually ran (empty when no campaign).
  std::vector<std::vector<FaultEpisode>> fault_schedules;
  /// Control-plane counters (all zero unless the plane was enabled). Like
  /// telemetry payloads, these are plane bookkeeping, not node behaviour —
  /// the differential oracle does not diff them.
  cluster::ctrl::PlaneStats plane_stats;
  /// Decision trace (null unless telemetry.trace). Shared so results can be
  /// copied around by sweeps without duplicating event buffers.
  std::shared_ptr<obs::RunTrace> trace;
  /// Merged run telemetry (empty unless telemetry.metrics).
  obs::MetricsSnapshot metrics;
  /// Fleet/rack rollup series (null unless telemetry.rollup.enabled). Shared
  /// for the same reason as `trace`.
  std::shared_ptr<obs::FleetRollup> rollup;
  /// Watchdog rules and the alert episodes they produced (empty unless
  /// telemetry.alerts were configured).
  std::vector<obs::AlertRule> alert_rules;
  std::vector<obs::AlertEvent> alerts;
  /// Spiller accounting (set only when telemetry.spill; includes the
  /// finishing drain).
  std::optional<obs::SpillStats> spill;
};

/// Builds, runs and tears down one experiment.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// The paper's platform defaults: 4-node power-aware cluster, Athlon64-class
/// CPUs, 4300 RPM fans, 4 Hz sampling, tDVFS threshold 51 °C.
[[nodiscard]] ExperimentConfig paper_platform();

}  // namespace thermctl::core
