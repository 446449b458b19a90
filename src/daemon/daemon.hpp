// thermctld — the long-lived thermal control daemon.
//
// Wraps one experiment rig in a service: Daemon::run() builds the rig
// through core::run_experiment, rides a control periodic on the engine
// thread, and (when a socket path is configured) serves a line-oriented
// control API over a UNIX-domain stream socket. One request per line,
// one response per request; every response is a single line except
// `metrics`, whose body is `# EOF`-framed exactly like the exposition:
//
//   GET /metrics | metrics   latest OpenMetrics exposition ("# EOF"-framed)
//   status                   one-line "OK key=value ..." fleet summary
//   set-policy <Pp>          hot Pp re-tune (1..100), applied next round
//   set-budget <W>           room power budget injection, applied next round
//   pause / resume           freeze / unfreeze simulated time
//   shutdown                 clean stop: spill finalize, result as usual
//   ping | pet               liveness probe (pet also feeds the keepalive)
//
// Commands mutate through a queue drained by the engine-thread control
// round, so actuation always happens on the thread that owns the rig and
// lands within one control period (default 0.25 s sim — well inside one
// L2 window) without ever dropping a round.
//
// Keepalive watchdog (the w83877f deadman pattern): the control round pets
// a wall-clock deadline every period; a watchdog thread declares failsafe
// when the pet stops. The engine thread, which owns the rig, then forces
// the fail-safe state — every fan to manual 100 % duty, every plane power
// cap released — as soon as it runs again: right after the command that
// wedged it, or at the next control round. Simulated time is frozen while
// the thread is wedged, so the forced state takes effect before any more
// physics, and the control round after it recovers by re-applying the
// current policy. The watchdog thread itself never touches the rig: a
// missed pet does not prove the engine thread is parked (a slow step
// misses it too). While paused the deadman is disarmed (an operator freeze
// is not a stall), mirroring the chip's magic-close semantics.
//
// An empty socket_path runs the daemon dark (no server thread, no command
// source): the differential oracle's kDaemonPassiveVsEngine pairing
// asserts that configuration is bit-identical to a plain engine run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "core/experiment.hpp"
#include "obs/openmetrics.hpp"

namespace thermctl::daemon {

struct DaemonConfig {
  /// UNIX-domain stream socket path. Empty = dark mode: no server thread,
  /// in-process post_*() is the only command source.
  std::string socket_path;
  /// The experiment to run. telemetry.rollup should be enabled for a useful
  /// `metrics` / `status`; the daemon chains (never replaces) any live_sink
  /// and on_rig_built already configured.
  core::ExperimentConfig experiment;
  /// Wall-clock deadman timeout. The control round pets once per period of
  /// *simulated* time, which normally elapses far faster than wall time, so
  /// a couple of seconds is conservative; tests shrink it to force fires.
  double watchdog_timeout_s = 2.0;
  /// Sim-time cadence of the daemon control round.
  double control_period_s = 0.25;
  int listen_backlog = 64;
};

/// Monotonic service counters (all updated with relaxed atomics; read any
/// time, including after run() returns).
struct DaemonStats {
  std::uint64_t control_rounds = 0;
  std::uint64_t commands_enqueued = 0;
  std::uint64_t commands_applied = 0;
  std::uint64_t failsafe_entries = 0;
  std::uint64_t failsafe_recoveries = 0;
  std::uint64_t clients_accepted = 0;
  std::uint64_t requests_served = 0;
  /// Sim time of the most recent re-tune's (set-policy / set-budget)
  /// enqueue and engine-thread apply; -1 before any. The enqueue stamp is
  /// the last status-snapshot time — at most one control period behind the
  /// engine — so apply - enqueue over-estimates the true in-band latency.
  double last_retune_enqueue_t_s = -1.0;
  double last_retune_apply_t_s = -1.0;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Runs the experiment to completion (blocking) and returns its result.
  /// The socket server and watchdog live exactly as long as this call.
  core::ExperimentResult run();

  // In-process command injection — the same queue the socket commands take.
  // Safe from any thread while run() is live; a post after the run has
  // ended is accepted and never applied.
  void post_set_policy(int pp);
  void post_set_budget(double watts);
  void post_pause();
  void post_resume();
  void post_shutdown();
  /// Test hook: the next control round sleeps `ms` of wall time mid-round,
  /// simulating a wedged control path so the deadman can be exercised.
  void post_stall(double ms);

  /// One protocol request → one response (no trailing newline). Exposed so
  /// tests can drive the protocol without a socket.
  [[nodiscard]] std::string handle_request(const std::string& line);

  [[nodiscard]] DaemonStats stats() const;
  [[nodiscard]] bool in_failsafe() const {
    return failsafe_active_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool paused() const { return paused_.load(std::memory_order_acquire); }
  /// Latest OpenMetrics exposition ("# EOF\n"-terminated; bare "# EOF\n"
  /// before the first rollup interval or when rollup is off).
  [[nodiscard]] std::string metrics_text() const;
  /// The `status` response body.
  [[nodiscard]] std::string status_line() const;

 private:
  struct Command {
    enum class Kind : std::uint8_t { kSetPolicy, kSetBudget, kPause, kResume, kShutdown, kStall };
    Kind kind{};
    int pp = 0;
    double value = 0.0;
  };

  /// Thread-safe latest-exposition keeper; chains to the user's sink.
  class LatestSink : public obs::LiveTelemetrySink {
   public:
    explicit LatestSink(obs::LiveTelemetrySink* chain) : chain_(chain) {}
    void on_exposition(double t_s, const std::string& text) override;
    [[nodiscard]] std::string last() const;

   private:
    obs::LiveTelemetrySink* chain_;
    mutable std::mutex mu_;
    std::string last_;
  };

  void enqueue(Command cmd);
  void on_rig_built(const core::RigView& rig);
  void control_round(SimTime now);
  void apply(const Command& cmd, SimTime now);
  void pet();
  void watchdog_main();
  void enter_failsafe();
  void apply_failsafe();
  void server_main();
  void update_status(SimTime now);
  void request_engine_stop();

  DaemonConfig config_;
  LatestSink sink_;

  // Rig handles, valid from on_rig_built until run_experiment returns;
  // rig_mutex_ orders off-engine-thread dereferences (shutdown, failsafe)
  // against the post-run teardown that nulls them.
  std::mutex rig_mutex_;
  core::RigView rig_{};
  std::atomic<bool> rig_active_{false};

  std::mutex cmd_mutex_;
  std::deque<Command> commands_;

  // Pause machinery: the control round blocks on pause_cv_ while paused.
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  std::atomic<bool> paused_{false};

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};

  // Deadman: nanoseconds-since-steady-epoch of the last pet.
  std::atomic<std::int64_t> last_pet_ns_{0};
  std::atomic<bool> watchdog_armed_{false};
  std::atomic<bool> failsafe_active_{false};
  // Engine thread only: the fail-safe state of the current entry is forced.
  bool failsafe_applied_ = false;

  std::atomic<int> current_pp_{0};
  std::atomic<double> current_budget_w_{0.0};

  // Re-tune clock, both ends in sim seconds (see DaemonStats).
  std::atomic<double> last_retune_enqueue_t_s_{-1.0};
  std::atomic<double> last_retune_apply_t_s_{-1.0};

  // Fleet snapshot refreshed by the control round, served by `status`.
  mutable std::mutex status_mutex_;
  struct StatusSnapshot {
    double t_s = 0.0;
    std::uint32_t fleet_members = 0;
    double fleet_max_temp_c = 0.0;
    double fleet_power_w = 0.0;
    std::size_t alerts_firing = 0;
    std::uint64_t spill_drains = 0;
    std::uint64_t spill_events = 0;
    std::uint64_t spill_lost = 0;
  } status_;

  std::atomic<std::uint64_t> control_rounds_{0};
  std::atomic<std::uint64_t> commands_enqueued_{0};
  std::atomic<std::uint64_t> commands_applied_{0};
  std::atomic<std::uint64_t> failsafe_entries_{0};
  std::atomic<std::uint64_t> failsafe_recoveries_{0};
  std::atomic<std::uint64_t> clients_accepted_{0};
  std::atomic<std::uint64_t> requests_served_{0};

  std::thread watchdog_thread_;
  std::thread server_thread_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace thermctl::daemon
