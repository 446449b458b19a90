// daemon_ops: operators and scrapers talking to a live thermctld.
//
// An in-process daemon::Daemon on a UNIX socket hosts a cpu-burn fleet at
// engine workers = 1 with the hierarchical control plane (64 nodes/rack),
// trace spill into a sink this file owns, rollups, one alert rule and live
// OpenMetrics exposition. One client thread plays a seeded open-loop
// schedule over two connections (reads on one, writes on the other): GET
// /metrics scrapes, status and ping; set-policy and set-budget at a fixed
// share. Every request is timed from its due time, so a stall is charged to
// the requests queued behind it. A session ends with `shutdown`; a run is a
// few sessions, each one a fresh daemon (a set-up sample).
//
// The fleet's outputs depend on when commands land, so this workload gets no
// digest; its checks are protocol and service invariants instead.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "daemon/daemon.hpp"
#include "obs/openmetrics.hpp"
#include "obs/spill.hpp"

namespace thermbench {

namespace {

using namespace thermctl;

constexpr double kLatencyLimitS = 0.100;
constexpr double kControlPeriodS = 0.25;

struct DaemonShape {
  std::size_t nodes;
  double rate_per_s;  // open-loop request rate
  int sessions;
};

DaemonShape shape_for(Scale scale) {
  return scale == Scale::kFull ? DaemonShape{4096, 200.0, 3} : DaemonShape{256, 100.0, 2};
}

enum class Kind { kScrape, kStatus, kPing, kSetPolicy, kSetBudget };

struct Request {
  double due_s = 0.0;  // offset from the session's start
  Kind kind = Kind::kPing;
  std::string line;
};

/// Seeded open-loop schedule: Poisson arrivals; 50 % scrapes, 20 % status,
/// 15 % ping, 10 % set-policy, 5 % set-budget.
std::vector<Request> make_schedule(std::uint64_t seed, double rate, double duration_s,
                                   std::size_t nodes, bool inject_refused) {
  std::vector<Request> schedule;
  std::uint64_t state = mix64(seed ^ 0xda3a0ULL);
  auto uniform = [&state] {
    state = mix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - uniform()) / rate;
    if (t >= duration_s) {
      break;
    }
    const double pick = uniform();
    Request r;
    r.due_s = t;
    if (pick < 0.50) {
      r.kind = Kind::kScrape;
      r.line = "GET /metrics";
    } else if (pick < 0.70) {
      r.kind = Kind::kStatus;
      r.line = "status";
    } else if (pick < 0.85) {
      r.kind = Kind::kPing;
      r.line = "ping";
    } else if (pick < 0.95) {
      r.kind = Kind::kSetPolicy;
      r.line = "set-policy " + std::to_string(10 + static_cast<int>(uniform() * 81.0));
    } else {
      r.kind = Kind::kSetBudget;
      const auto watts =
          static_cast<long>(static_cast<double>(nodes) * (250.0 + 100.0 * uniform()));
      r.line = "set-budget " + std::to_string(watts);
    }
    schedule.push_back(std::move(r));
  }
  if (inject_refused && !schedule.empty()) {
    // An ordinary set-policy, checked like any other; Pp 0 is out of range,
    // so the daemon's refusal fails the reply check.
    Request& r = schedule[schedule.size() / 2];
    r.kind = Kind::kSetPolicy;
    r.line = "set-policy 0";
  }
  return schedule;
}

/// Counts (and, when traced, times) what the spiller streams out.
class CountingSpillSink : public obs::SpillSink {
 public:
  explicit CountingSpillSink(Tracer* tracer) : tracer_(tracer) {}
  void append(const obs::TraceEvent* events, std::size_t count) override {
    ScopedSpan span{tracer_, "obs.spill_append"};
    (void)events;
    events_ += count;
    bytes_ += count * sizeof(obs::TraceEvent);
  }
  void finalize(std::uint32_t, std::uint64_t) override {}
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  Tracer* tracer_;
  std::uint64_t events_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Counts the expositions the daemon renders, chained behind its own sink.
class CountingLiveSink : public obs::LiveTelemetrySink {
 public:
  void on_exposition(double, const std::string& text) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(text.size(), std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const { return count_.load(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(); }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

int connect_to(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  return -1;
}

/// Sends one request line and reads the reply up to `terminator`; empty on
/// a dropped or truncated reply.
std::string round_trip(int fd, const std::string& line, const char* terminator) {
  const std::string out = line + "\n";
  if (::write(fd, out.data(), out.size()) != static_cast<ssize_t>(out.size())) {
    return {};
  }
  const std::size_t tlen = std::strlen(terminator);
  std::string reply;
  char chunk[16384];
  while (reply.size() < tlen || reply.compare(reply.size() - tlen, tlen, terminator) != 0) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      return {};
    }
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  return reply;
}

bool well_formed(const Request& r, const std::string& reply) {
  switch (r.kind) {
    case Kind::kScrape:
      // A bare frame before the first rollup interval; a full body after.
      return reply == "# EOF\n" ||
             (reply.rfind("# ", 0) == 0 && reply.find("thermctl_") != std::string::npos);
    case Kind::kStatus:
      return reply.rfind("OK t_s=", 0) == 0 && reply.find(" requests=") != std::string::npos;
    case Kind::kPing:
      return reply == "OK pong\n";
    case Kind::kSetPolicy:
      return reply == "OK pp=" + r.line.substr(11) + "\n";
    case Kind::kSetBudget:
      return reply.rfind("OK budget_w=", 0) == 0;
  }
  return false;
}

struct Session {
  double setup_s = 0.0;
  double run_s = 0.0;  // on_rig_built to run() return
  double node_steps = 0.0;
  std::vector<double> scrape_s;
  std::vector<double> cmd_s;
  std::vector<double> retune_s;
  std::vector<double> lag_s;
  std::vector<double> step_s;
  std::uint64_t rounds_owed = 0;  // control periods in the simulated time run
  std::uint64_t attempted = 0;
  std::uint64_t malformed = 0;
  std::uint64_t late = 0;
  std::uint64_t unapplied_retunes = 0;
  daemon::DaemonStats stats;
  std::uint64_t steps = 0;
  std::uint64_t sensor_samples = 0;
  std::uint64_t task_ticks = 0;
  std::uint64_t record_samples = 0;
  std::uint64_t spill_lost = 0;
  std::uint64_t spill_events = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t expositions = 0;
  std::uint64_t exposition_bytes = 0;
  std::uint64_t plane_rounds = 0;
  std::uint64_t plane_budgets_sent = 0;
};

Session run_session(const DaemonShape& shape, const std::string& work_dir, std::uint64_t seed,
                    double duration_s, bool inject_refused, Tracer* tracer) {
  Session session;
  CountingSpillSink spill_sink{tracer};
  CountingLiveSink live_sink;

  daemon::DaemonConfig dc;
  dc.socket_path = work_dir + "/thermctld-" + std::to_string(::getpid()) + ".sock";
  dc.control_period_s = kControlPeriodS;
  core::ExperimentConfig& cfg = dc.experiment;
  cfg = core::paper_platform();
  cfg.name = "daemon_ops";
  cfg.nodes = shape.nodes;
  cfg.seed = seed;
  cfg.workload = core::WorkloadKind::kCpuBurn;
  cfg.cpu_burn_duration = Seconds{1e6};  // ends via `shutdown`, not the horizon
  cfg.engine.horizon = Seconds{1e6};
  cfg.engine.record_period = Seconds{5.0};
  cfg.engine.workers = 1;
  cfg.control_plane.enabled = true;
  cfg.control_plane.plane.nodes_per_rack = 64;
  cfg.telemetry.metrics = true;
  cfg.telemetry.trace = true;
  cfg.telemetry.trace_ring_capacity = 1024;
  cfg.telemetry.spill = true;
  cfg.telemetry.spill_sink = &spill_sink;
  cfg.telemetry.rollup.enabled = true;
  cfg.telemetry.rollup.interval_s = 1.0;
  cfg.telemetry.alerts.push_back(
      obs::AlertRule{"fleet_hot", obs::AlertKind::kMaxTemp, 80.0, 2.0, false});
  cfg.telemetry.live_sink = &live_sink;

  std::atomic<bool> built{false};
  Clock::time_point t_entry;
  Clock::time_point t_built;
  Clock::time_point last_step;
  cfg.on_rig_built = [&](const core::RigView& rig) {
    t_built = Clock::now();
    built.store(true, std::memory_order_release);
    if (tracer != nullptr) {
      last_step = t_built;
      rig.engine->add_periodic(cfg.engine.physics_dt, [&](SimTime) {
        const Clock::time_point now = Clock::now();
        session.step_s.push_back(seconds_between(last_step, now));
        last_step = now;
      });
    }
  };

  daemon::Daemon d{dc};
  core::ExperimentResult result;
  Clock::time_point t_done;
  std::thread engine_thread{[&] {
    t_entry = Clock::now();
    result = d.run();
    t_done = Clock::now();
  }};

  const int reads = connect_to(dc.socket_path);
  const int writes = connect_to(dc.socket_path);
  while (!built.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }

  const std::vector<Request> schedule =
      make_schedule(seed, shape.rate_per_s, duration_s, shape.nodes, inject_refused);
  struct Pending {
    Clock::time_point sent;
    std::uint64_t command_index;
  };
  std::deque<Pending> pending;
  std::uint64_t commands_accepted = 0;
  auto poll_applied = [&] {
    const std::uint64_t applied = d.stats().commands_applied;
    const Clock::time_point now = Clock::now();
    while (!pending.empty() && pending.front().command_index <= applied) {
      session.retune_s.push_back(seconds_between(pending.front().sent, now));
      pending.pop_front();
    }
  };

  const Clock::time_point start = Clock::now();
  for (const Request& r : schedule) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(r.due_s));
    while (Clock::now() < due) {
      if (pending.empty()) {
        std::this_thread::sleep_until(due);
      } else {
        poll_applied();
        std::this_thread::sleep_for(std::chrono::microseconds{20});
      }
    }
    const bool is_write = r.kind == Kind::kSetPolicy || r.kind == Kind::kSetBudget;
    const Clock::time_point sent = Clock::now();
    const char* span_name = r.kind == Kind::kScrape ? "daemon.scrape" : "daemon.command";
    const int span = tracer != nullptr ? tracer->begin(span_name, -1) : -1;
    const std::string reply = (reads < 0 || writes < 0)
                                  ? std::string{}
                                  : round_trip(is_write ? writes : reads, r.line,
                                               r.kind == Kind::kScrape ? "# EOF\n" : "\n");
    const Clock::time_point done = Clock::now();
    if (tracer != nullptr) {
      tracer->end(span);
    }
    ++session.attempted;
    const double latency = seconds_between(due, done);
    session.lag_s.push_back(seconds_between(due, sent));
    (r.kind == Kind::kScrape ? session.scrape_s : session.cmd_s).push_back(latency);
    if (!well_formed(r, reply)) {
      ++session.malformed;
      std::fprintf(stderr, "daemon_ops: bad reply to '%s': '%.80s'\n", r.line.c_str(),
                   reply.c_str());
    } else if (latency > kLatencyLimitS) {
      ++session.late;
    }
    if (is_write && well_formed(r, reply)) {
      ++commands_accepted;
      if (r.kind == Kind::kSetPolicy) {
        pending.push_back(Pending{sent, commands_accepted});
      }
    }
  }
  // Every accepted command must land before `shutdown`, or applied and
  // enqueued would differ for a reason the daemon is not at fault for.
  const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds{2};
  while ((!pending.empty() || d.stats().commands_applied < commands_accepted) &&
         Clock::now() < drain_deadline) {
    poll_applied();
    std::this_thread::sleep_for(std::chrono::microseconds{20});
  }
  session.unapplied_retunes = pending.size();

  ++session.attempted;
  if (writes < 0 || round_trip(writes, "shutdown", "\n") != "OK shutting-down\n") {
    ++session.malformed;
    d.post_shutdown();
  }
  for (int fd : {reads, writes}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  engine_thread.join();

  session.setup_s = seconds_between(t_entry, t_built);
  session.run_s = seconds_between(t_built, t_done);
  session.stats = d.stats();
  auto counter = [&](const char* name) -> std::uint64_t {
    auto it = result.metrics.counters.find(name);
    return it == result.metrics.counters.end() ? 0 : it->second;
  };
  session.steps = counter("engine.steps");
  session.sensor_samples = counter("engine.sensor_samples");
  session.task_ticks = counter("engine.task_ticks");
  session.record_samples = counter("engine.record_samples");
  session.node_steps = static_cast<double>(session.steps * shape.nodes);
  session.rounds_owed =
      periods_in(session.steps, cfg.engine.physics_dt, Seconds{dc.control_period_s});
  session.spill_lost = result.spill ? result.spill->events_lost : 1;
  session.spill_events = spill_sink.events();
  session.spill_bytes = spill_sink.bytes();
  session.expositions = live_sink.count();
  session.exposition_bytes = live_sink.bytes();
  session.plane_rounds = result.plane_stats.rounds;
  session.plane_budgets_sent = result.plane_stats.budgets_sent;
  return session;
}

void check_session(Outcome& out, const Session& s) {
  out.attempted += s.attempted;
  out.failed += s.malformed + s.late;
  out.check(s.malformed == 0, "daemon_ops: malformed, dropped or refused reply");
  out.check(s.stats.commands_applied == s.stats.commands_enqueued,
            "daemon_ops: applied commands != enqueued commands");
  out.check(s.stats.control_rounds == s.rounds_owed,
            "daemon_ops: " + std::to_string(s.stats.control_rounds) + " control rounds in " +
                std::to_string(s.steps) + " steps, expected " + std::to_string(s.rounds_owed));
  out.check(s.stats.failsafe_entries == 0, "daemon_ops: the deadman watchdog fired");
  out.check(s.spill_lost == 0, "daemon_ops: trace spill lost events");
  out.check(s.unapplied_retunes == 0, "daemon_ops: a set-policy was never applied");
  std::printf("  session: setup %.3f s, %zu requests (%llu late), %llu rounds, %.0f node-steps/s\n",
              s.setup_s, s.scrape_s.size() + s.cmd_s.size(),
              static_cast<unsigned long long>(s.late),
              static_cast<unsigned long long>(s.stats.control_rounds), s.node_steps / s.run_s);
}

}  // namespace

Outcome run_daemon(const RunOptions& opt) {
  Outcome out;
  const DaemonShape shape = shape_for(opt.scale);
  std::printf("daemon_ops: %zu nodes, %.0f requests/s open loop, 1 client thread, 2 connections\n",
              shape.nodes, shape.rate_per_s);

  // A short warm-up session first: the process's first daemon runs slower
  // (fresh heap, cold caches), and its numbers would skew a median of three.
  check_session(out, run_session(shape, opt.work_dir, mix64(opt.seed),
                                 std::min(1.0, opt.seconds / 4), false, nullptr));

  // The traced run has an untraced session as the overhead reference, then
  // the traced one.
  const int sessions = opt.trace ? 2 : shape.sessions;
  const double duration = opt.seconds / sessions;
  std::vector<Session> runs;
  for (int i = 0; i < sessions; ++i) {
    Tracer* tracer = opt.trace && i == 1 ? opt.tracer : nullptr;
    if (tracer != nullptr) {
      tracer->set_run(1);
    }
    const std::uint64_t seed = mix64(opt.seed + 1 + static_cast<std::uint64_t>(i));
    runs.push_back(run_session(shape, opt.work_dir, seed, duration, opt.inject_refused && i == 0,
                               tracer));
    check_session(out, runs.back());
  }

  if (!opt.trace) {
    std::vector<double> rates;
    std::vector<double> setups;
    for (const Session& s : runs) {
      rates.push_back(s.node_steps / s.run_s);
      setups.push_back(s.setup_s);
    }
    out.metric("node_steps_per_s", median(rates), "node-steps/s", rates.size());
    out.metric("setup_s", median(setups), "s", setups.size());
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return out;
  }

  const Session& plain = runs[0];
  const Session& s = runs[1];
  const std::vector<Tracer::Span> spans = opt.tracer->spans();
  out.metric("daemon.scrape_p50_ms", quantile(s.scrape_s, 0.5) * 1e3, "ms", s.scrape_s.size());
  out.metric("daemon.scrape_p99_ms", quantile(s.scrape_s, 0.99) * 1e3, "ms", s.scrape_s.size());
  out.metric("daemon.cmd_p50_ms", quantile(s.cmd_s, 0.5) * 1e3, "ms", s.cmd_s.size());
  out.metric("daemon.cmd_p99_ms", quantile(s.cmd_s, 0.99) * 1e3, "ms", s.cmd_s.size());
  out.metric("daemon.retune_apply_ms", median(s.retune_s) * 1e3, "ms", s.retune_s.size());
  out.metric("daemon.gen_lag_p99_ms", quantile(s.lag_s, 0.99) * 1e3, "ms", s.lag_s.size());
  out.metric("daemon.requests_served", static_cast<double>(s.stats.requests_served), "count");
  out.metric("daemon.control_rounds", static_cast<double>(s.stats.control_rounds), "count");
  out.metric("daemon.commands_enqueued", static_cast<double>(s.stats.commands_enqueued), "count");
  out.metric("daemon.commands_applied", static_cast<double>(s.stats.commands_applied), "count");
  out.metric("daemon.failsafe_entries", static_cast<double>(s.stats.failsafe_entries), "count");
  out.metric("obs.spill_append_s", span_seconds(spans, "obs.spill_append"), "s");
  out.metric("obs.spill_events", static_cast<double>(s.spill_events), "count");
  out.metric("obs.spill_bytes", static_cast<double>(s.spill_bytes), "B");
  out.metric("obs.expositions", static_cast<double>(s.expositions), "count");
  out.metric("obs.exposition_bytes", static_cast<double>(s.exposition_bytes), "B");
  out.metric("cluster.plane_rounds", static_cast<double>(s.plane_rounds), "count");
  out.metric("cluster.plane_budgets_sent", static_cast<double>(s.plane_budgets_sent), "count");
  out.metric("core.build_s", s.setup_s, "s");
  out.metric("cluster.run_s", s.run_s, "s");
  out.metric("cluster.step_p50_us", quantile(s.step_s, 0.5) * 1e6, "us", s.step_s.size());
  out.metric("cluster.step_p99_us", quantile(s.step_s, 0.99) * 1e6, "us", s.step_s.size());
  out.metric("cluster.steps", static_cast<double>(s.steps), "count");
  out.metric("hw.sensor_samples", static_cast<double>(s.sensor_samples), "count");
  out.metric("cluster.task_ticks", static_cast<double>(s.task_ticks), "count");
  out.metric("cluster.record_samples", static_cast<double>(s.record_samples), "count");
  out.metric("trace_overhead_frac",
             (plain.node_steps / plain.run_s) / (s.node_steps / s.run_s) - 1.0, "ratio");
  return out;
}

}  // namespace thermbench
