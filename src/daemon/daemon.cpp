#include "daemon/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/assert.hpp"

namespace thermctl::daemon {

namespace {

/// Longest pending partial request line a client may hold. Every valid
/// request is a verb plus at most one number, so a line this long is garbage
/// or a client that never sends '\n'; either way it is answered and dropped
/// instead of growing the buffer (and the '\n' rescans) without bound.
constexpr std::size_t kMaxRequestBytes = 4096;

/// Most clients the server holds at once. Each costs a socket and a line
/// buffer, so the count is bounded; a connection over it is answered
/// `ERR too-many-clients` and closed, and a disconnect frees its slot.
constexpr std::size_t kMaxClients = 256;

[[nodiscard]] std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Full-buffer send on a blocking socket; false on a dead peer. MSG_NOSIGNAL
/// turns a peer that closed mid-response into EPIPE instead of SIGPIPE, which
/// would kill any process embedding the daemon without ignoring the signal.
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void Daemon::LatestSink::on_exposition(double t_s, const std::string& text) {
  {
    std::lock_guard<std::mutex> lock{mu_};
    last_ = text;
  }
  if (chain_ != nullptr) {
    chain_->on_exposition(t_s, text);
  }
}

std::string Daemon::LatestSink::last() const {
  std::lock_guard<std::mutex> lock{mu_};
  return last_;
}

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), sink_(config_.experiment.telemetry.live_sink) {
  THERMCTL_ASSERT(config_.watchdog_timeout_s > 0.0, "watchdog timeout must be positive");
  THERMCTL_ASSERT(config_.control_period_s > 0.0, "control period must be positive");
  current_pp_.store(config_.experiment.pp.value, std::memory_order_relaxed);
  current_budget_w_.store(config_.experiment.control_plane.plane.room_budget_w,
                          std::memory_order_relaxed);
}

Daemon::~Daemon() {
  // run() tears its threads down before returning; reaching here with live
  // threads means run() threw — make the teardown unconditional anyway.
  running_.store(false, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    (void)::write(wake_pipe_[1], &b, 1);
  }
  pause_cv_.notify_all();
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
  if (server_thread_.joinable()) {
    server_thread_.join();
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

core::ExperimentResult Daemon::run() {
  core::ExperimentConfig cfg = config_.experiment;
  if (cfg.telemetry.rollup.enabled) {
    cfg.telemetry.live_sink = &sink_;  // chains to any user sink
  }
  auto user_observer = cfg.on_rig_built;
  cfg.on_rig_built = [this, user_observer](const core::RigView& rig) {
    on_rig_built(rig);
    if (user_observer) {
      user_observer(rig);
    }
  };

  running_.store(true, std::memory_order_release);
  shutdown_requested_.store(false, std::memory_order_release);

  if (!config_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    THERMCTL_ASSERT(config_.socket_path.size() < sizeof(addr.sun_path),
                    "socket path too long for sun_path");
    std::memcpy(addr.sun_path, config_.socket_path.c_str(), config_.socket_path.size() + 1);
    ::unlink(config_.socket_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    THERMCTL_ASSERT(listen_fd_ >= 0, "socket() failed");
    THERMCTL_ASSERT(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0,
                    "bind() failed on control socket path");
    THERMCTL_ASSERT(::listen(listen_fd_, config_.listen_backlog) == 0, "listen() failed");
    THERMCTL_ASSERT(::pipe(wake_pipe_) == 0, "pipe() failed");
    server_thread_ = std::thread{[this] { server_main(); }};
  }
  watchdog_thread_ = std::thread{[this] { watchdog_main(); }};

  core::ExperimentResult result = core::run_experiment(cfg);

  {
    std::lock_guard<std::mutex> lock{rig_mutex_};
    rig_active_.store(false, std::memory_order_release);
    rig_ = core::RigView{};
  }
  watchdog_armed_.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
  pause_cv_.notify_all();
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    (void)::write(wake_pipe_[1], &b, 1);
  }
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
  if (server_thread_.joinable()) {
    server_thread_.join();
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  return result;
}

void Daemon::on_rig_built(const core::RigView& rig) {
  {
    std::lock_guard<std::mutex> lock{rig_mutex_};
    rig_ = rig;
    rig_active_.store(true, std::memory_order_release);
  }
  pet();
  watchdog_armed_.store(true, std::memory_order_release);
  rig.engine->add_periodic(Seconds{config_.control_period_s},
                           [this](SimTime now) { control_round(now); });
}

void Daemon::pet() { last_pet_ns_.store(steady_now_ns(), std::memory_order_release); }

void Daemon::control_round(SimTime now) {
  control_rounds_.fetch_add(1, std::memory_order_relaxed);
  pet();

  if (failsafe_active_.load(std::memory_order_acquire) && !failsafe_applied_) {
    // The deadman fired while this thread was stepping: force the fail-safe
    // state now and hold it for one control period.
    apply_failsafe();
  } else if (failsafe_active_.load(std::memory_order_acquire)) {
    // The fail-safe state has held since the deadman fired; we're live
    // again, so re-assert policy over the forced max-fan / released-cap
    // state. Plane caps and budgets re-establish themselves on the
    // following rounds.
    std::lock_guard<std::mutex> lock{rig_mutex_};
    core::retune_policy(rig_, core::PolicyParam{current_pp_.load(std::memory_order_relaxed)});
    if (rig_.config != nullptr && rig_.config->fan == core::FanPolicyKind::kChipDefault) {
      for (std::size_t i = 0; i < rig_.cluster->size(); ++i) {
        (void)rig_.cluster->node(i).fan_driver().set_automatic_mode();
      }
    }
    failsafe_applied_ = false;
    failsafe_active_.store(false, std::memory_order_release);
    failsafe_recoveries_.fetch_add(1, std::memory_order_relaxed);
  }

  std::deque<Command> batch;
  {
    std::lock_guard<std::mutex> lock{cmd_mutex_};
    batch.swap(commands_);
  }
  for (const Command& cmd : batch) {
    apply(cmd, now);
    commands_applied_.fetch_add(1, std::memory_order_relaxed);
    if (failsafe_active_.load(std::memory_order_acquire) && !failsafe_applied_) {
      apply_failsafe();  // the deadman fired while this command wedged us
    }
  }

  if (paused_.load(std::memory_order_acquire)) {
    // Operator freeze: simulated time stops here and the deadman is
    // disarmed for the duration (a pause is not a stall).
    watchdog_armed_.store(false, std::memory_order_release);
    std::unique_lock<std::mutex> lock{pause_mutex_};
    pause_cv_.wait(lock, [this] {
      return !paused_.load(std::memory_order_acquire) ||
             shutdown_requested_.load(std::memory_order_acquire);
    });
    pet();
    watchdog_armed_.store(true, std::memory_order_release);
  }

  update_status(now);
}

void Daemon::apply(const Command& cmd, SimTime now) {
  switch (cmd.kind) {
    case Command::Kind::kSetPolicy:
      current_pp_.store(cmd.pp, std::memory_order_relaxed);
      core::retune_policy(rig_, core::PolicyParam{cmd.pp});
      last_retune_apply_t_s_.store(now.seconds(), std::memory_order_relaxed);
      break;
    case Command::Kind::kSetBudget:
      current_budget_w_.store(cmd.value, std::memory_order_relaxed);
      if (rig_.plane != nullptr) {
        rig_.plane->set_room_budget(cmd.value);
      }
      last_retune_apply_t_s_.store(now.seconds(), std::memory_order_relaxed);
      break;
    case Command::Kind::kPause:
      paused_.store(true, std::memory_order_release);
      break;
    case Command::Kind::kResume:
      paused_.store(false, std::memory_order_release);
      pause_cv_.notify_all();
      break;
    case Command::Kind::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      rig_.engine->request_stop();
      break;
    case Command::Kind::kStall:
      // Test hook: wedge the control path for `value` wall milliseconds.
      std::this_thread::sleep_for(
          std::chrono::microseconds{static_cast<std::int64_t>(cmd.value * 1000.0)});
      break;
  }
}

void Daemon::update_status(SimTime now) {
  StatusSnapshot s;
  s.t_s = now.seconds();
  if (rig_.rollup != nullptr && !rig_.rollup->fleet_series().empty()) {
    const obs::RollupSample& fleet = rig_.rollup->fleet_series().back();
    s.fleet_members = fleet.members;
    s.fleet_max_temp_c = fleet.max_temp_c;
    s.fleet_power_w = fleet.power_w;
  }
  if (rig_.watchdog != nullptr) {
    s.alerts_firing = rig_.watchdog->firing_count();
  }
  if (rig_.spiller != nullptr) {
    const obs::SpillStats& spill = rig_.spiller->stats();
    s.spill_drains = spill.drains;
    s.spill_events = spill.events_spilled;
    s.spill_lost = spill.events_lost;
  }
  std::lock_guard<std::mutex> lock{status_mutex_};
  status_ = s;
}

void Daemon::watchdog_main() {
  const std::int64_t timeout_ns = static_cast<std::int64_t>(config_.watchdog_timeout_s * 1e9);
  // Poll at a quarter of the timeout, clamped to [5 ms, 100 ms]: fine enough
  // to fire promptly on short test timeouts, and a bounded join latency when
  // run() tears the thread down under a long production timeout.
  const auto interval = std::chrono::nanoseconds{
      std::clamp<std::int64_t>(timeout_ns / 4, 5'000'000, 100'000'000)};
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    if (!running_.load(std::memory_order_acquire) ||
        !watchdog_armed_.load(std::memory_order_acquire) ||
        paused_.load(std::memory_order_acquire) ||
        failsafe_active_.load(std::memory_order_acquire)) {
      continue;
    }
    const std::int64_t age = steady_now_ns() - last_pet_ns_.load(std::memory_order_acquire);
    if (age > timeout_ns) {
      enter_failsafe();
    }
  }
}

void Daemon::enter_failsafe() {
  // Watchdog thread: only declares the failsafe. rig_mutex_ orders this
  // against teardown; the engine thread forces the state (apply_failsafe).
  std::lock_guard<std::mutex> lock{rig_mutex_};
  if (!rig_active_.load(std::memory_order_acquire) ||
      failsafe_active_.load(std::memory_order_acquire)) {
    return;
  }
  failsafe_active_.store(true, std::memory_order_release);
  failsafe_entries_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::apply_failsafe() {
  // Engine thread: the thread that owns the rig forces the fail-safe state.
  for (std::size_t i = 0; i < rig_.cluster->size(); ++i) {
    sysfs::HwmonDevice& hwmon = rig_.cluster->node(i).hwmon();
    (void)hwmon.set_manual_mode();
    (void)hwmon.write_pwm(DutyCycle{100.0});
  }
  if (rig_.plane != nullptr) {
    rig_.plane->failsafe_release_all();
  }
  failsafe_applied_ = true;
}

void Daemon::request_engine_stop() {
  std::lock_guard<std::mutex> lock{rig_mutex_};
  if (rig_active_.load(std::memory_order_acquire) && rig_.engine != nullptr) {
    rig_.engine->request_stop();
  }
}

void Daemon::enqueue(Command cmd) {
  if (cmd.kind == Command::Kind::kSetPolicy || cmd.kind == Command::Kind::kSetBudget) {
    double t_s = 0.0;
    {
      std::lock_guard<std::mutex> lock{status_mutex_};
      t_s = status_.t_s;
    }
    last_retune_enqueue_t_s_.store(t_s, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock{cmd_mutex_};
    commands_.push_back(cmd);
  }
  commands_enqueued_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::post_set_policy(int pp) {
  THERMCTL_ASSERT(pp >= core::PolicyParam::kMin && pp <= core::PolicyParam::kMax,
                  "Pp must be in [1, 100]");
  enqueue(Command{Command::Kind::kSetPolicy, pp, 0.0});
}

void Daemon::post_set_budget(double watts) {
  THERMCTL_ASSERT(watts > 0.0, "budget must be positive");
  enqueue(Command{Command::Kind::kSetBudget, 0, watts});
}

void Daemon::post_pause() { enqueue(Command{Command::Kind::kPause, 0, 0.0}); }

void Daemon::post_resume() {
  // Applied directly: while paused the engine thread is blocked inside the
  // control round, so a queued resume would never drain.
  commands_enqueued_.fetch_add(1, std::memory_order_relaxed);
  paused_.store(false, std::memory_order_release);
  pause_cv_.notify_all();
  commands_applied_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::post_shutdown() {
  // Applied directly so a paused or wedged run still stops cleanly.
  commands_enqueued_.fetch_add(1, std::memory_order_relaxed);
  shutdown_requested_.store(true, std::memory_order_release);
  request_engine_stop();
  paused_.store(false, std::memory_order_release);
  pause_cv_.notify_all();
  commands_applied_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::post_stall(double ms) { enqueue(Command{Command::Kind::kStall, 0, ms}); }

std::string Daemon::metrics_text() const {
  std::string text = sink_.last();
  if (text.empty()) {
    return "# EOF\n";
  }
  return text;
}

std::string Daemon::status_line() const {
  StatusSnapshot s;
  {
    std::lock_guard<std::mutex> lock{status_mutex_};
    s = status_;
  }
  std::ostringstream out;
  out << "OK t_s=" << s.t_s << " paused=" << (paused() ? 1 : 0)
      << " failsafe=" << (in_failsafe() ? 1 : 0)
      << " rounds=" << control_rounds_.load(std::memory_order_relaxed)
      << " enq=" << commands_enqueued_.load(std::memory_order_relaxed)
      << " applied=" << commands_applied_.load(std::memory_order_relaxed)
      << " pp=" << current_pp_.load(std::memory_order_relaxed)
      << " budget_w=" << current_budget_w_.load(std::memory_order_relaxed)
      << " fleet_members=" << s.fleet_members << " fleet_max_temp_c=" << s.fleet_max_temp_c
      << " fleet_power_w=" << s.fleet_power_w << " alerts_firing=" << s.alerts_firing
      << " spill_drains=" << s.spill_drains << " spill_events=" << s.spill_events
      << " spill_lost=" << s.spill_lost
      << " retune_enq_t_s=" << last_retune_enqueue_t_s_.load(std::memory_order_relaxed)
      << " retune_apply_t_s=" << last_retune_apply_t_s_.load(std::memory_order_relaxed)
      << " failsafe_entries=" << failsafe_entries_.load(std::memory_order_relaxed)
      << " failsafe_recoveries=" << failsafe_recoveries_.load(std::memory_order_relaxed)
      << " clients=" << clients_accepted_.load(std::memory_order_relaxed)
      << " requests=" << requests_served_.load(std::memory_order_relaxed);
  return out.str();
}

std::string Daemon::handle_request(const std::string& line) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  std::string req = line;
  while (!req.empty() && (req.back() == '\r' || req.back() == '\n' || req.back() == ' ')) {
    req.pop_back();
  }
  if (req == "metrics" || req == "GET /metrics" || req.rfind("GET /metrics ", 0) == 0) {
    return metrics_text();
  }
  if (req == "status") {
    return status_line();
  }
  if (req.rfind("set-policy ", 0) == 0) {
    char* end = nullptr;
    const long pp = std::strtol(req.c_str() + 11, &end, 10);
    if (end == req.c_str() + 11 || *end != '\0' || pp < core::PolicyParam::kMin ||
        pp > core::PolicyParam::kMax) {
      return "ERR pp must be an integer in [1, 100]";
    }
    post_set_policy(static_cast<int>(pp));
    return "OK pp=" + std::to_string(pp);
  }
  if (req.rfind("set-budget ", 0) == 0) {
    char* end = nullptr;
    const double w = std::strtod(req.c_str() + 11, &end);
    if (end == req.c_str() + 11 || *end != '\0' || !(w > 0.0)) {
      return "ERR budget must be a positive number of watts";
    }
    post_set_budget(w);
    return "OK budget_w=" + std::to_string(w);
  }
  if (req == "pause") {
    post_pause();
    return "OK paused";
  }
  if (req == "resume") {
    post_resume();
    return "OK resumed";
  }
  if (req == "shutdown") {
    post_shutdown();
    return "OK shutting-down";
  }
  if (req == "ping") {
    return "OK pong";
  }
  if (req == "pet") {
    pet();
    return "OK pet";
  }
  if (req.rfind("stall ", 0) == 0) {
    char* end = nullptr;
    const double ms = std::strtod(req.c_str() + 6, &end);
    if (end == req.c_str() + 6 || *end != '\0' || !(ms >= 0.0)) {
      return "ERR stall wants milliseconds";
    }
    post_stall(ms);
    return "OK stall-armed";
  }
  return "ERR unknown-command (try: metrics status set-policy set-budget pause resume "
         "shutdown ping)";
}

void Daemon::server_main() {
  std::vector<pollfd> fds;
  std::vector<std::string> bufs;  // parallel to fds from index 2 on
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  fds.push_back({listen_fd_, POLLIN, 0});

  auto drop_client = [&](std::size_t idx) {
    ::close(fds[idx].fd);
    fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(idx));
    bufs.erase(bufs.begin() + static_cast<std::ptrdiff_t>(idx - 2));
  };

  while (running_.load(std::memory_order_acquire)) {
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char scratch[64];
      (void)::read(wake_pipe_[0], scratch, sizeof scratch);
      if (!running_.load(std::memory_order_acquire)) {
        break;
      }
    }
    for (std::size_t i = 2; i < fds.size();) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        ++i;
        continue;
      }
      char chunk[4096];
      const ssize_t n = ::read(fds[i].fd, chunk, sizeof chunk);
      if (n <= 0) {
        drop_client(i);
        continue;
      }
      std::string& buf = bufs[i - 2];
      buf.append(chunk, static_cast<std::size_t>(n));
      bool dead = false;
      std::size_t nl = 0;
      while ((nl = buf.find('\n')) != std::string::npos) {
        std::string request = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        std::string response = handle_request(request);
        if (response.empty() || response.back() != '\n') {
          response.push_back('\n');
        }
        if (!write_all(fds[i].fd, response.data(), response.size())) {
          dead = true;
          break;
        }
      }
      if (!dead && buf.size() > kMaxRequestBytes) {
        const std::string reply = "ERR line-too-long\n";
        (void)write_all(fds[i].fd, reply.data(), reply.size());
        dead = true;
      }
      if (dead) {
        drop_client(i);
      } else {
        ++i;
      }
    }
    // Accept after serving clients, so a hangup seen in the same poll frees
    // its slot first.
    if ((fds[1].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0 && bufs.size() >= kMaxClients) {
        const std::string reply = "ERR too-many-clients\n";
        (void)write_all(client, reply.data(), reply.size());
        ::close(client);
      } else if (client >= 0) {
        clients_accepted_.fetch_add(1, std::memory_order_relaxed);
        fds.push_back({client, POLLIN, 0});
        bufs.emplace_back();
      }
    }
  }
  for (std::size_t i = 2; i < fds.size(); ++i) {
    ::close(fds[i].fd);
  }
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.control_rounds = control_rounds_.load(std::memory_order_relaxed);
  s.commands_enqueued = commands_enqueued_.load(std::memory_order_relaxed);
  s.commands_applied = commands_applied_.load(std::memory_order_relaxed);
  s.failsafe_entries = failsafe_entries_.load(std::memory_order_relaxed);
  s.failsafe_recoveries = failsafe_recoveries_.load(std::memory_order_relaxed);
  s.clients_accepted = clients_accepted_.load(std::memory_order_relaxed);
  s.requests_served = requests_served_.load(std::memory_order_relaxed);
  s.last_retune_enqueue_t_s = last_retune_enqueue_t_s_.load(std::memory_order_relaxed);
  s.last_retune_apply_t_s = last_retune_apply_t_s_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace thermctl::daemon
