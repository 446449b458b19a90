// Daemon lifecycle tests: socket protocol, hot policy reload under
// concurrent clients, watchdog stall → failsafe → recovery, and clean
// shutdown mid-spill.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.hpp"
#include "obs/trace_io.hpp"

namespace thermctl::daemon {
namespace {

using namespace std::chrono_literals;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/thermctld_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A long-lived rig the tests end via `shutdown`: small fleet, idle load,
/// horizon far beyond what any test lets elapse.
core::ExperimentConfig service_config() {
  core::ExperimentConfig cfg = core::paper_platform();
  cfg.name = "daemon-test";
  cfg.nodes = 4;
  cfg.workload = core::WorkloadKind::kIdle;
  cfg.engine.horizon = Seconds{100000.0};
  cfg.telemetry.metrics = true;
  cfg.telemetry.rollup.enabled = true;
  cfg.telemetry.rollup.interval_s = 1.0;
  return cfg;
}

int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // The server binds before run() starts, so a short retry loop is enough.
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(10ms);
  }
  ADD_FAILURE() << "could not connect to " << path;
  ::close(fd);
  return -1;
}

/// Sends one request line and reads until `terminator` (single-line replies
/// end in '\n'; metrics bodies end in "# EOF\n").
std::string request(int fd, const std::string& line, const std::string& terminator = "\n") {
  const std::string out = line + "\n";
  EXPECT_EQ(::write(fd, out.data(), out.size()), static_cast<ssize_t>(out.size()));
  std::string response;
  char chunk[4096];
  while (response.size() < terminator.size() ||
         response.compare(response.size() - terminator.size(), terminator.size(),
                          terminator) != 0) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      ADD_FAILURE() << "connection dropped mid-response to: " << line;
      break;
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(DaemonProtocol, HandlesRequestsAndRejectsBadInput) {
  DaemonConfig dc;
  dc.experiment = service_config();
  Daemon d{dc};  // never run: handle_request works pre-run too
  EXPECT_EQ(d.handle_request("ping"), "OK pong");
  EXPECT_EQ(d.handle_request("set-policy 25"), "OK pp=25");
  EXPECT_EQ(d.handle_request("set-policy 0").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("set-policy 101").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("set-policy x").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("set-budget 450"), "OK budget_w=" + std::to_string(450.0));
  EXPECT_EQ(d.handle_request("set-budget -3").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("frobnicate").rfind("ERR unknown-command", 0), 0u);
  EXPECT_EQ(d.handle_request("metrics"), "# EOF\n");  // no exposition yet
  EXPECT_EQ(d.handle_request("status").rfind("OK ", 0), 0u);
  EXPECT_EQ(d.stats().commands_enqueued, 2u);  // the two accepted mutations
}

TEST(DaemonLifecycle, ConcurrentClientsDuringHotReload) {
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};

  // Several clients hammer reads while the policy is re-tuned hot.
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_client(dc.socket_path);
      ASSERT_GE(fd, 0);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (i % 3 == 2) {
          const std::string body = request(fd, "metrics", "# EOF\n");
          if (body.size() >= 6 && body.substr(body.size() - 6) == "# EOF\n") {
            ok_responses.fetch_add(1);
          }
        } else {
          const std::string line = request(fd, i % 3 == 0 ? "status" : "ping");
          if (line.rfind("OK", 0) == 0) {
            ok_responses.fetch_add(1);
          }
        }
      }
      if (c == 0) {
        EXPECT_EQ(request(fd, "set-policy 25"), "OK pp=25\n");
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // The re-tune lands within one control round: poll status until pp=25.
  const int fd = connect_client(dc.socket_path);
  ASSERT_GE(fd, 0);
  bool applied = false;
  for (int attempt = 0; attempt < 300 && !applied; ++attempt) {
    applied = request(fd, "status").find(" pp=25 ") != std::string::npos;
    if (!applied) {
      std::this_thread::sleep_for(10ms);
    }
  }
  EXPECT_TRUE(applied) << "set-policy 25 not visible in status";
  EXPECT_EQ(request(fd, "shutdown"), "OK shutting-down\n");
  ::close(fd);
  runner.join();

  EXPECT_EQ(ok_responses.load(), kClients * kRequestsPerClient);
  const DaemonStats stats = d.stats();
  EXPECT_EQ(stats.commands_applied, stats.commands_enqueued);
  EXPECT_EQ(stats.failsafe_entries, 0u);
  EXPECT_GE(stats.clients_accepted, static_cast<std::uint64_t>(kClients));
  // Zero dropped rounds: one control round per period of elapsed sim time.
  const auto expected_rounds = static_cast<std::uint64_t>(result.run.exec_time_s /
                                                          dc.control_period_s);
  EXPECT_GE(stats.control_rounds + 1, expected_rounds);
}

TEST(DaemonLifecycle, WatchdogStallFailsafeAndRecovery) {
  DaemonConfig dc;
  dc.experiment = service_config();
  dc.watchdog_timeout_s = 0.2;
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::this_thread::sleep_for(100ms);

  // Wedge one control round for 3x the deadman timeout: the watchdog must
  // fail safe mid-stall, and the next live round must recover.
  d.post_stall(600.0);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (d.stats().failsafe_recoveries == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  d.post_shutdown();
  runner.join();

  const DaemonStats stats = d.stats();
  EXPECT_GE(stats.failsafe_entries, 1u);
  EXPECT_GE(stats.failsafe_recoveries, 1u);
  EXPECT_FALSE(d.in_failsafe());
  EXPECT_EQ(stats.commands_applied, stats.commands_enqueued);
}

TEST(DaemonLifecycle, PauseFreezesSimTimeAndResumeContinues) {
  DaemonConfig dc;
  dc.experiment = service_config();
  dc.watchdog_timeout_s = 0.2;  // must NOT fire while paused
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::this_thread::sleep_for(50ms);

  d.post_pause();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!d.paused() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(d.paused());
  // Paused across 3x the deadman timeout: an operator freeze is not a stall.
  std::this_thread::sleep_for(600ms);
  EXPECT_FALSE(d.in_failsafe());
  EXPECT_EQ(d.stats().failsafe_entries, 0u);

  d.post_resume();
  d.post_shutdown();
  runner.join();
  EXPECT_EQ(d.stats().failsafe_entries, 0u);
}

TEST(DaemonLifecycle, ClientClosingMidResponseIsDroppedNotFatal) {
  // A Daemon embedded in its client's process (no SIGPIPE handler, unlike
  // thermctld) must survive a peer that closes with replies still owed:
  // writing to the dead socket has to fail with EPIPE, not raise SIGPIPE.
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};

  std::string burst;
  for (int i = 0; i < 2000; ++i) {
    burst += "status\n";
  }
  // Several such clients in a row, so the daemon is all but certain to be
  // mid-reply when one of them goes away.
  for (int hog_round = 0; hog_round < 4; ++hog_round) {
    const int hog = connect_client(dc.socket_path);
    ASSERT_GE(hog, 0);
    ASSERT_EQ(::write(hog, burst.data(), burst.size()), static_cast<ssize_t>(burst.size()));
    ::close(hog);  // without reading a single reply
  }

  const int fd = connect_client(dc.socket_path);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(request(fd, "ping"), "OK pong\n");
  EXPECT_EQ(request(fd, "shutdown"), "OK shutting-down\n");
  ::close(fd);
  runner.join();
  EXPECT_GE(d.stats().clients_accepted, 5u);
}

TEST(DaemonLifecycle, OverlongLineIsRejectedAndDropped) {
  // A client that never sends '\n' must not grow its line buffer without
  // bound: past the request-length limit it gets one ERR and is dropped,
  // and the server keeps answering everyone else.
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};

  const int hog = connect_client(dc.socket_path);
  ASSERT_GE(hog, 0);
  const timeval timeout{2, 0};
  ASSERT_EQ(::setsockopt(hog, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  const std::string flood(64 * 1024, 'x');
  // The server may hang up before taking all of it; EPIPE then is fine.
  for (std::size_t sent = 0; sent < flood.size();) {
    const ssize_t n = ::send(hog, flood.data() + sent, flood.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  bool eof = false;
  char chunk[256];
  for (;;) {
    const ssize_t n = ::read(hog, chunk, sizeof chunk);
    if (n > 0) {
      reply.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    // Closing a UNIX socket with unread input reports ECONNRESET once to the
    // peer; the read after it sees the EOF.
    if (n < 0 && errno == ECONNRESET) {
      continue;
    }
    eof = n == 0;  // n < 0 with EAGAIN: the 2 s receive timeout expired
    break;
  }
  ::close(hog);
  EXPECT_EQ(reply, "ERR line-too-long\n");
  EXPECT_TRUE(eof) << "the oversized client was not dropped";

  const int fd = connect_client(dc.socket_path);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(request(fd, "ping"), "OK pong\n");
  EXPECT_EQ(request(fd, "shutdown"), "OK shutting-down\n");
  ::close(fd);
  runner.join();
}

TEST(DaemonLifecycle, ClientOverCapIsRefusedWithErr) {
  // The server holds at most 256 clients. The next connection gets one ERR
  // and is closed; a slot freed by a disconnect can be used again.
  constexpr int kCap = 256;
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::vector<int> held;
  // Ends the daemon and releases every client on any exit from the test, so
  // a failed assertion fails the test instead of aborting the binary.
  struct Teardown {
    Daemon& d;
    std::thread& runner;
    std::vector<int>& held;
    ~Teardown() {
      d.post_resume();
      d.post_shutdown();
      runner.join();
      for (const int fd : held) {
        ::close(fd);
      }
    }
  } teardown{d, runner, held};
  // Paused, the simulation cannot reach its horizon (and end the server)
  // while the test takes its time.
  d.post_pause();

  for (int i = 0; i < kCap; ++i) {
    const int fd = connect_client(dc.socket_path);
    ASSERT_GE(fd, 0);
    held.push_back(fd);
    ASSERT_EQ(request(fd, "ping"), "OK pong\n") << "client " << i;  // admitted
  }

  // Reads one reply line, or up to EOF or a 2 s silence; `eof` tells those
  // apart, so a server that never answers fails here instead of hanging.
  auto read_line = [](int fd, bool& eof) {
    const timeval timeout{2, 0};
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
    std::string line;
    char c = 0;
    for (;;) {
      const ssize_t n = ::read(fd, &c, 1);
      if (n <= 0) {
        eof = n == 0;
        return line;
      }
      line.push_back(c);
      if (c == '\n') {
        return line;
      }
    }
  };

  const int extra = connect_client(dc.socket_path);
  ASSERT_GE(extra, 0);
  bool eof = false;
  EXPECT_EQ(read_line(extra, eof), "ERR too-many-clients\n");
  EXPECT_EQ(read_line(extra, eof), "");
  EXPECT_TRUE(eof) << "the client over the cap was not closed";
  ::close(extra);

  // Free one slot. The server sees the hangup on its next poll, so a new
  // client may race it; retry until the slot is reused.
  ::close(held.back());
  held.pop_back();
  bool reused = false;
  for (int attempt = 0; attempt < 100 && !reused; ++attempt) {
    const int fd = connect_client(dc.socket_path);
    ASSERT_GE(fd, 0);
    held.push_back(fd);
    const std::string out = "ping\n";
    ASSERT_EQ(::write(fd, out.data(), out.size()), static_cast<ssize_t>(out.size()));
    const std::string reply = read_line(fd, eof);
    reused = reply == "OK pong\n";
    if (!reused) {
      EXPECT_EQ(reply, "ERR too-many-clients\n");
      ::close(fd);
      held.pop_back();
      std::this_thread::sleep_for(10ms);
    }
  }
  EXPECT_TRUE(reused) << "a freed slot was never reused";
}

TEST(DaemonLifecycle, ShutdownMidDrainLeavesReadableSpill) {
  const std::string spill_path = "/tmp/thermctld_spill_" + std::to_string(::getpid()) +
                                 ".thermtrace";
  DaemonConfig dc;
  dc.experiment = service_config();
  dc.experiment.dvfs = core::DvfsPolicyKind::kTdvfs;  // trace traffic
  dc.experiment.telemetry.trace = true;
  dc.experiment.telemetry.spill = true;
  dc.experiment.telemetry.spill_path = spill_path;
  dc.experiment.telemetry.spill_cfg.period_s = 0.5;
  dc.experiment.telemetry.spill_cfg.max_events_per_drain = 4;  // force deferrals
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::this_thread::sleep_for(300ms);
  d.post_shutdown();
  runner.join();

  // Stopped well short of the horizon, with the spill finalized exactly as
  // on a natural exit.
  EXPECT_LT(result.run.exec_time_s, dc.experiment.engine.horizon.value());
  ASSERT_TRUE(result.spill.has_value());
  const obs::TraceFile file = obs::read_trace_file(spill_path);
  EXPECT_EQ(file.node_count, 4u);
  EXPECT_GT(file.events.size(), 0u);
  for (std::size_t i = 1; i < file.events.size(); ++i) {
    const obs::TraceEvent& prev = file.events[i - 1];
    const obs::TraceEvent& cur = file.events[i];
    EXPECT_TRUE(prev.t_s < cur.t_s || (prev.t_s == cur.t_s && prev.node <= cur.node))
        << "spill unsorted at " << i;
  }
  std::remove(spill_path.c_str());
}

}  // namespace
}  // namespace thermctl::daemon
