// thermbench: the thermctl benchmark entry point.
//
//   thermbench --workload fleet_100k|paper_sweep|daemon_ops --seed N
//              --seconds S --trace 0|1 [--scale full|tiny]
//              [--digests FILE] [--work-dir DIR] [--inject-refused-reply]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced variant, prints the per-layer metrics, a per-layer self-time
// table, and writes the spans as Chrome trace JSON into --work-dir. The last
// line of standard output is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit status is 0 only when every output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using namespace thermbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: every run prints each of its metrics.
constexpr MetricDef kEndToEnd[] = {
    {"node_steps_per_s", "node-steps/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// A workload reports 0 for a layer metric its run does not exercise (the
// fleet has no daemon, the daemon no sweep runner, ...).
constexpr MetricDef kPerLayer[] = {
    {"cluster.build_s", "s"},
    {"core.bank_build_s", "s"},
    {"cluster.engine_build_s", "s"},
    {"core.build_s", "s"},
    {"cluster.run_s", "s"},
    {"core.tick_s", "s"},
    {"core.tick_calls", "count"},
    {"core.tick_p99_us", "us"},
    {"workload.load_fill_s", "s"},
    {"cluster.self_s", "s"},
    {"cluster.step_p50_us", "us"},
    {"cluster.step_p99_us", "us"},
    {"cluster.speedup_vs_serial", "ratio"},
    {"cluster.steps", "count"},
    {"hw.sensor_samples", "count"},
    {"cluster.task_ticks", "count"},
    {"cluster.record_samples", "count"},
    {"cluster.fleet_bytes_per_node", "B"},
    {"cluster.rss_bytes_per_node", "B"},
    {"core.experiment_p50_ms", "ms"},
    {"core.experiment_p99_ms", "ms"},
    {"core.build_frac", "ratio"},
    {"cluster.run_teardown_s", "s"},
    {"runtime.busy_frac", "ratio"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"core.fan_retargets", "count"},
    {"core.tdvfs_triggers", "count"},
    {"obs.spill_append_s", "s"},
    {"obs.spill_events", "count"},
    {"obs.spill_bytes", "B"},
    {"obs.expositions", "count"},
    {"obs.exposition_bytes", "B"},
    {"daemon.requests_served", "count"},
    {"daemon.control_rounds", "count"},
    {"daemon.commands_enqueued", "count"},
    {"daemon.commands_applied", "count"},
    {"daemon.failsafe_entries", "count"},
    {"cluster.plane_rounds", "count"},
    {"cluster.plane_budgets_sent", "count"},
    {"daemon.scrape_p50_ms", "ms"},
    {"daemon.scrape_p99_ms", "ms"},
    {"daemon.cmd_p50_ms", "ms"},
    {"daemon.cmd_p99_ms", "ms"},
    {"daemon.retune_apply_ms", "ms"},
    {"daemon.gen_lag_p99_ms", "ms"},
    {"trace_overhead_frac", "ratio"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_100k|paper_sweep|daemon_ops --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--digests FILE] [--work-dir DIR] "
               "[--inject-refused-reply]\n",
               argv0);
  return 2;
}

/// The digest recorded for (workload, scale, seed) in `path`, or "" when
/// none is. Lines: "<workload> <scale> <seed> <hex digest>"; '#' comments.
std::string recorded_digest(const std::string& path, const std::string& workload,
                            const std::string& scale, std::uint64_t seed) {
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields{line};
    std::string w;
    std::string s;
    std::uint64_t n = 0;
    std::string hex;
    if (fields >> w >> s >> n >> hex && w == workload && s == scale && n == seed) {
      return hex;
    }
  }
  return {};
}

void print_json_result(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scale_name = "full";
  std::string digests_path;
  RunOptions opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--inject-refused-reply") {
      opt.inject_refused = true;
    } else if (!has_value) {
      return usage(argv[0]);
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (arg == "--scale") {
      scale_name = argv[++i];
    } else if (arg == "--digests") {
      digests_path = argv[++i];
    } else if (arg == "--work-dir") {
      opt.work_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      (scale_name != "full" && scale_name != "tiny")) {
    return usage(argv[0]);
  }
  opt.scale = scale_name == "full" ? Scale::kFull : Scale::kTiny;
  opt.hw_threads = std::max(1u, std::thread::hardware_concurrency());
  Tracer tracer;
  if (opt.trace) {
    opt.tracer = &tracer;
  }

  // A workload with a digest draws its inputs from a fixed set of seeds, all
  // recorded in the digests file: the input seed is --seed modulo the set's
  // size, so every run is checked against a recorded digest.
  std::uint64_t input_seeds = 0;  // 0: no digest, the seed is used as given
  if (workload == "fleet_100k") {
    input_seeds = 11;
  } else if (workload == "paper_sweep") {
    input_seeds = 31;
  } else if (workload != "daemon_ops") {
    return usage(argv[0]);
  }
  if (input_seeds != 0) {
    std::printf("input seed %llu (--seed %llu modulo %llu)\n",
                static_cast<unsigned long long>(opt.seed % input_seeds),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(input_seeds));
    opt.seed %= input_seeds;
  }

  Outcome out;
  if (workload == "fleet_100k") {
    out = run_fleet(opt);
  } else if (workload == "paper_sweep") {
    out = run_sweep(opt);
  } else {
    out = run_daemon(opt);
  }

  if (input_seeds != 0) {
    const std::string recorded = recorded_digest(digests_path, workload, scale_name, opt.seed);
    std::printf("digest %s, recorded %s\n", out.digest.c_str(),
                recorded.empty() ? "none" : recorded.c_str());
    out.check(!recorded.empty() && out.digest == recorded,
              recorded.empty() ? workload + " " + scale_name + " seed " +
                                     std::to_string(opt.seed) + ": no digest recorded"
                               : workload + ": digest differs from the recorded one");
  }

  // Every metric of the selected list, in list order; a workload must supply
  // each end-to-end metric itself.
  std::vector<Metric> printed;
  auto find = [&](const char* name) -> const Metric* {
    for (const Metric& m : out.metrics) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  };
  if (!opt.trace) {
    for (const MetricDef& def : kEndToEnd) {
      const Metric* m = find(def.name);
      out.check(m != nullptr, std::string("missing end-to-end metric ") + def.name);
      printed.push_back(m != nullptr ? *m : Metric{def.name, 0.0, def.unit, 0});
    }
  } else {
    for (const MetricDef& def : kPerLayer) {
      const Metric* m = find(def.name);
      printed.push_back(m != nullptr ? *m : Metric{def.name, 0.0, def.unit, 0});
    }
  }

  std::printf("%s metrics (%s):\n", opt.trace ? "per-layer" : "end-to-end", workload.c_str());
  for (const Metric& m : printed) {
    if (m.samples > 0) {
      std::printf("  %-30s %16.6g %-13s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    } else {
      std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  if (opt.trace) {
    std::printf("layer self time (span minus child spans):\n");
    for (const LayerTime& lt : layer_times(tracer.spans())) {
      std::printf("  %-10s self %10.6f s  total %10.6f s  spans %zu\n", lt.layer.c_str(),
                  lt.self_s, lt.total_s, lt.spans);
    }
    const std::string path = opt.work_dir + "/trace_" + workload + ".json";
    if (tracer.write_chrome_json(path)) {
      std::printf("spans written to %s (Chrome trace_event JSON)\n", path.c_str());
    } else {
      out.check(false, "could not write the span file " + path);
    }
  }

  for (const std::string& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s: %s, %llu attempted, %llu failed\n", workload.c_str(),
              out.correct ? "all output checks passed" : "OUTPUT CHECKS FAILED",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_json_result(out, printed);
  return out.correct ? 0 : 1;
}
