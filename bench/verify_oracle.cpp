// verify_oracle — the differential determinism oracle as a CI gate.
//
// Generates a seeded corpus of small experiment configs and runs each one
// under the seven pairings the runtime promises are inert (serial vs
// parallel sweep, telemetry on vs off, fault-aware gating on a zero-fault
// run, sharded vs serial engine, passive vs detached control plane, live
// telemetry on vs off, a command-free daemon vs the plain engine), diffing
// every behavioural output bit-exactly. Exits
// non-zero on the first report with failures so CI fails loudly; the
// printed report carries the corpus seed and config index needed to replay
// a failing pair locally.
//
// Usage: verify_oracle [--corpus N] [--seed S] [--threads T]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.hpp"
#include "verify/differential.hpp"

int main(int argc, char** argv) {
  using namespace thermctl;
  namespace tb = thermctl::bench;

  std::size_t corpus_size = 20;
  std::uint64_t seed = 20100913;  // ICPP 2010 opening day
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_size = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    }
  }

  tb::banner("verify oracle", "differential determinism oracle over a seeded corpus");
  std::printf("  corpus: %zu configs, seed %llu\n", corpus_size,
              static_cast<unsigned long long>(seed));

  const std::vector<core::ExperimentConfig> corpus =
      verify::make_oracle_corpus(seed, corpus_size);
  verify::OracleOptions options;
  options.threads = threads;
  const verify::OracleReport report = verify::run_oracle(corpus, options);

  std::printf("%s\n", report.to_string().c_str());
  if (!report.ok()) {
    std::printf("REPLAY: verify_oracle --corpus %zu --seed %llu\n", corpus_size,
                static_cast<unsigned long long>(seed));
    return 1;
  }
  std::printf("  all %zu pairs (%zu pairings x %zu configs) bit-identical\n",
              report.pairs_checked,
              report.configs > 0 ? report.pairs_checked / report.configs : 0, report.configs);
  return 0;
}
