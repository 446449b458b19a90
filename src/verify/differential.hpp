// Differential oracle — determinism as a testable property.
//
// The runtime promises that several configuration axes are *behaviourally
// inert*: a parallel sweep is bit-identical to a serial one, telemetry
// (tracing + metrics) never perturbs control decisions, fault-aware
// gating is a no-op on a zero-fault run, the sharded engine
// (EngineConfig::workers > 1) reproduces the serial engine bit-for-bit,
// a *passive* control plane (full message flow, zero actuation)
// leaves a run bit-identical to one with no plane attached at all, live
// telemetry (spill, rollups, watchdog, exposition) is pure observation, and
// a thermctld daemon given no commands is a pure observer of the run it
// hosts — seven pairings in all.
// Each promise is load-bearing — paper figures are produced by parallel
// sweeps, telemetry is meant to be always-safe to turn on, fault-aware mode
// must not change the paper's baseline behaviour, and fleet-scale runs lean
// on sharding — and each is exactly the kind of promise that rots silently
// (a stray shared RNG, an order-dependent reduction, a telemetry branch
// with a side effect, a shard boundary that leaks mid-step state).
//
// The oracle runs the same seeded config corpus under each paired
// configuration and diffs every recorded series, summary and event log
// bit-exactly (doubles compared by bit pattern, so a NaN == NaN and a
// -0.0 != +0.0). Any diff is a bug in the runtime, not noise.
//
// Pairings compare two configurations of today's code with each other; the
// golden digests (digest_result over the same fields, checked in per corpus
// config by tests/verify/test_golden_digests.cpp) compare today's code with
// its own past, so a refactor that claims bit-identical behaviour is held to
// it even where no second implementation remains to pair against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace thermctl::verify {

enum class OraclePairKind : std::uint8_t {
  kSerialVsParallel,    // run_sweep(threads=1) vs run_sweep(threads=N)
  kTelemetryOnVsOff,    // trace+metrics armed vs dark
  kFaultAwareZeroFault, // fault_aware gating on vs off, no faults scheduled
  kShardedVsSerial,     // engine workers > 1 vs the serial engine
  kPlanePassiveVsDetached,  // passive control plane attached vs no plane
  kLiveTelemetryOnVsOff,    // spiller + rollups + watchdog + exposition vs dark
  kDaemonPassiveVsEngine,   // thermctld with no socket/commands vs plain run
};

[[nodiscard]] const char* to_string(OraclePairKind kind);

/// Bit-exact comparison outcome for one result pair.
struct ResultDiff {
  std::uint64_t fields_compared = 0;
  std::uint64_t difference_count = 0;
  /// First few mismatches, as "field[index]: bits_a != bits_b" strings.
  std::vector<std::string> differences;

  [[nodiscard]] bool identical() const { return difference_count == 0; }
};

/// Diffs everything behavioural: times, all per-node series, summaries,
/// app completion, event logs, fault stats. Telemetry payloads (trace,
/// metrics snapshot) are deliberately excluded — the telemetry pair differs
/// there by construction.
[[nodiscard]] ResultDiff diff_results(const core::ExperimentResult& a,
                                      const core::ExperimentResult& b,
                                      std::size_t max_differences = 8);

/// Order-sensitive 64-bit hash of exactly the fields diff_results compares
/// (doubles by bit pattern, sequence sizes included): two results with
/// identical diffs have equal digests, and any one-bit change in a compared
/// field changes it. The golden-digest tests pin behaviour with it.
[[nodiscard]] std::uint64_t digest_result(const core::ExperimentResult& result);

struct OracleFailure {
  std::size_t config_index = 0;
  std::string config_name;
  OraclePairKind kind{};
  ResultDiff diff;
};

struct OracleReport {
  std::size_t configs = 0;
  std::size_t pairs_checked = 0;
  std::vector<OracleFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::string to_string() const;
};

struct OracleOptions {
  /// Worker threads for the parallel pass (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Mismatch strings retained per failing pair.
  std::size_t max_differences = 8;
};

/// Seeded fuzz corpus of small, fast experiment configs spanning workload
/// kinds, cluster sizes, policies, fan ceilings and tDVFS thresholds. The
/// same (seed, count) always yields the same corpus.
[[nodiscard]] std::vector<core::ExperimentConfig> make_oracle_corpus(std::uint64_t seed,
                                                                     std::size_t count);

/// Runs every config under all seven pairings and reports any diff.
[[nodiscard]] OracleReport run_oracle(const std::vector<core::ExperimentConfig>& corpus,
                                      OracleOptions options = {});

}  // namespace thermctl::verify
