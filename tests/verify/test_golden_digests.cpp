// Golden digests — behaviour pinned as checked-in numbers.
//
// Every config of the oracle corpus (seed 20100913, 24 configs), of a
// fault/telemetry variant of it, and of the paper figures (Figs. 5-10 and
// Table 1, each config built the way its bench builds it) runs once; the
// digest of each result
// (verify::digest_result: exactly the fields diff_results compares, doubles
// by bit pattern) must equal its line in the table below. A refactor that
// claims bit-identical behaviour keeps this table unchanged. A mismatch
// prints the actual table line; a change that is *meant* to alter behaviour
// replaces the affected lines with the printed ones, in the same commit
// that explains why.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/sweep.hpp"
#include "verify/differential.hpp"

namespace thermctl::verify {
namespace {

constexpr std::uint64_t kCorpusSeed = 20100913;
constexpr std::size_t kCorpusSize = 24;

struct GoldenLine {
  const char* set;
  std::size_t index;
  std::uint64_t digest;
};

// clang-format off
constexpr GoldenLine kGolden[] = {
    {"corpus", 0, 0x559942c0e2015b61ULL},
    {"corpus", 1, 0x211eeb38da224633ULL},
    {"corpus", 2, 0xf37b8809ff616f04ULL},
    {"corpus", 3, 0x48b615387260f162ULL},
    {"corpus", 4, 0xde812e8a916ed924ULL},
    {"corpus", 5, 0xd322eb0eedc6c622ULL},
    {"corpus", 6, 0x5d8399c67fc22614ULL},
    {"corpus", 7, 0x45f4bc4d1fd02bfcULL},
    {"corpus", 8, 0x64e135f00ad5fec0ULL},
    {"corpus", 9, 0xfba6d38922d7f911ULL},
    {"corpus", 10, 0xd9f80bbf8a337737ULL},
    {"corpus", 11, 0x09a81cafae67b50dULL},
    {"corpus", 12, 0xdc8b94aea61c64bcULL},
    {"corpus", 13, 0xa5857fcd0ae22915ULL},
    {"corpus", 14, 0xc3f22bfe9fa823b0ULL},
    {"corpus", 15, 0x36191993051ed647ULL},
    {"corpus", 16, 0x70071aac1f44966bULL},
    {"corpus", 17, 0x09ebedcf2330fa43ULL},
    {"corpus", 18, 0xa953d7fb3f0d68dfULL},
    {"corpus", 19, 0xf737e6b03becb12eULL},
    {"corpus", 20, 0x9ac49c7b815f5926ULL},
    {"corpus", 21, 0xcb63d929b7292ecdULL},
    {"corpus", 22, 0x742f09004bd889feULL},
    {"corpus", 23, 0x60a648e15db67101ULL},
    {"variant", 0, 0x559942c0e2015b61ULL},
    {"variant", 1, 0x490a68ebb7c23a2eULL},
    {"variant", 2, 0xf37b8809ff616f04ULL},
    {"variant", 3, 0x538408f5b4e61a32ULL},
    {"variant", 4, 0xde812e8a916ed924ULL},
    {"variant", 5, 0x96bc197ef05d8886ULL},
    {"variant", 6, 0x5d8399c67fc22614ULL},
    {"variant", 7, 0xb03a7408567913d2ULL},
    {"variant", 8, 0x64e135f00ad5fec0ULL},
    {"variant", 9, 0x84afe4fae98fd526ULL},
    {"variant", 10, 0xd9f80bbf8a337737ULL},
    {"variant", 11, 0x05223de425f55548ULL},
    {"variant", 12, 0xdc8b94aea61c64bcULL},
    {"variant", 13, 0xc1d07ee93cfe43d2ULL},
    {"variant", 14, 0xc3f22bfe9fa823b0ULL},
    {"variant", 15, 0x352a9f53e6e32a02ULL},
    {"variant", 16, 0x70071aac1f44966bULL},
    {"variant", 17, 0x3936aa2496b85617ULL},
    {"variant", 18, 0xa953d7fb3f0d68dfULL},
    {"variant", 19, 0x70b0909999c45c8aULL},
    {"variant", 20, 0x9ac49c7b815f5926ULL},
    {"variant", 21, 0x886634734ce4a366ULL},
    {"variant", 22, 0x742f09004bd889feULL},
    {"variant", 23, 0xce43dd0721cc9a08ULL},
    {"fig05", 0, 0xc28003fd7dd77686ULL},
    {"fig05", 1, 0x11ecf2c13d9c126bULL},
    {"fig05", 2, 0x4d766526f0f40224ULL},
    {"fig06", 0, 0xbbfae83bc3170c7eULL},
    {"fig06", 1, 0x48b9a62ab17478a3ULL},
    {"fig06", 2, 0xb5a83f5d2f5a9611ULL},
    {"fig07", 0, 0xba494c8eb6c98d55ULL},
    {"fig07", 1, 0x8399e2670a940c1fULL},
    {"fig07", 2, 0x48b9a62ab17478a3ULL},
    {"fig07", 3, 0xadc9a0e633994524ULL},
    {"fig08", 0, 0xda0b7fd9bdbe0393ULL},
    {"fig09", 0, 0xf30d739f2ff6e712ULL},
    {"fig09", 1, 0xa46f9c559a284542ULL},
    {"fig10", 0, 0xc399d82b9189df07ULL},
    {"fig10", 1, 0x5e172f23211b3c2fULL},
    {"fig10", 2, 0xfbf7d076fa44aa12ULL},
    {"table1", 0, 0xf675638903b081a1ULL},
    {"table1", 1, 0xa8cd177420608d0dULL},
    {"table1", 2, 0x46468e0387f7bd45ULL},
    {"table1", 3, 0x5e172f23211b3c2fULL},
    {"table1", 4, 0xf30d739f2ff6e712ULL},
    {"table1", 5, 0xa46f9c559a284542ULL},
};
// clang-format on

/// The oracle corpus itself.
std::vector<core::ExperimentConfig> corpus_set() {
  return make_oracle_corpus(kCorpusSeed, kCorpusSize);
}

/// The same corpus with live faults and armed telemetry mixed in: odd
/// indices run fault-aware controllers under a fault campaign (sensor stuck
/// and bus faults), and every third config from index 1 records trace and
/// metrics.
std::vector<core::ExperimentConfig> variant_set() {
  std::vector<core::ExperimentConfig> configs = corpus_set();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    core::ExperimentConfig& cfg = configs[i];
    if (i % 2 == 1) {
      cfg.fault_aware = true;
      cfg.faults.enabled = true;
      cfg.faults.episodes_per_node = 2;
      cfg.faults.start_after = Seconds{2.0};
      cfg.faults.min_duration = Seconds{1.0};
      cfg.faults.max_duration = Seconds{6.0};
    }
    if (i % 3 == 1) {
      cfg.telemetry.trace = true;
      cfg.telemetry.metrics = true;
    }
  }
  return configs;
}

/// The paper-figure configs, one set per figure, built exactly as the
/// figure's bench builds them (same order as the bench's sweep).
struct PaperSet {
  const char* name;
  std::vector<core::ExperimentConfig> configs;
};

std::vector<PaperSet> paper_sets() {
  using core::DvfsPolicyKind;
  using core::ExperimentConfig;
  using core::FanPolicyKind;
  using core::PolicyParam;
  using core::WorkloadKind;
  std::vector<PaperSet> sets;

  PaperSet fig05{"fig05", {}};  // dynamic fan under cpu-burn, Pp sweep
  for (int pp : {25, 50, 75}) {
    ExperimentConfig cfg = core::paper_platform();
    cfg.name = "fig05_pp" + std::to_string(pp);
    cfg.nodes = 1;
    cfg.workload = WorkloadKind::kCpuBurnCycles;
    cfg.cpu_burn_duration = Seconds{300.0};
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.pp = PolicyParam{pp};
    cfg.telemetry.trace = true;
    cfg.telemetry.metrics = true;
    fig05.configs.push_back(cfg);
  }
  sets.push_back(fig05);

  PaperSet fig06{"fig06", {}};  // dynamic vs static curve vs constant fan
  const std::pair<const char*, FanPolicyKind> fig06_fans[] = {
      {"fig06_static", FanPolicyKind::kStaticCurve},
      {"fig06_dynamic", FanPolicyKind::kDynamic},
      {"fig06_constant", FanPolicyKind::kConstantDuty},
  };
  for (const auto& [name, fan] : fig06_fans) {
    ExperimentConfig cfg = core::paper_platform();
    cfg.name = name;
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = fan;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{75.0};
    cfg.constant_duty = DutyCycle{75.0};
    fig06.configs.push_back(cfg);
  }
  sets.push_back(fig06);

  PaperSet fig07{"fig07", {}};  // maximum-PWM sweep
  for (int cap : {25, 50, 75, 100}) {
    ExperimentConfig cfg = core::paper_platform();
    cfg.name = "fig07_cap" + std::to_string(cap);
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{static_cast<double>(cap)};
    fig07.configs.push_back(cfg);
  }
  sets.push_back(fig07);

  PaperSet fig08{"fig08", {}};  // tDVFS with the static fan curve
  {
    ExperimentConfig cfg = core::paper_platform();
    cfg.name = "fig08";
    cfg.workload = WorkloadKind::kNpbLu;
    cfg.fan = FanPolicyKind::kStaticCurve;
    cfg.dvfs = DvfsPolicyKind::kTdvfs;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{25.0};
    cfg.engine.cooldown = Seconds{60.0};
    fig08.configs.push_back(cfg);
  }
  sets.push_back(fig08);

  PaperSet fig09{"fig09", {}};  // tDVFS vs CPUSPEED under the dynamic fan
  const std::pair<const char*, DvfsPolicyKind> fig09_dvfs[] = {
      {"fig09_cpuspeed", DvfsPolicyKind::kCpuspeed},
      {"fig09_tdvfs", DvfsPolicyKind::kTdvfs},
  };
  for (const auto& [name, dvfs] : fig09_dvfs) {
    ExperimentConfig cfg = core::paper_platform();
    cfg.name = name;
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.dvfs = dvfs;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{25.0};
    fig09.configs.push_back(cfg);
  }
  sets.push_back(fig09);

  PaperSet fig10{"fig10", {}};  // hybrid fan + tDVFS on BT.B, shared Pp
  for (int pp : {25, 50, 75}) {
    ExperimentConfig cfg = core::paper_platform();
    cfg.name = "fig10_pp" + std::to_string(pp);
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.dvfs = DvfsPolicyKind::kTdvfs;
    cfg.pp = PolicyParam{pp};
    cfg.max_duty = DutyCycle{50.0};
    cfg.telemetry.trace = true;
    cfg.telemetry.metrics = true;
    fig10.configs.push_back(cfg);
  }
  sets.push_back(fig10);

  PaperSet table1{"table1", {}};  // CPUSPEED vs tDVFS per fan cap
  for (int cap : {75, 50, 25}) {
    for (DvfsPolicyKind dvfs : {DvfsPolicyKind::kCpuspeed, DvfsPolicyKind::kTdvfs}) {
      ExperimentConfig cfg = core::paper_platform();
      cfg.name = "table1";
      cfg.workload = WorkloadKind::kNpbBt;
      cfg.fan = FanPolicyKind::kDynamic;
      cfg.dvfs = dvfs;
      cfg.pp = PolicyParam{50};
      cfg.max_duty = DutyCycle{static_cast<double>(cap)};
      table1.configs.push_back(cfg);
    }
  }
  sets.push_back(table1);
  return sets;
}

std::size_t paper_config_count() {
  std::size_t n = 0;
  for (const PaperSet& set : paper_sets()) {
    n += set.configs.size();
  }
  return n;
}

const GoldenLine* find_line(const std::string& set, std::size_t index) {
  for (const GoldenLine& line : kGolden) {
    if (set == line.set && index == line.index) {
      return &line;
    }
  }
  return nullptr;
}

/// The table line for an actual digest, formatted as it appears above.
std::string table_line(const std::string& set, std::size_t index, std::uint64_t digest) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "    {\"%s\", %zu, 0x%016" PRIx64 "ULL},", set.c_str(), index,
                digest);
  return buf;
}

/// Runs `configs` and returns the table lines whose digest differs from (or
/// is missing in) the golden table.
std::vector<std::string> mismatches(const std::string& set,
                                    const std::vector<core::ExperimentConfig>& configs) {
  const std::vector<core::ExperimentResult> results = runtime::run_sweep(configs);
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::uint64_t digest = digest_result(results[i]);
    const GoldenLine* line = find_line(set, i);
    if (line == nullptr || line->digest != digest) {
      bad.push_back(table_line(set, i, digest));
    }
  }
  return bad;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += "\n" + l;
  }
  return out;
}

TEST(GoldenDigests, OracleCorpusMatchesTable) {
  const std::vector<std::string> bad = mismatches("corpus", corpus_set());
  EXPECT_TRUE(bad.empty()) << "actual table lines for mismatching configs:" << joined(bad);
}

TEST(GoldenDigests, FaultAndTelemetryVariantMatchesTable) {
  const std::vector<std::string> bad = mismatches("variant", variant_set());
  EXPECT_TRUE(bad.empty()) << "actual table lines for mismatching configs:" << joined(bad);
}

TEST(GoldenDigests, PaperFiguresMatchTable) {
  for (const PaperSet& set : paper_sets()) {
    const std::vector<std::string> bad = mismatches(set.name, set.configs);
    EXPECT_TRUE(bad.empty()) << "actual table lines for mismatching " << set.name
                             << " configs:" << joined(bad);
  }
}

TEST(GoldenDigests, TableCoversBothSetsExactly) {
  std::size_t corpus_lines = 0;
  for (const GoldenLine& line : kGolden) {
    const std::string set = line.set;
    corpus_lines += (set == "corpus" || set == "variant") ? 1 : 0;
  }
  EXPECT_EQ(corpus_lines, 2 * kCorpusSize);
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_NE(find_line("corpus", i), nullptr) << i;
    EXPECT_NE(find_line("variant", i), nullptr) << i;
  }
}

TEST(GoldenDigests, TableCoversPaperFiguresExactly) {
  EXPECT_EQ(std::size(kGolden), 2 * kCorpusSize + paper_config_count());
  for (const PaperSet& set : paper_sets()) {
    for (std::size_t i = 0; i < set.configs.size(); ++i) {
      EXPECT_NE(find_line(set.name, i), nullptr) << set.name << " " << i;
    }
  }
}

TEST(GoldenDigests, OneUlpInOneSeriesChangesTheDigest) {
  const std::vector<core::ExperimentConfig> configs = corpus_set();
  core::ExperimentResult result = core::run_experiment(configs[0]);
  const std::uint64_t before = digest_result(result);
  ASSERT_FALSE(result.run.nodes.empty());
  std::vector<double>& duty = result.run.nodes[0].duty;
  ASSERT_GT(duty.size(), 10u);
  duty[10] = std::nextafter(duty[10], std::numeric_limits<double>::infinity());
  EXPECT_NE(digest_result(result), before);
}

TEST(GoldenDigests, DifferentPolicyParamFailsTheTable) {
  // Only the first config is re-run, with its Pp moved; the table must
  // reject it, or the table would not pin the control policy at all.
  std::vector<core::ExperimentConfig> configs = corpus_set();
  configs.resize(1);
  const int pp = configs[0].pp.value;
  configs[0].pp = core::PolicyParam{pp > 50 ? pp - 40 : pp + 40};
  EXPECT_EQ(mismatches("corpus", configs).size(), 1u);
}

}  // namespace
}  // namespace thermctl::verify
