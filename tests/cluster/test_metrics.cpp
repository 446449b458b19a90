#include "cluster/metrics.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace thermctl::cluster {
namespace {

RunResult sample_result() {
  MetricsRecorder rec{2};
  for (int i = 0; i < 4; ++i) {
    const double t = 0.25 * i;
    const MetricsRecorder::Row row = rec.append_row(t);
    row.set(0, 40.0 + i, 40.0 + i, 10.0 * i, 1000.0, 2.4, 100.0, 1.0);
    row.set(1, 42.0 + i, 42.0 + i, 5.0 * i, 900.0, 2.2, 95.0, 0.8);
  }
  RunResult r = rec.result();
  r.exec_time_s = 219.0;
  r.summaries[0].avg_power_w = 99.78;
  r.summaries[1].avg_power_w = 97.93;
  r.summaries[0].max_die_temp = 43.0;
  r.summaries[1].max_die_temp = 45.0;
  r.summaries[0].freq_transitions = 101;
  r.summaries[1].freq_transitions = 2;
  r.summaries[0].i2c_retries = 3;
  r.summaries[1].i2c_retries = 2;
  r.summaries[0].i2c_bus_faults = 4;
  r.summaries[1].i2c_exhausted = 1;
  return r;
}

TEST(Metrics, SeriesAlignedWithTimes) {
  const RunResult r = sample_result();
  EXPECT_EQ(r.times.size(), 4u);
  EXPECT_EQ(r.nodes[0].die_temp.size(), 4u);
  EXPECT_EQ(r.nodes[1].duty.size(), 4u);
}

TEST(Metrics, ClusterAverages) {
  const RunResult r = sample_result();
  EXPECT_NEAR(r.avg_power_w(), (99.78 + 97.93) / 2.0, 1e-9);
  EXPECT_NEAR(r.avg_die_temp(), (41.5 + 43.5) / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.max_die_temp(), 45.0);
  EXPECT_EQ(r.total_freq_transitions(), 103u);
}

TEST(Metrics, I2cFaultCountersSumAcrossNodes) {
  const RunResult r = sample_result();
  EXPECT_EQ(r.total_i2c_retries(), 5u);
  EXPECT_EQ(r.total_i2c_bus_faults(), 4u);
  EXPECT_EQ(r.total_i2c_exhausted(), 1u);
}

TEST(Metrics, I2cFaultCountersDefaultToZero) {
  RunResult r;
  r.summaries.resize(2);
  EXPECT_EQ(r.total_i2c_retries(), 0u);
  EXPECT_EQ(r.total_i2c_bus_faults(), 0u);
  EXPECT_EQ(r.total_i2c_exhausted(), 0u);
}

TEST(Metrics, PowerDelayProduct) {
  const RunResult r = sample_result();
  EXPECT_NEAR(r.power_delay_product(), r.avg_power_w() * 219.0, 1e-6);
}

TEST(Metrics, CsvExportShapesCorrectly) {
  const RunResult r = sample_result();
  const std::string path = ::testing::TempDir() + "/thermctl_metrics_test.csv";
  r.write_csv(path, "die_temp");
  std::ifstream in{path};
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,node0_die_temp,node1_die_temp");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "0,40,42");
  int rows = 1;
  while (std::getline(in, row)) {
    ++rows;
  }
  EXPECT_EQ(rows, 4);
  std::remove(path.c_str());
}

TEST(Metrics, CsvExportsEveryField) {
  const RunResult r = sample_result();
  for (const char* field :
       {"die_temp", "sensor_temp", "duty", "rpm", "freq_ghz", "power_w", "util", "activity"}) {
    const std::string path =
        ::testing::TempDir() + "/thermctl_metrics_" + field + ".csv";
    r.write_csv(path, field);
    std::ifstream in{path};
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find(field), std::string::npos) << field;
    int rows = 0;
    std::string row;
    while (std::getline(in, row)) {
      ++rows;
    }
    EXPECT_EQ(rows, 4) << field;
    std::remove(path.c_str());
  }
}

TEST(Metrics, CsvRejectsUnknownField) {
  const RunResult r = sample_result();
  const std::string path = ::testing::TempDir() + "/thermctl_metrics_bad.csv";
  EXPECT_DEATH(r.write_csv(path, "nonexistent"), "unknown");
  std::remove(path.c_str());
}

TEST(Metrics, EmptyResultAveragesAreZero) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.avg_power_w(), 0.0);
  EXPECT_DOUBLE_EQ(r.avg_die_temp(), 0.0);
  EXPECT_DOUBLE_EQ(r.max_die_temp(), 0.0);
}

}  // namespace
}  // namespace thermctl::cluster
