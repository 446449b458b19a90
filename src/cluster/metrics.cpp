#include "cluster/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/csv.hpp"
#include "runtime/shard_scope.hpp"

namespace thermctl::cluster {

namespace {

double average(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

}  // namespace

double RunResult::avg_power_w() const {
  double sum = 0.0;
  for (const NodeSummary& s : summaries) {
    sum += s.avg_power_w;
  }
  return summaries.empty() ? 0.0 : sum / static_cast<double>(summaries.size());
}

double RunResult::avg_die_temp() const {
  double sum = 0.0;
  for (const NodeSeries& n : nodes) {
    sum += average(n.die_temp);
  }
  return nodes.empty() ? 0.0 : sum / static_cast<double>(nodes.size());
}

double RunResult::max_die_temp() const {
  double m = 0.0;
  for (const NodeSummary& s : summaries) {
    m = std::max(m, s.max_die_temp);
  }
  return m;
}

double RunResult::avg_duty() const {
  double sum = 0.0;
  for (const NodeSeries& n : nodes) {
    sum += average(n.duty);
  }
  return nodes.empty() ? 0.0 : sum / static_cast<double>(nodes.size());
}

std::uint64_t RunResult::total_freq_transitions() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.freq_transitions;
  }
  return total;
}

std::uint64_t RunResult::total_i2c_retries() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.i2c_retries;
  }
  return total;
}

std::uint64_t RunResult::total_i2c_bus_faults() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.i2c_bus_faults;
  }
  return total;
}

std::uint64_t RunResult::total_i2c_exhausted() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.i2c_exhausted;
  }
  return total;
}

void RunResult::write_csv(const std::string& path, const std::string& field) const {
  std::vector<std::string> columns{"time_s"};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    columns.push_back("node" + std::to_string(i) + "_" + field);
  }
  CsvWriter csv{path, std::move(columns)};

  auto series_of = [&](const NodeSeries& n) -> const std::vector<double>& {
    if (field == "die_temp") return n.die_temp;
    if (field == "sensor_temp") return n.sensor_temp;
    if (field == "duty") return n.duty;
    if (field == "rpm") return n.rpm;
    if (field == "freq_ghz") return n.freq_ghz;
    if (field == "power_w") return n.power_w;
    if (field == "util") return n.util;
    if (field == "activity") return n.activity;
    THERMCTL_ASSERT(false, "unknown series field");
    return n.die_temp;  // unreachable
  };

  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<double> values;
    values.reserve(nodes.size() + 1);
    values.push_back(times[i]);
    for (const NodeSeries& n : nodes) {
      const auto& s = series_of(n);
      values.push_back(i < s.size() ? s[i] : 0.0);
    }
    csv.row(values);
  }
}

MetricsRecorder::MetricsRecorder(std::size_t node_count) : node_count_(node_count) {}

MetricsRecorder::Row MetricsRecorder::append_row(double t_seconds) {
  times_.push_back(t_seconds);
  const std::size_t offset = cols_[0].size();
  Row row;
  row.node_count_ = node_count_;
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    cols_[f].resize(offset + node_count_);
    row.cols_[f] = cols_[f].data() + offset;
  }
  return row;
}

void MetricsRecorder::reserve(std::size_t samples) {
  times_.reserve(samples);
  for (Column& col : cols_) {
    col.reserve(samples * node_count_);
  }
}

void MetricsRecorder::Row::set(std::size_t node, double die, double sensor, double duty,
                               double rpm, double freq_ghz, double power_w, double util,
                               ActivityCode activity) const {
  // The columnar staging is node-major: slot `node` of the row is node
  // `node`'s sample for this round.
  THERMCTL_ASSERT(node < node_count_, "sample slot past the fleet row");
  cols_[0][node] = die;
  cols_[1][node] = sensor;
  cols_[2][node] = duty;
  cols_[3][node] = rpm;
  cols_[4][node] = freq_ghz;
  cols_[5][node] = power_w;
  cols_[6][node] = util;
  cols_[7][node] = static_cast<double>(static_cast<int>(activity));
}

RunResult MetricsRecorder::result() const {
  RunResult result;
  result.times = times_;
  result.nodes.resize(node_count_);
  result.summaries.resize(node_count_);
  const std::size_t rows = times_.size();

  static constexpr std::vector<double> NodeSeries::*kFields[] = {
      &NodeSeries::die_temp, &NodeSeries::sensor_temp, &NodeSeries::duty,
      &NodeSeries::rpm,      &NodeSeries::freq_ghz,    &NodeSeries::power_w,
      &NodeSeries::util,     &NodeSeries::activity,
  };

  // Blocked transpose: a block of destination series stays cache-resident
  // across all rows while the column side is read in contiguous row spans,
  // so the scatter cost is paid once per element instead of once per record
  // tick. Each range writes only its own nodes' series.
  runtime::for_each_shard(node_count_, [&](std::size_t begin, std::size_t end) {
    constexpr std::size_t kBlock = 128;
    for (std::size_t b0 = begin; b0 < end; b0 += kBlock) {
      const std::size_t b1 = std::min(end, b0 + kBlock);
      for (std::size_t i = b0; i < b1; ++i) {
        for (auto field : kFields) {
          (result.nodes[i].*field).reserve(rows);
        }
      }
      for (std::size_t f = 0; f < kFieldCount; ++f) {
        const double* col = cols_[f].data();
        for (std::size_t r = 0; r < rows; ++r) {
          const double* row = col + r * node_count_;
          for (std::size_t i = b0; i < b1; ++i) {
            (result.nodes[i].*kFields[f]).push_back(row[i]);
          }
        }
      }
    }
  });
  return result;
}

}  // namespace thermctl::cluster
