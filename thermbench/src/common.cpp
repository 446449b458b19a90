#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace thermbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long total_pages = 0;
  unsigned long resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  return got == 2 ? static_cast<std::size_t>(resident_pages) * 4096u : 0;
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add_run(const thermctl::cluster::RunResult& run) {
  add_doubles(run.times);
  for (const thermctl::cluster::NodeSeries& s : run.nodes) {
    for (const std::vector<double>* col : {&s.die_temp, &s.sensor_temp, &s.duty, &s.rpm,
                                           &s.freq_ghz, &s.power_w, &s.util, &s.activity}) {
      add_doubles(*col);
    }
  }
  for (const thermctl::cluster::NodeSummary& s : run.summaries) {
    add_double(s.avg_die_temp);
    add_double(s.max_die_temp);
    add_double(s.avg_duty);
    add_double(s.energy_j);
    add_u64(s.freq_transitions);
  }
}

void Digest::add_events(const std::vector<thermctl::core::FanEvent>& fan,
                        const std::vector<thermctl::core::TdvfsEvent>& tdvfs) {
  add_u64(fan.size());
  for (const thermctl::core::FanEvent& e : fan) {
    add_double(e.time_s);
    add_double(e.to_duty);
  }
  add_u64(tdvfs.size());
  for (const thermctl::core::TdvfsEvent& e : tdvfs) {
    add_double(e.time_s);
    add_double(e.to_ghz);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

std::uint32_t this_thread_tag() {
  return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                                    0x7fffffffU);
}

std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
}

/// Nanoseconds of [start, end) covered by the union of `children`.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> children,
                        std::int64_t start, std::int64_t end) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;
  for (auto [a, b] : children) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

/// Self time of every span: its duration minus what its children cover.
std::vector<std::int64_t> span_self_ns(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] = dur - covered_ns(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

int Tracer::begin(const char* name, int parent) {
  const std::int64_t now = ns_since(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(Span{name, now, now, parent, run_, this_thread_tag()});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const std::int64_t now = ns_since(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock{mu_};
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int Tracer::add(const char* name, Clock::time_point start, Clock::time_point end, int parent) {
  std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(Span{name, ns_since(epoch_, start), ns_since(epoch_, end), parent, run_,
                        this_thread_tag()});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::set_run(int run) {
  std::lock_guard<std::mutex> lock{mu_};
  run_ = run;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock{mu_};
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = span_self_ns(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fputs("{\"name\":", f);
    write_json_string(f, s.name);
    std::fputs(",\"cat\":", f);
    write_json_string(f, layer_of(s.name));
    std::fprintf(f,
                 ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"self_us\":%.3f}}%s\n",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.run, s.tid, i, s.parent,
                 static_cast<double>(self[i]) / 1e3, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<LayerTime> layer_times(const std::vector<Tracer::Span>& spans) {
  const std::vector<std::int64_t> self = span_self_ns(spans);
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = by_layer[layer_of(spans[i].name)];
    lt.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    lt.self_s += static_cast<double>(self[i]) / 1e9;
    ++lt.spans;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, lt] : by_layer) {
    lt.layer = layer;
    out.push_back(lt);
  }
  return out;
}

double self_seconds(const std::vector<Tracer::Span>& spans, const std::string& name) {
  const std::vector<std::int64_t> self = span_self_ns(spans);
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      total += static_cast<double>(self[i]) / 1e9;
    }
  }
  return total;
}

double span_seconds(const std::vector<Tracer::Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Tracer::Span& s : spans) {
    if (s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  return total;
}

}  // namespace thermbench
