#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <ostream>

#include "bench.hpp"
#include "common/json_writer.hpp"

namespace perfbench {

CorePin::CorePin(int core) {
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0)
    return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(core, &one);
  active_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

CorePin::~CorePin() {
  if (active_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    gate(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: gate failed: " << what << '\n';
}

void Result::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::digest(const std::string& name, std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(value));
  std::cout << "digest " << name << ' ' << hex << '\n';
}

void Result::print(std::ostream& out) const {
  laacad::JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("correct", correct_);
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("metrics").begin_object();
  for (const auto& [name, vu] : metrics_) {
    w.key(name).begin_object();
    w.kv("value", vu.first);
    w.kv("unit", vu.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out << '\n';
}

Stages::Stages(const laacad::obs::TraceReport& report) {
  for (const auto& [name, total] : report.stages) by_name_[name] = total;
}

double Stages::total_ms(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) / 1e6;
}

double Stages::quantile_ms(const std::string& name, double q) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end()
             ? 0.0
             : static_cast<double>(it->second.hist.value_at(q)) / 1e6;
}

void Stages::print(std::ostream& out, const std::string& title) const {
  std::vector<std::pair<std::string, laacad::obs::StageTotal>> rows(
      by_name_.begin(), by_name_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  out << "perfbench: stages of " << title << " (library spans)\n";
  char line[160];
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof(line), "  %-16s %10.2f ms  %8llu spans\n",
                  name.c_str(), static_cast<double>(t.total_ns) / 1e6,
                  static_cast<unsigned long long>(t.count));
    out << line;
  }
}

}  // namespace perfbench
