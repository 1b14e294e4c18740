#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Outcome::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Outcome::fail(const std::string& why) {
  if (failed < 10) std::cerr << "e2e_bench: check failed: " << why << "\n";
  ++failed;
}

std::string Outcome::json() const {
  std::string out = "{\"correct\": ";
  out += attempted > 0 && failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metrics[i].second.first);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

void print_latency(const std::string& label, const std::vector<double>& us) {
  std::printf("%-34s p50=%.2f p90=%.2f p99=%.2f us  (n=%zu)\n", label.c_str(),
              quantile(us, 0.5), quantile(us, 0.9), quantile(us, 0.99), us.size());
}

const std::vector<double>& Tracer::samples(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kNone : it->second;
}

double Tracer::sum_of(const std::string& name) const {
  double total = 0;
  for (const double v : samples(name)) total += v;
  return total;
}

void Tracer::request(const char* name) {
  finish();
  ++request_;
  root_ = begin(name);
}

void Tracer::finish() {
  if (root_) end(*root_);
  root_.reset();
}

Tracer::Open Tracer::begin(const char* name) {
  ++total_;
  std::int64_t slot = -1;
  if (spans_.size() < kMaxSpans) {
    slot = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back(), request_});
  }
  stack_.push_back(slot);
  return {name, now_ns(), slot};
}

void Tracer::end(const Open& open) {
  const std::int64_t t = now_ns();
  stack_.pop_back();
  if (open.slot >= 0) {
    Span& s = spans_[static_cast<std::size_t>(open.slot)];
    s.start = open.start;
    s.end = t;
  }
  samples_[open.name].push_back(static_cast<double>(t - open.start) / 1000.0);
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace e2e

