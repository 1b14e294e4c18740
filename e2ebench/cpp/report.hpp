// Timing, span recording and result printing shared by the workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile q in [0, 1] of `v` by linear interpolation (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// What one run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Count one failed operation; the first few reasons go to stderr.
  void fail(const std::string& why);
  /// The result line: {"correct", "attempted", "failed", "metrics"};
  /// "correct" holds only when something was attempted and nothing failed.
  [[nodiscard]] std::string json() const;
};

/// Print "<label> p50/p90/p99 (n)" of a latency series to stdout (the p99
/// is informational: it is not a bound metric).
void print_latency(const std::string& label, const std::vector<double>& us);

/// Spans recorded by the benchmark around each layer call it makes: name,
/// start, end, parent span and the id of the request the span serves. Spans
/// stay in memory (up to a cap; durations are kept for every call) and are
/// written out as JSON at the end of the run.
class Tracer {
 public:
  /// Start a new request: close the previous request's root span and open
  /// `name` as the root every later span nests under, with a new id.
  void request(const char* name);
  /// Close the last request's root span.
  void finish();

  /// Time f() as span `name`, nested under the innermost open span.
  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    const Open open = begin(name);
    struct Closer {
      Tracer* tracer;
      Open open;
      ~Closer() { tracer->end(open); }
    } closer{this, open};
    return f();
  }

  /// Record one value of a per-layer count or derived time.
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }

  [[nodiscard]] const std::vector<double>& samples(const std::string& name) const;
  [[nodiscard]] double median_of(const std::string& name) const { return median(samples(name)); }
  [[nodiscard]] double sum_of(const std::string& name) const;
  [[nodiscard]] std::size_t spans_recorded() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t spans_total() const noexcept { return total_; }

  /// Write every recorded span as a JSON array of
  /// {"name","start_ns","end_ns","parent","request"} objects.
  bool write_json(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start;
    std::int64_t slot;  ///< index in spans_, -1 when over the cap
  };
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int64_t parent;
    std::uint64_t request;
  };
  static constexpr std::size_t kMaxSpans = 100000;

  Open begin(const char* name);
  void end(const Open& open);

  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;  ///< slots of the open spans
  std::optional<Open> root_;         ///< the current request's root span
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t request_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace e2e
