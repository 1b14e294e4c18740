// The three workloads. Each runs in one process on one thread as a closed
// loop with a single client: the next request goes out when the previous
// reply is back.
//
// A pass without a Tracer measures the end-to-end metrics. A pass with one
// also sends every request to each layer's public entry point below the
// protocol (and repeats the kernel builds off to the side on the same
// world), recording spans and per-layer samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "report.hpp"
#include "serve/snapshot.hpp"

namespace e2e {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string workdir;  ///< scratch files (journals, span dumps)
};

/// Limits of one pass: stop after `seconds` or `max_rounds` rounds
/// (0 = no round limit), whichever comes first.
struct PassLimit {
  double seconds = 10;
  int max_rounds = 0;
};

/// Per-pass result beyond the Outcome: rounds completed and the top-level
/// latency series the tracing overhead is computed from.
struct PassStats {
  int rounds = 0;
  std::vector<double> top_us;
};

PassStats churn_pass(const RunConfig& cfg, const PassLimit& limit, Tracer* tracer, Outcome& out);
PassStats query_pass(const RunConfig& cfg, const PassLimit& limit, Tracer* tracer, Outcome& out);
/// `trials` overrides the paper's 60 trials per point (probes use fewer).
PassStats sweep_pass(const RunConfig& cfg, const PassLimit& limit, Tracer* tracer, Outcome& out,
                     int trials = 60);

// ---- shared checking helpers (workloads.cpp) -------------------------------

/// Check a published snapshot against the benchmark's record of its world:
/// the fault set equals `faulty`, the blocks are Definition-1 closed and
/// rasterize to the faulty-block plane, and all three safety planes match
/// the direct scan. Returns "" or the first failure.
[[nodiscard]] std::string check_snapshot(const meshroute::serve::RoutingSnapshot& snap,
                                         const Plane& faulty);

/// Parsed "OK ROUTE <status> rung=<rung> hops=H detours=D epoch=E".
struct RouteReply {
  bool ok = false;
  bool delivered = false;
  bool minimal_rung = false;
  long hops = 0;
  long detours = 0;
  long epoch = -1;
};
[[nodiscard]] RouteReply parse_route(const std::string& reply);

/// Check a ROUTE reply for s -> d: an OK reply, the hop-count identity when
/// delivered, and a monotone path in the benchmark's DP when delivered on
/// the minimal rung (`path_exists()` runs the DP, only when needed).
template <class PathExists>
std::string check_route(const std::string& reply, Pt s, Pt d, PathExists&& path_exists) {
  const RouteReply r = parse_route(reply);
  if (!r.ok) return "unexpected reply '" + reply + "'";
  if (!r.delivered) return "";
  std::string why = check_route_length(s, d, r.hops, r.detours);
  if (why.empty() && r.minimal_rung && !path_exists()) {
    why = "minimal-rung route delivered where the DP finds no monotone path: " + reply;
  }
  return why;
}

/// The integer after "key=" in `text` (-1 when absent).
[[nodiscard]] long field(const std::string& text, const char* key);

}  // namespace e2e
