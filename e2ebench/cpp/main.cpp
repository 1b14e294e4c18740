// e2e_bench: end-to-end benchmark program for meshroute's three hot paths.
//
//   e2e_bench --workload serve_churn|serve_query|paper_sweep --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//   e2e_bench gen --workload W --seed N --out DIR
//
// --trace 0 measures the workload for S seconds and prints the end-to-end
// metrics. --trace 1 first repeats the workload untraced for S/3 seconds,
// then traced over exactly the same rounds: every request is also sent to
// each layer's public entry point below the protocol, and the kernel builds
// are repeated off to the side. The other two workloads run one traced
// round each as probes, so every per-layer metric is reported on every
// workload (a layer's own workload takes precedence). Spans are written to
// DIR/spans_<workload>_<seed>.json.
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {name: {value, unit}}}
// The exit code is 1 when any check failed (the result is still printed).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/simd.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace {

using e2e::Outcome;
using e2e::PassLimit;
using e2e::PassStats;
using e2e::RunConfig;
using e2e::Tracer;

/// Per-layer metrics, in BENCHMARK.json order. Count metrics report the mean
/// per call (their medians are mostly 0 or 1); times report the median.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.protocol.inject_us", "us"},     {"serve.builder.inject_us", "us"},
    {"serve.builder.publish_us", "us"},     {"serve.builder.publish_self_us", "us"},
    {"serve.builder.flush_epoch_us", "us"}, {"serve.snapshot.delta_build_us", "us"},
    {"serve.snapshot.scratch_build_us", "us"}, {"info.boundary_build_us", "us"},
    {"info.deposits", "count"},             {"fault.mcc_build_us", "us"},
    {"fault.block_build_us", "us"},         {"info.safety_build_us", "us"},
    {"dynamic.inject_fault_us", "us"},      {"dynamic.relabeled_nodes", "count"},
    {"serve.journal.recover_us", "us"},     {"serve.journal.records_per_s", "1/s"},
    {"serve.protocol.decide_us", "us"},     {"serve.server.decide_us", "us"},
    {"serve.store.acquire_ns", "ns"},       {"cond.decide_us", "us"},
    {"serve.protocol.route_us", "us"},      {"serve.server.route_us", "us"},
    {"route.route_us", "us"},               {"route.us_per_hop", "us"},
    {"route.hops", "count"},                {"route.detours", "count"},
    {"route.escalations", "count"},         {"experiment.make_trial_us", "us"},
    {"experiment.sample_dest_us", "us"},    {"cond.reach_us", "us"},
    {"cond.ext1_us", "us"},                 {"cond.ext2_us", "us"},
    {"cond.ext3_us", "us"},                 {"cond.strategy_us", "us"},
    {"trace.sum_ratio", "ratio"},
};

using PassFn = PassStats (*)(const RunConfig&, const PassLimit&, Tracer*, Outcome&);

PassStats sweep_full(const RunConfig& c, const PassLimit& l, Tracer* t, Outcome& o) {
  return e2e::sweep_pass(c, l, t, o);
}
PassStats sweep_probe(const RunConfig& c, const PassLimit& l, Tracer* t, Outcome& o) {
  return e2e::sweep_pass(c, l, t, o, /*trials=*/2);
}

struct Workload {
  const char* name;
  PassFn full;
  PassFn probe;
};
constexpr Workload kWorkloads[] = {
    {"serve_churn", e2e::churn_pass, e2e::churn_pass},
    {"serve_query", e2e::query_pass, e2e::query_pass},
    {"paper_sweep", sweep_full, sweep_probe},
};

int usage(const char* why) {
  std::cerr << "e2e_bench: " << why << "\n"
            << "usage: e2e_bench --workload serve_churn|serve_query|paper_sweep --seed N\n"
            << "                 --seconds S --trace 0|1 [--workdir DIR]\n"
            << "       e2e_bench gen --workload W --seed N --out DIR\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

void print_layers(const Tracer& own, const Tracer* probes[2], Outcome& result) {
  std::printf("per-layer summary (median per call; counts: mean; * = from a probe workload)\n");
  for (const LayerMetric& m : kLayerMetrics) {
    const Tracer* from = &own;
    bool probe = false;
    if (own.samples(m.name).empty()) {
      for (int i = 0; i < 2; ++i) {
        if (!probes[i]->samples(m.name).empty()) {
          from = probes[i];
          probe = true;
          break;
        }
      }
    }
    const std::vector<double>& v = from->samples(m.name);
    if (v.empty()) continue;
    const bool count = std::string(m.unit) == "count";
    const double value = count ? from->sum_of(m.name) / static_cast<double>(v.size())
                               : e2e::median(v);
    std::printf("  %-34s %12.3f %-6s n=%zu%s\n", m.name, value, m.unit, v.size(),
                probe ? " *" : "");
    result.add(m.name, value, m.unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::string workdir = ".bench_build/work";
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool gen = false;
  bool have_seed = false;
  bool have_seconds = false;
  int i = 1;
  if (argc > 1 && std::string(argv[1]) == "gen") {
    gen = true;
    i = 2;
  }
  for (; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      ok = parse_u64(value, seed);
      have_seed = true;
    } else if (key == "--seconds") {
      ok = parse_u64(value, seconds) && seconds >= 1 && seconds <= 600;
      have_seconds = true;
    } else if (key == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (key == "--workdir") {
      workdir = value;
    } else if (key == "--out") {
      out_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
    if (!ok) return usage(("bad value for " + key).c_str());
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) wl = &w;
  }
  if (wl == nullptr) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");

  if (gen) {
    if (out_dir.empty()) return usage("gen needs --out");
    std::filesystem::create_directories(out_dir);
    if (!e2e::write_inputs(workload, seed, out_dir)) {
      std::cerr << "e2e_bench: could not write inputs to " << out_dir << "\n";
      return 1;
    }
    std::printf("wrote %s inputs for seed %llu to %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed), out_dir.c_str());
    return 0;
  }
  if (!have_seconds) return usage("missing --seconds");

  std::filesystem::create_directories(workdir);
  const RunConfig cfg{seed, static_cast<double>(seconds), workdir};
  std::printf("e2e_bench build=%s tier=%s workload=%s seed=%llu seconds=%llu trace=%llu\n",
              E2E_BUILD_TYPE, meshroute::core::simd::tier_name(meshroute::core::simd::active_tier()),
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds), static_cast<unsigned long long>(trace));

  Outcome result;
  if (trace == 0) {
    wl->full(cfg, {cfg.seconds, 0}, nullptr, result);
    result.add("peak_rss_mb", e2e::peak_rss_mb(), "MB");
  } else {
    // Untraced and traced over the same rounds of the same inputs: the
    // difference of their top-level medians is the tracing overhead.
    Outcome untraced;
    const PassStats plain = wl->full(cfg, {cfg.seconds / 3, 0}, nullptr, untraced);
    Tracer own;
    const PassStats traced = wl->full(cfg, {cfg.seconds * 20, plain.rounds}, &own, result);
    own.finish();
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    Tracer probe_tracers[2];
    const Tracer* probes[2] = {&probe_tracers[0], &probe_tracers[1]};
    int p = 0;
    for (const Workload& w : kWorkloads) {
      if (&w == wl) continue;
      w.probe(cfg, {cfg.seconds * 20, 1}, &probe_tracers[p], result);
      probe_tracers[p++].finish();
    }
    print_layers(own, probes, result);
    const double base = e2e::median(plain.top_us);
    const double overhead = 100.0 * (e2e::median(traced.top_us) - base) / base;
    std::printf("tracing overhead: top-level median %.2f us traced vs %.2f us untraced (%+.1f%%)\n",
                e2e::median(traced.top_us), base, overhead);
    result.add("trace.overhead_pct", overhead, "%");
    result.add("trace.spans", static_cast<double>(own.spans_total()), "count");
    const std::string spans = workdir + "/spans_" + workload + "_" + std::to_string(seed) + ".json";
    if (own.write_json(spans)) {
      std::printf("spans: %zu of %llu written to %s\n", own.spans_recorded(),
                  static_cast<unsigned long long>(own.spans_total()), spans.c_str());
    }
  }
  std::cout << result.json() << std::endl;
  return result.failed == 0 ? 0 : 1;
}
