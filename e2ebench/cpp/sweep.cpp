// paper_sweep: the figure-sweep path. The paper's Section 5 grid (k = 10..200,
// 60 trials, 40 destinations) through experiment::SweepRunner with one
// worker, repeated for the run length over kSweepReps distinct seeds (a long
// run cycles through them; whole sweeps only). Every destination
// is judged under both fault models by the conditions behind Figures 9-12:
// safe, extension 1, extension 2 (segment 5), extension 3 (21 random pivots)
// and strategies 1-4; the reachability oracle runs on every trial.
#include <array>
#include <cstdio>

#include "cond/conditions.hpp"
#include "cond/strategies.hpp"
#include "experiment/sweep.hpp"
#include "experiment/workspace.hpp"
#include "fault/block_model.hpp"
#include "fault/mcc_model.hpp"
#include "info/pivots.hpp"
#include "info/safety_level.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace ex = meshroute::experiment;
using meshroute::Coord;
using meshroute::cond::Decision;
using meshroute::cond::StrategyId;

constexpr int kDests = 40;
constexpr int kJudges = 8;  // safe, ext1, ext2, ext3, strategies 1-4
enum : int { kSafe, kExt1, kExt2, kExt3, kS1, kS2, kS3, kS4 };

ex::SweepConfig sweep_config(std::uint64_t seed, int trials) {
  ex::SweepConfig c;  // n = 200, k = 10..200 step 10
  c.trials = trials;
  c.dests = kDests;
  c.threads = 1;
  c.seed = seed;
  return c;
}

/// What one trial decided, kept for checking after its timed part.
struct TrialRecord {
  std::array<Coord, kDests> dest{};
  std::array<bool, kDests> oracle{};
  std::array<std::array<std::array<Decision, kJudges>, 2>, kDests> judged{};
};

}  // namespace

PassStats sweep_pass(const RunConfig& cfg, const PassLimit& limit, Tracer* tracer, Outcome& out,
                     int trials) {
  const bool traced = tracer != nullptr;

  // Set-up: a cold sweep engine building the first worlds of every grid
  // point (fresh runner and workspace, no destinations).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSweepSetupReps; ++rep) {
    const ex::SweepRunner runner(sweep_config(sweep_setup_seed(cfg.seed, rep), kSweepSetupTrials), {"built"});
    const std::int64_t t0 = now_ns();
    (void)runner.run([](const ex::SweepCell& cell, meshroute::Rng& rng, ex::TrialWorkspace& ws,
                        ex::TrialCounters& counters) {
      (void)ex::make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
      counters.count(0, true);
    });
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  PassStats stats;
  std::vector<double> build_us;
  std::int64_t run_ns = 0;
  std::int64_t check_ns = 0;
  std::uint64_t trials_done = 0;
  TrialRecord rec;
  Plane faulty;
  Plane reach;
  meshroute::fault::BlockScratch block_scratch;
  meshroute::fault::BlockSet blocks;
  meshroute::fault::MccScratch mcc_scratch;
  meshroute::fault::MccSet mcc;
  meshroute::info::SafetyGrid safety;
  const meshroute::cond::StrategyConfig strategy_cfg{.segment_size = 5};
  const StrategyId strategies[4] = {StrategyId::S1, StrategyId::S2, StrategyId::S3,
                                    StrategyId::S4};

  // Time `f` as a span when traced; plain call otherwise.
  const auto call = [&](const char* name, auto&& f) -> decltype(auto) {
    if (traced) return tracer->span(name, f);
    return f();
  };

  const auto trial_fn = [&](const ex::SweepCell& cell, meshroute::Rng& rng,
                            ex::TrialWorkspace& ws, ex::TrialCounters& counters) {
    if (traced) tracer->request("request.trial");
    const std::int64_t t0 = now_ns();
    const ex::Trial& trial = call("experiment.make_trial_us", [&]() -> const ex::Trial& {
      return ex::make_trial({.n = cell.n(), .faults = cell.faults()}, rng, ws);
    });
    const std::int64_t t1 = now_ns();
    call("cond.reach_us", [&] { trial.reachability(ws.reach); });
    const std::vector<Coord> pivots = meshroute::info::generate_pivots(
        trial.quadrant1_area(), 3, meshroute::info::PivotPlacement::Random, &rng);
    for (int s = 0; s < kDests; ++s) {
      const Coord d = call("experiment.sample_dest_us",
                           [&] { return ex::sample_quadrant1_dest(trial, rng); });
      rec.dest[s] = d;
      rec.oracle[s] = ws.reach[d];
      for (int m = 0; m < 2; ++m) {
        const meshroute::cond::RoutingProblem p = m == 0 ? trial.fb_problem(d) : trial.mcc_problem(d);
        auto& j = rec.judged[s][m];
        j[kSafe] = meshroute::cond::source_safe(p) ? Decision::Minimal : Decision::Unknown;
        j[kExt1] = call("cond.ext1_us", [&] { return meshroute::cond::extension1(p); });
        j[kExt2] = call("cond.ext2_us", [&] { return meshroute::cond::extension2(p, 5); });
        j[kExt3] = call("cond.ext3_us", [&] { return meshroute::cond::extension3(p, pivots); });
        for (int i = 0; i < 4; ++i) {
          j[kS1 + i] = call("cond.strategy_us", [&] {
            return meshroute::cond::run_strategy(p, strategies[i], strategy_cfg, pivots);
          });
        }
      }
    }
    const std::int64_t t2 = now_ns();
    stats.top_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    build_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    counters.count(0, true);
    if (traced) {
      tracer->sample("experiment.trial_us", static_cast<double>(t2 - t0) / 1e3);
      // The trial's kernels once more, off to the side.
      tracer->span("fault.block_build_us", [&] {
        meshroute::fault::build_faulty_blocks(trial.mesh, trial.faults, blocks, block_scratch);
      });
      for (const auto kind :
           {meshroute::fault::MccKind::TypeOne, meshroute::fault::MccKind::TypeTwo}) {
        tracer->span("fault.mcc_build_us", [&] {
          meshroute::fault::build_mcc(trial.mesh, trial.faults, kind, mcc, mcc_scratch);
        });
      }
      tracer->span("info.safety_build_us", [&] {
        meshroute::info::compute_safety_levels(trial.mesh, trial.fb_mask, safety);
      });
    }

    // Checks, outside the timed part: the benchmark's own DP from the source.
    const std::int64_t c0 = now_ns();
    ++out.attempted;
    faulty = Plane(trial.mesh.width(), trial.mesh.height());
    for (const Coord f : trial.faults.faults()) faulty.at(f.x, f.y) = 1;
    monotone_reach(faulty, {trial.source.x, trial.source.y}, reach);
    std::string why;
    for (int s = 0; s < kDests && why.empty(); ++s) {
      const Coord d = rec.dest[s];
      const bool exists = reach.at(d.x, d.y) != 0;
      if (rec.oracle[s] != exists) why = "reachability oracle differs from the DP";
      for (int m = 0; m < 2 && why.empty(); ++m) {
        const auto& j = rec.judged[s][m];
        for (int i = 0; i < kJudges; ++i) {
          if (j[i] == Decision::Minimal && !exists) {
            why = "condition " + std::to_string(i) + " judged an unreachable destination minimal";
          }
        }
        const bool any = j[kExt1] == Decision::Minimal || j[kExt2] == Decision::Minimal ||
                         j[kExt3] == Decision::Minimal;
        if (any != (j[kS4] == Decision::Minimal)) {
          why = "strategy 4 disagrees with extensions 1-3";
        }
      }
      if (!why.empty()) {
        why += " (k=" + std::to_string(cell.faults()) + ", trial " + std::to_string(cell.trial) +
               ", dest " + std::to_string(d.x) + "," + std::to_string(d.y) + ")";
      }
    }
    if (!why.empty()) out.fail(why);
    check_ns += now_ns() - c0;
  };

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(limit.seconds * 1e9);
  for (int rep = 0;; ++rep) {
    if (limit.max_rounds > 0 && rep >= limit.max_rounds) break;
    if (now_ns() >= deadline) break;
    const ex::SweepRunner runner(sweep_config(sweep_seed(cfg.seed, rep % kSweepReps), trials),
                                 {"trials"});
    const std::int64_t t0 = now_ns();
    const ex::SweepResult result = runner.run(trial_fn);
    run_ns += now_ns() - t0;
    trials_done += static_cast<std::uint64_t>(trials) * result.points().size();
    stats.rounds = rep + 1;
  }

  if (!traced) {
    out.add("setup_s", median(setup_s), "s");
    out.add("op_p50_us", quantile(stats.top_us, 0.5), "us");
    out.add("op_p90_us", quantile(stats.top_us, 0.9), "us");
    out.add("aux_p50_us", median(build_us), "us");
    out.add("ops_per_s",
            static_cast<double>(trials_done) / (static_cast<double>(run_ns - check_ns) / 1e9),
            "1/s");
    print_latency("paper_sweep trial (build + 40 dests)", stats.top_us);
    print_latency("paper_sweep trial build", build_us);
    std::printf("paper_sweep sweeps=%d trials=%llu setup_s(median of %d)=%.4f\n", stats.rounds,
                static_cast<unsigned long long>(trials_done), kSweepSetupReps, median(setup_s));
  } else {
    double below = 0;
    for (const char* name : {"experiment.make_trial_us", "cond.reach_us",
                             "experiment.sample_dest_us", "cond.ext1_us", "cond.ext2_us",
                             "cond.ext3_us", "cond.strategy_us"}) {
      below += tracer->sum_of(name);
    }
    tracer->sample("trace.sum_ratio", below / tracer->sum_of("experiment.trial_us"));
  }
  return stats;
}

}  // namespace e2e
