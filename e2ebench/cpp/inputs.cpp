#include "inputs.hpp"

#include <fstream>

namespace e2e {

std::uint64_t Gen::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t substream(std::uint64_t seed, std::uint64_t i) {
  Gen g(seed * 0x100000001b3ULL + i);
  g.next();
  return g.next();
}

std::vector<Pt> fresh_faults(Gen& g, int k, Plane& taken) {
  std::vector<Pt> out;
  out.reserve(static_cast<std::size_t>(k));
  while (static_cast<int>(out.size()) < k) {
    const Pt c = g.point();
    if (taken.at(c.x, c.y) != 0) continue;
    taken.at(c.x, c.y) = 1;
    out.push_back(c);
  }
  return out;
}

std::vector<Pt> pivot_set(Gen& g) {
  std::vector<Pt> out;
  for (int parts = 1; parts <= 4; parts *= 2) {
    const int span = kSide / parts;
    for (int j = 0; j < parts; ++j) {
      for (int i = 0; i < parts; ++i) {
        out.push_back({i * span + g.below(span), j * span + g.below(span)});
      }
    }
  }
  return out;
}

namespace {

/// src -> dst across `f`: both endpoints 2..25 hops off `f` on opposite
/// sides, in a random quadrant orientation, neither of them faulty.
void route_across(Gen& g, Pt f, const Plane& faulty, Pt& src, Pt& dst) {
  const auto clamp = [](int v) { return v < 0 ? 0 : (v >= kSide ? kSide - 1 : v); };
  for (;;) {
    const int sx = g.below(2) == 0 ? -1 : 1;
    const int sy = g.below(2) == 0 ? -1 : 1;
    src = {clamp(f.x - sx * (2 + g.below(24))), clamp(f.y - sy * (2 + g.below(24)))};
    dst = {clamp(f.x + sx * (2 + g.below(24))), clamp(f.y + sy * (2 + g.below(24)))};
    if (faulty.at(src.x, src.y) == 0 && faulty.at(dst.x, dst.y) == 0 &&
        (src.x != dst.x || src.y != dst.y)) {
      return;
    }
  }
}

}  // namespace

ChurnWorld make_churn_world(std::uint64_t seed, int world, int generation) {
  Gen g(substream(seed, static_cast<std::uint64_t>(generation) * kChurnWorlds +
                            static_cast<std::uint64_t>(world)));
  Plane faulty(kSide, kSide);
  ChurnWorld out;
  out.seed_faults = fresh_faults(g, 20 + 36 * world, faulty);
  std::vector<Pt> all = out.seed_faults;
  int inject_lines = 0;
  for (int r = 0; r < kChurnLife; ++r) {
    for (int s = 0; s < kChurnStepsPerRound; ++s) {
      ChurnStep step;
      step.flight = s == kChurnInjectsPerRound;
      if (step.flight) {
        step.sites = fresh_faults(g, kChurnFlight, faulty);
      } else if (++inject_lines % 5 == 0) {
        // A duplicate report: the node is already faulty, hence inside a block.
        step.sites = {all[static_cast<std::size_t>(g.below(static_cast<int>(all.size())))]};
      } else {
        step.sites = fresh_faults(g, 1, faulty);
      }
      for (const Pt c : step.sites) all.push_back(c);
      route_across(g, step.sites.back(), faulty, step.src, step.dst);
      out.steps.push_back(std::move(step));
    }
  }
  return out;
}

std::vector<QueryWorld> make_query(std::uint64_t seed) {
  std::vector<QueryWorld> worlds(kQueryWorlds);
  for (int w = 0; w < kQueryWorlds; ++w) {
    Gen g(substream(seed, 100 + static_cast<std::uint64_t>(w)));
    QueryWorld& world = worlds[static_cast<std::size_t>(w)];
    world.mcc = w % 2 == 1;
    Plane faulty(kSide, kSide);
    // Two mid-range and two full-range worlds, each restarted from a journal
    // of 50 injections on top of its seed faults.
    world.seed_faults = fresh_faults(g, w < 2 ? 100 : 200, faulty);
    world.journal = fresh_faults(g, 50, faulty);
    world.pivots = pivot_set(g);
    const Plane blocked = definition1_closure(faulty);
    world.pairs.reserve(kQueryPairs);
    while (static_cast<int>(world.pairs.size()) < kQueryPairs) {
      const Pt s = g.point();
      const Pt d = g.point();
      if (blocked.at(s.x, s.y) != 0 || blocked.at(d.x, d.y) != 0) continue;
      if (s.x == d.x && s.y == d.y) continue;
      world.pairs.push_back({s, d});
    }
  }
  return worlds;
}

std::string journal_text(const QueryWorld& w) {
  std::string out;
  for (std::size_t i = 0; i < w.journal.size(); ++i) {
    out += "inject=" + std::to_string(i + 1) + ":" + std::to_string(w.journal[i].x) + "," +
           std::to_string(w.journal[i].y) + "\n";
  }
  return out;
}

std::uint64_t sweep_seed(std::uint64_t seed, int i) {
  return substream(seed ^ 0x5eed2002ULL, 1000 + static_cast<std::uint64_t>(i));
}

std::uint64_t sweep_setup_seed(std::uint64_t seed, int rep) {
  return substream(seed ^ 0x5eed2002ULL, 101000 + static_cast<std::uint64_t>(rep));
}

std::string inject_line(Pt c) {
  return "INJECT " + std::to_string(c.x) + " " + std::to_string(c.y);
}

std::string query_line(const char* verb, Pt s, Pt d) {
  return std::string(verb) + " " + std::to_string(s.x) + " " + std::to_string(s.y) + " " +
         std::to_string(d.x) + " " + std::to_string(d.y);
}

namespace {

void write_points(std::ofstream& out, const std::vector<Pt>& pts) {
  for (const Pt c : pts) out << c.x << " " << c.y << "\n";
}

}  // namespace

bool write_inputs(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  const std::string base = dir + "/" + workload;
  if (workload == "serve_churn") {
    for (int i = 0; i < kChurnGenerations * kChurnWorlds; ++i) {
      const ChurnWorld world = make_churn_world(seed, i % kChurnWorlds, i / kChurnWorlds);
      const std::string stem = base + "_gen" + std::to_string(i / kChurnWorlds) + "_world" +
                               std::to_string(i % kChurnWorlds);
      std::ofstream faults(stem + ".faults");
      write_points(faults, world.seed_faults);
      // FLIGHT lists the sites of one enqueue/flush flight (the benchmark's
      // notation; the wire protocol has no flight command).
      std::ofstream script(stem + ".script");
      for (const ChurnStep& step : world.steps) {
        if (step.flight) {
          script << "FLIGHT";
          for (const Pt c : step.sites) script << " " << c.x << " " << c.y;
          script << "\n";
        } else {
          script << inject_line(step.sites.front()) << "\n";
        }
        script << "EPOCH\n" << query_line("ROUTE", step.src, step.dst) << "\n";
      }
      if (!faults || !script) return false;
    }
    return true;
  }
  if (workload == "serve_query") {
    const std::vector<QueryWorld> worlds = make_query(seed);
    for (std::size_t w = 0; w < worlds.size(); ++w) {
      const QueryWorld& world = worlds[w];
      const std::string stem = base + "_world" + std::to_string(w);
      std::ofstream faults(stem + ".faults");
      write_points(faults, world.seed_faults);
      std::ofstream journal(stem + ".journal");
      journal << journal_text(world);
      std::ofstream pivots(stem + ".pivots");
      write_points(pivots, world.pivots);
      std::ofstream script(stem + ".script");
      script << "# model " << (world.mcc ? "mcc" : "fb") << ", strategy s4, segment 5\n";
      for (const auto& p : world.pairs) {
        script << query_line("DECIDE", p[0], p[1]) << "\n"
               << query_line("ROUTE", p[0], p[1]) << "\n";
      }
      if (!faults || !journal || !pivots || !script) return false;
    }
    return true;
  }
  if (workload == "paper_sweep") {
    std::ofstream cfg(base + ".config");
    cfg << "# SweepConfig of each repetition: n=200 trials=60 dests=40 threads=1\n"
        << "# fault counts k = 10, 20, ..., 200; one line per repetition seed\n"
        << "# (a run cycles through them), then one per cold set-up sweep (trials=3)\n"
        << std::hex;
    for (int i = 0; i < kSweepReps; ++i) cfg << "seed=0x" << sweep_seed(seed, i) << "\n";
    for (int i = 0; i < kSweepSetupReps; ++i) {
      cfg << "setup_seed=0x" << sweep_setup_seed(seed, i) << "\n";
    }
    return static_cast<bool>(cfg);
  }
  return false;
}

}  // namespace e2e
