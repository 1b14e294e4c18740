// Seeded input generation for the three workloads. Every input the program
// receives — fault worlds, INJECT streams and flights, query pairs, journal
// files, pivot sets and sweep seeds — is a pure function of the workload seed,
// made with the benchmark's own generator (SplitMix64), so the same seed
// gives byte-identical inputs on every machine. `e2e_bench gen` writes them
// out as files.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace e2e {

/// The paper's Section 5 mesh side.
inline constexpr int kSide = 200;

/// SplitMix64 stream.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  Pt point() { return {below(kSide), below(kSide)}; }

 private:
  std::uint64_t state_;
};

/// Seed of the i-th sub-stream of `seed` (one per world, per sweep, ...).
[[nodiscard]] std::uint64_t substream(std::uint64_t seed, std::uint64_t i);

/// `k` distinct fault sites, none in `taken` (which gains them).
[[nodiscard]] std::vector<Pt> fresh_faults(Gen& g, int k, Plane& taken);

/// The paper's extension-3 pivot set at partition level 3 over the whole
/// mesh: one random pivot per region of levels 1..3 (1 + 4 + 16 = 21).
[[nodiscard]] std::vector<Pt> pivot_set(Gen& g);

// ---- serve_churn ----------------------------------------------------------

/// One write of a churn world: a single INJECT line, or a flight of queued
/// injections. Either is followed by EPOCH and by ROUTE src -> dst across
/// the last injected site.
struct ChurnStep {
  bool flight = false;
  std::vector<Pt> sites;
  Pt src;
  Pt dst;
};

struct ChurnWorld {
  std::vector<Pt> seed_faults;
  std::vector<ChurnStep> steps;  ///< kChurnStepsPerRound per round, in order
};

inline constexpr int kChurnWorlds = 6;
inline constexpr int kChurnInjectsPerRound = 4;  ///< INJECT lines per world per round
inline constexpr int kChurnFlight = 4;           ///< injections per flight
inline constexpr int kChurnStepsPerRound = kChurnInjectsPerRound + 1;
/// Rounds one world lives before the next generation of that world (fresh
/// seed faults) replaces it, so the fault counts served stay in the paper's
/// range however many rounds a run completes.
inline constexpr int kChurnLife = 6;
/// Distinct generations of each world. A run that outlives them starts over
/// at generation 0, so the inputs are a finite set that `gen` writes whole.
inline constexpr int kChurnGenerations = 16;

/// Generation `generation` of churn world `world` (0 <= world < kChurnWorlds):
/// 20 + 36 * world seed faults (20..200, the paper's range, evenly covered)
/// and kChurnLife rounds of steps. Every fifth INJECT line repeats a site
/// that is already faulty (a duplicate fault report).
[[nodiscard]] ChurnWorld make_churn_world(std::uint64_t seed, int world, int generation);

// ---- serve_query ----------------------------------------------------------

struct QueryWorld {
  bool mcc = false;                 ///< served under the MCC model (else faulty blocks)
  std::vector<Pt> seed_faults;      ///< the restarted server's epoch-0 world
  std::vector<Pt> journal;          ///< journaled injections, epochs 1..size()
  std::vector<Pt> pivots;           ///< extension-3 pivot set of the server
  std::vector<std::array<Pt, 2>> pairs;  ///< each is asked as DECIDE, then ROUTE
};

inline constexpr int kQueryWorlds = 4;
inline constexpr int kQueryPairsPerRound = 20;  ///< per world per round
inline constexpr int kQueryPairs = 1200;        ///< stream length; rounds cycle over it

/// Worlds alternate faulty-block and MCC serving; endpoints lie outside
/// every block (of the full world, seed plus journal) and s != d.
[[nodiscard]] std::vector<QueryWorld> make_query(std::uint64_t seed);

/// The journal file of a world: `inject=E:X,Y` for E = 1..n.
[[nodiscard]] std::string journal_text(const QueryWorld& w);

// ---- paper_sweep ----------------------------------------------------------

/// Distinct sweep repetitions; a run that outlives them starts over at 0.
inline constexpr int kSweepReps = 64;

/// Base seed of sweep repetition i (0 <= i < kSweepReps) of a run.
[[nodiscard]] std::uint64_t sweep_seed(std::uint64_t seed, int i);

/// Cold set-ups per run: a fresh SweepRunner building the first
/// kSweepSetupTrials trials of every grid point, each set-up on its own seed.
/// One trial per point (~8 ms) spread 33-40% between runs, mostly from the
/// first allocations of a fresh workspace; three dilute that.
inline constexpr int kSweepSetupReps = 15;
inline constexpr int kSweepSetupTrials = 3;

/// Seed of set-up sweep `rep` (0 <= rep < kSweepSetupReps).
[[nodiscard]] std::uint64_t sweep_setup_seed(std::uint64_t seed, int rep);

// ---- request lines ----------------------------------------------------------

[[nodiscard]] std::string inject_line(Pt c);
[[nodiscard]] std::string query_line(const char* verb, Pt s, Pt d);

/// Write every input of `workload` for `seed` into `dir` (created by the
/// caller): request scripts, journals, pivots and the sweep configuration.
/// Returns false on an unknown workload or an I/O error.
bool write_inputs(const std::string& workload, std::uint64_t seed, const std::string& dir);

}  // namespace e2e
