// Independent correctness checks of the benchmark. They take plain
// coordinates and byte planes, not the program's types, and share no code
// with the program: each one restates a property from the paper (or from the
// routing guarantees) and recomputes it directly.
//
//   monotone_path / monotone_reach — a minimal (monotone) path avoiding the
//       truly faulty nodes exists; the ground truth every "minimal" answer
//       must agree with.
//   definition1_closure — the least fixed point of Definition 1's disable
//       rule (a node with faulty or disabled neighbours in both dimensions
//       is disabled), by a work-list over the faults.
//   check_blocks — the blocks are Definition 1 closed and least: disjoint,
//       non-touching rectangles, each holding a fault, covering every fault,
//       no node outside them has block neighbours in both dimensions, and
//       their union is exactly definition1_closure of the faults.
//   check_safety — extended safety levels equal a direct row and column
//       scan for the nearest obstacle.
//   check_route_length — a delivered route walked |dx|+|dy| hops plus two
//       per detour.
//
// Every check returns an empty string on success and a one-line reason on
// failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Pt {
  int x = 0;
  int y = 0;
};

/// Inclusive rectangle [xmin, xmax] x [ymin, ymax].
struct Box {
  int xmin = 0;
  int xmax = 0;
  int ymin = 0;
  int ymax = 0;
};

/// Row-major byte plane (y * w + x); nonzero = set.
struct Plane {
  int w = 0;
  int h = 0;
  std::vector<std::uint8_t> v;

  Plane() = default;
  Plane(int width, int height) : w(width), h(height), v(static_cast<std::size_t>(width) * height, 0) {}
  [[nodiscard]] bool in(int x, int y) const { return x >= 0 && y >= 0 && x < w && y < h; }
  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return v[static_cast<std::size_t>(y) * w + x];
  }
  std::uint8_t& at(int x, int y) { return v[static_cast<std::size_t>(y) * w + x]; }
};

/// Plane of the given points set to 1.
[[nodiscard]] Plane plane_of(int w, int h, const std::vector<Pt>& pts);

/// Does a path from s to d exist that only steps toward d (every hop reduces
/// the distance) and never enters a nonzero cell of `blocked`? s and d must
/// themselves be clear.
[[nodiscard]] bool monotone_path(const Plane& blocked, Pt s, Pt d);

/// monotone_path(blocked, s, d) for every d at once (all four quadrants).
void monotone_reach(const Plane& blocked, Pt s, Plane& out);

/// Faulty plus disabled nodes: the least fixed point of Definition 1 over
/// the nonzero cells of `faulty`.
[[nodiscard]] Plane definition1_closure(const Plane& faulty);

/// `blocks` are the Definition 1 blocks of `faults` on a w x h mesh: closed
/// under the disable rule and no larger than its least fixed point. On
/// success `raster` holds the union of the blocks.
[[nodiscard]] std::string check_blocks(int w, int h, const std::vector<Pt>& faults,
                                       const std::vector<Box>& blocks, Plane& raster);

/// One node's extended safety level as the program reports it.
struct Level {
  int e = 0;
  int s = 0;
  int w = 0;
  int n = 0;
};

/// Compare `levels` (row-major, one per node) with a direct scan of
/// `obstacles`: E is the number of obstacle-free nodes east of the node
/// before the nearest obstacle, or `infinite` when the row is clear to the
/// mesh edge; likewise S, W, N.
[[nodiscard]] std::string check_safety(const Plane& obstacles, const std::vector<Level>& levels,
                                       int infinite);

/// hops == |dx| + |dy| + 2 * detours for a delivered route s -> d.
[[nodiscard]] std::string check_route_length(Pt s, Pt d, long hops, long detours);

}  // namespace e2e
