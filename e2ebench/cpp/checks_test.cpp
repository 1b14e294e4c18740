// Self-test of the benchmark's independent checks on small hand-made meshes
// whose answers are worked out by hand (in the comments next to each case).
// Exit code 0 when every case holds; each failure prints one line.
//
//   cmake --build .bench_build --target e2e_checks_test && .bench_build/e2e_checks_test
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

using e2e::Box;
using e2e::Level;
using e2e::Plane;
using e2e::Pt;

void test_monotone_path() {
  // 3x3 mesh, one fault in the centre:
  //   . . .
  //   . X .
  //   . . .
  // (0,0)->(2,2) goes round it along the border; so does every corner pair.
  const Plane centre = e2e::plane_of(3, 3, {{1, 1}});
  expect(e2e::monotone_path(centre, {0, 0}, {2, 2}), "centre fault: (0,0)->(2,2) exists");
  expect(e2e::monotone_path(centre, {2, 2}, {0, 0}), "centre fault: (2,2)->(0,0) exists");
  expect(e2e::monotone_path(centre, {0, 2}, {2, 0}), "centre fault: (0,2)->(2,0) exists");
  // Straight line through the fault has no monotone detour.
  expect(!e2e::monotone_path(centre, {0, 1}, {2, 1}), "centre fault: (0,1)->(2,1) blocked");

  // Both first hops out of (0,0) are faulty:
  //   . . .
  //   X . .
  //   S X .
  const Plane corner = e2e::plane_of(3, 3, {{1, 0}, {0, 1}});
  expect(!e2e::monotone_path(corner, {0, 0}, {2, 2}), "corner wall: (0,0)->(2,2) blocked");
  expect(e2e::monotone_path(corner, {2, 2}, {1, 1}), "corner wall: (2,2)->(1,1) exists");
  // A fault at the destination blocks everything.
  expect(!e2e::monotone_path(corner, {2, 2}, {1, 0}), "faulty destination is unreachable");
  expect(e2e::monotone_path(corner, {2, 2}, {2, 2}), "s == d is its own path");

  // The all-destination form agrees cell by cell with the single-pair form.
  const Plane wall = e2e::plane_of(4, 4, {{1, 1}, {2, 1}, {1, 2}, {3, 0}});
  Plane reach;
  e2e::monotone_reach(wall, {2, 2}, reach);
  bool same = true;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      same = same && (reach.at(x, y) != 0) == e2e::monotone_path(wall, {2, 2}, {x, y});
    }
  }
  expect(same, "monotone_reach equals monotone_path everywhere");
  // From (2,2): (0,0) needs a first hop to (1,2) or (2,1), both faulty.
  expect(reach.at(0, 0) == 0, "reach: (2,2)->(0,0) blocked");
  expect(reach.at(3, 3) != 0, "reach: (2,2)->(3,3) exists");
  expect(reach.at(3, 1) != 0, "reach: (2,2)->(3,1) exists via (3,2)");
}

void test_blocks() {
  // 5x5 mesh with faults (1,1) and (2,2). Definition 1 disables (2,1) (west
  // neighbour (1,1) faulty, north neighbour (2,2) faulty) and (1,2); the
  // closed block is the square [1,2] x [1,2].
  const std::vector<Pt> diag = {{1, 1}, {2, 2}};
  Plane raster;
  expect(e2e::check_blocks(5, 5, diag, {{1, 2, 1, 2}}, raster).empty(),
         "diagonal pair closes into one 2x2 block");
  expect(raster.at(2, 1) == 1 && raster.at(3, 3) == 0, "raster is the union of the blocks");
  // Two unit blocks are not closed: (2,1) has block neighbours west and north.
  expect(!e2e::check_blocks(5, 5, diag, {{1, 1, 1, 1}, {2, 2, 2, 2}}, raster).empty(),
         "two unit blocks on a diagonal violate the disable rule");
  // Far-apart single faults stay unit blocks.
  const std::vector<Pt> apart = {{0, 0}, {3, 3}};
  expect(e2e::check_blocks(5, 5, apart, {{0, 0, 0, 0}, {3, 3, 3, 3}}, raster).empty(),
         "separate faults give unit blocks");
  expect(!e2e::check_blocks(5, 5, apart, {{0, 0, 0, 0}}, raster).empty(),
         "an uncovered fault is reported");
  expect(!e2e::check_blocks(5, 5, apart, {{0, 0, 0, 0}, {3, 3, 3, 3}, {1, 4, 1, 4}}, raster)
              .empty(),
         "a block without a fault is reported");
  expect(!e2e::check_blocks(5, 5, apart, {{0, 1, 0, 0}, {1, 3, 0, 3}}, raster).empty(),
         "overlapping blocks are reported");
  // Faults (1,1) and (2,1) side by side form one 2x1 block, not two.
  const std::vector<Pt> pair = {{1, 1}, {2, 1}};
  expect(e2e::check_blocks(5, 5, pair, {{1, 2, 1, 1}}, raster).empty(),
         "adjacent faults share one block");
  expect(!e2e::check_blocks(5, 5, pair, {{1, 1, 1, 1}, {2, 2, 1, 1}}, raster).empty(),
         "touching blocks are reported");

  // Blocks larger than the rule forces are closed but not least. Faults
  // (0,0) and (3,3) force nothing. A 2x2 block [0,1] x [0,1] around (0,0)
  // still leaves every enabled node with block neighbours in one dimension
  // at most ((2,1) sees only (1,1) to the west, (1,2) only (1,1) below).
  expect(!e2e::check_blocks(5, 5, apart, {{0, 1, 0, 1}, {3, 3, 3, 3}}, raster).empty(),
         "an oversized block is reported");
  // One rectangle over the whole mesh holds both faults and leaves no node
  // enabled, so it is closed; it is far from least.
  expect(!e2e::check_blocks(5, 5, apart, {{0, 4, 0, 4}}, raster).empty(),
         "a block covering the whole mesh is reported");
}

void test_closure() {
  // 4x4 mesh, faults on the diagonal (0,0), (1,1), (2,2):
  //   . . . .        . . . .
  //   . . X .   ->   X X X .
  //   . X . .        X X X .
  //   X . . .        X X X .
  // First (1,0), (0,1), (2,1), (1,2) turn disabled (a faulty neighbour in
  // each dimension), then (2,0) (west (1,0), north (2,1)) and (0,2) (south
  // (0,1), east (1,2)). Nothing in column 3 or row 3 has neighbours in both
  // dimensions, so the least fixed point is the square [0,2] x [0,2].
  const std::vector<Pt> diag = {{0, 0}, {1, 1}, {2, 2}};
  const Plane least = e2e::definition1_closure(e2e::plane_of(4, 4, diag));
  bool square = true;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) square = square && (least.at(x, y) != 0) == (x <= 2 && y <= 2);
  }
  expect(square, "diagonal of three closes into the 3x3 square");
  Plane raster;
  expect(e2e::check_blocks(4, 4, diag, {{0, 2, 0, 2}}, raster).empty(),
         "the 3x3 square is the block of the diagonal");
  expect(!e2e::check_blocks(4, 4, diag, {{0, 3, 0, 2}}, raster).empty(),
         "a 4x3 block over the diagonal is reported");
  // A lone fault stays a unit block.
  const Plane lone = e2e::definition1_closure(e2e::plane_of(4, 4, {{1, 2}}));
  int cells = 0;
  for (const std::uint8_t v : lone.v) cells += v != 0 ? 1 : 0;
  expect(cells == 1 && lone.at(1, 2) != 0, "a lone fault disables nothing");
}

void test_safety() {
  constexpr int kInf = 1000;
  // 5x1 row with an obstacle at x = 3:   . . . X .
  //   E: x=0 -> 2, x=1 -> 1, x=2 -> 0, x=3 -> inf (x=4 clear to the edge), x=4 -> inf
  //   W: x=0..3 -> inf (clear to the west edge), x=4 -> 0
  //   N, S: inf everywhere (one row)
  const Plane row = e2e::plane_of(5, 1, {{3, 0}});
  std::vector<Level> want = {{2, kInf, kInf, kInf},
                             {1, kInf, kInf, kInf},
                             {0, kInf, kInf, kInf},
                             {kInf, kInf, kInf, kInf},
                             {kInf, kInf, 0, kInf}};
  expect(e2e::check_safety(row, want, kInf).empty(), "row scan matches the hand table");
  std::vector<Level> wrong = want;
  wrong[1].e = 2;
  expect(!e2e::check_safety(row, wrong, kInf).empty(), "a wrong E level is reported");

  // 1x4 column with an obstacle at y = 1:   y=3 .  y=2 .  y=1 X  y=0 .
  //   N: y=0 -> 0 (the obstacle is its north neighbour), y=1..3 -> inf
  //   S: y=0 -> inf, y=1 -> inf, y=2 -> 0, y=3 -> 1
  const Plane col = e2e::plane_of(1, 4, {{0, 1}});
  std::vector<Level> colwant = {{kInf, kInf, kInf, 0},
                                {kInf, kInf, kInf, kInf},
                                {kInf, 0, kInf, kInf},
                                {kInf, 1, kInf, kInf}};
  expect(e2e::check_safety(col, colwant, kInf).empty(), "column scan matches the hand table");
  colwant[3].s = kInf;
  expect(!e2e::check_safety(col, colwant, kInf).empty(), "a wrong S level is reported");
}

void test_route_length() {
  // (0,0)->(3,2): distance 5. Minimal walk: 5 hops; one detour: 7 hops.
  expect(e2e::check_route_length({0, 0}, {3, 2}, 5, 0).empty(), "minimal walk");
  expect(e2e::check_route_length({0, 0}, {3, 2}, 7, 1).empty(), "one detour adds two hops");
  expect(!e2e::check_route_length({0, 0}, {3, 2}, 6, 0).empty(), "odd excess is reported");
  expect(e2e::check_route_length({3, 2}, {0, 0}, 5, 0).empty(), "reverse direction");
}

}  // namespace

int main() {
  test_monotone_path();
  test_blocks();
  test_closure();
  test_safety();
  test_route_length();
  if (failures == 0) std::printf("e2e checks self-test: all cases passed\n");
  return failures == 0 ? 0 : 1;
}
