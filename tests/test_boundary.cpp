// Unit tests for faulty-block-information distribution (boundary lines).
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "fault/block_model.hpp"
#include "fault/fault_set.hpp"
#include "info/boundary.hpp"

namespace meshroute::info {
namespace {

using fault::BlockSet;
using fault::build_faulty_blocks;
using fault::FaultSet;

BlockSet single_block(const Mesh2D& mesh, const Rect& r) {
  return build_faulty_blocks(mesh, fault::rectangle_faults(mesh, r));
}

// ---- Reference: the per-step walk over per-node vectors -------------------
//
// The original map, kept as the oracle for the CSR store: one vector per
// node, a linear-scan dedupe per deposit, and every trail walked one step at
// a time. Deposits land in ascending block order, so each node's vector is
// the exact id sequence known_blocks(c) must return.
struct ReferenceDeposits {
  Grid<std::vector<std::int32_t>> entries;
  std::size_t deposited = 0;
  std::size_t covered = 0;

  ReferenceDeposits(const Mesh2D& mesh, const BlockSet& blocks)
      : entries(mesh.width(), mesh.height()) {
    const auto& blk = blocks.blocks();
    for (std::size_t b = 0; b < blk.size(); ++b) {
      const auto id = static_cast<std::int32_t>(b);
      const Rect r = blk[b].rect;
      const Rect ring = r.expanded(1);
      for (Dist x = ring.xmin; x <= ring.xmax; ++x) {
        for (const Dist y : {ring.ymin, ring.ymax}) {
          if (mesh.in_bounds({x, y})) deposit({x, y}, id);
        }
      }
      for (Dist y = ring.ymin + 1; y <= ring.ymax - 1; ++y) {
        for (const Dist x : {ring.xmin, ring.xmax}) {
          if (mesh.in_bounds({x, y})) deposit({x, y}, id);
        }
      }
      const Coord sw{r.xmin - 1, r.ymin - 1};
      const Coord se{r.xmax + 1, r.ymin - 1};
      const Coord nw{r.xmin - 1, r.ymax + 1};
      const Coord ne{r.xmax + 1, r.ymax + 1};
      walk(mesh, blocks, sw, Direction::West, Direction::South, id);
      walk(mesh, blocks, se, Direction::East, Direction::South, id);
      walk(mesh, blocks, ne, Direction::East, Direction::North, id);
      walk(mesh, blocks, nw, Direction::West, Direction::North, id);
      walk(mesh, blocks, sw, Direction::South, Direction::West, id);
      walk(mesh, blocks, nw, Direction::North, Direction::West, id);
      walk(mesh, blocks, ne, Direction::North, Direction::East, id);
      walk(mesh, blocks, se, Direction::South, Direction::East, id);
    }
  }

  void deposit(Coord c, std::int32_t block) {
    auto& v = entries[c];
    if (std::find(v.begin(), v.end(), block) != v.end()) return;
    if (v.empty()) ++covered;
    v.push_back(block);
    ++deposited;
  }

  void walk(const Mesh2D& mesh, const BlockSet& blocks, Coord start, Direction primary,
            Direction slide, std::int32_t block) {
    if (!mesh.in_bounds(start)) return;
    Coord cur = start;
    while (true) {
      const Coord ahead = neighbor(cur, primary);
      if (!mesh.in_bounds(ahead)) return;
      if (!blocks.is_block_node(ahead)) {
        cur = ahead;
      } else {
        const Coord aside = neighbor(cur, slide);
        if (!mesh.in_bounds(aside) || blocks.is_block_node(aside)) return;
        cur = aside;
      }
      deposit(cur, block);
    }
  }
};

/// The CSR store must hold exactly the reference's ids, in the same order,
/// at every node, and agree on knows() and both totals.
void expect_matches_reference(const Mesh2D& mesh, const BlockSet& blocks) {
  const ReferenceDeposits ref(mesh, blocks);
  const BoundaryInfoMap info(mesh, blocks);
  const auto nblocks = static_cast<std::int32_t>(blocks.block_count());
  mesh.for_each_node([&](Coord c) {
    const auto got = info.known_blocks(c);
    const std::vector<std::int32_t>& want = ref.entries[c];
    ASSERT_EQ(std::vector<std::int32_t>(got.begin(), got.end()), want) << to_string(c);
    for (const std::int32_t id : want) EXPECT_TRUE(info.knows(c, id)) << to_string(c);
    // Absent ids: the neighbours of every known id, and both ends of the range.
    for (const std::int32_t id : want) {
      for (const std::int32_t probe : {id - 1, id + 1}) {
        if (std::find(want.begin(), want.end(), probe) == want.end()) {
          EXPECT_FALSE(info.knows(c, probe)) << to_string(c) << " id " << probe;
        }
      }
    }
    if (want.empty()) {
      EXPECT_FALSE(info.knows(c, 0)) << to_string(c);
      EXPECT_FALSE(info.knows(c, nblocks - 1)) << to_string(c);
    }
    EXPECT_FALSE(info.knows(c, nblocks)) << to_string(c);
  });
  EXPECT_EQ(info.deposited_entries(), ref.deposited);
  EXPECT_EQ(info.covered_nodes(), ref.covered);
}

BlockSet rect_blocks(const Mesh2D& mesh, std::initializer_list<Rect> rects) {
  FaultSet fs(mesh);
  for (const Rect& r : rects) {
    const FaultSet block = fault::rectangle_faults(mesh, r);
    for (const Coord c : block.faults()) fs.add(c);
  }
  return build_faulty_blocks(mesh, fs);
}

TEST(BoundaryOracle, RandomizedWorldsMatchThePerStepWalk) {
  struct Shape {
    Dist w;
    Dist h;
  };
  // Degenerate strips, the smallest square, an odd size that straddles no
  // word, one that fills a word exactly, and the paper's 200x200 mesh.
  for (const Shape s : {Shape{1, 37}, Shape{37, 1}, Shape{2, 2}, Shape{17, 17}, Shape{64, 64},
                        Shape{200, 200}}) {
    const Mesh2D mesh(s.w, s.h);
    const auto area = static_cast<std::size_t>(s.w) * static_cast<std::size_t>(s.h);
    // k from empty to dense: a handful, the paper's range, then a third and
    // two thirds of the mesh.
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}, area / 50,
                                area / 10, area / 3, 2 * area / 3}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 7919 + k);
        const BlockSet blocks = build_faulty_blocks(mesh, fault::uniform_random_faults(mesh, k, rng));
        SCOPED_TRACE(testing::Message() << s.w << "x" << s.h << " k=" << k << " seed=" << seed);
        expect_matches_reference(mesh, blocks);
      }
    }
  }
}

TEST(BoundaryOracle, BlocksTouchingEveryMeshEdge) {
  const Mesh2D mesh(24, 20);
  // One block per edge, one per corner, and a whole-row/whole-column pair;
  // trails run into the edge, clip there, or start outside the mesh.
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{0, 2, 8, 10}}));     // west edge
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{21, 23, 5, 7}}));    // east edge
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{9, 12, 0, 1}}));     // south edge
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{6, 8, 18, 19}}));    // north edge
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{0, 1, 0, 1}, Rect{22, 23, 18, 19},
                                                    Rect{0, 2, 17, 19}, Rect{21, 23, 0, 3}}));
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{0, 23, 9, 10}}));    // spans W to E
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{11, 12, 0, 19}}));   // spans S to N
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{0, 3, 4, 6}, Rect{20, 23, 12, 15},
                                                    Rect{8, 10, 0, 2}, Rect{14, 17, 17, 19},
                                                    Rect{9, 12, 9, 11}}));
}

TEST(BoundaryOracle, TurnAndJoinStaircaseMatchesThePerStepWalk) {
  // The Figure 3 (b) world of TurnAndJoinStaircase below, plus a longer
  // staircase: each block's trails run into the next and slide around it.
  const Mesh2D mesh(16, 16);
  expect_matches_reference(mesh, rect_blocks(mesh, {Rect{5, 7, 9, 10}, Rect{3, 5, 4, 5}}));
  const Mesh2D big(40, 40);
  expect_matches_reference(big, rect_blocks(big, {Rect{30, 33, 30, 32}, Rect{26, 30, 24, 26},
                                                  Rect{21, 25, 18, 20}, Rect{15, 20, 12, 14},
                                                  Rect{9, 16, 6, 8}, Rect{4, 10, 1, 3}}));
}

TEST(Boundary, PerimeterRingKnowsTheBlock) {
  const Mesh2D mesh(12, 12);
  const BlockSet blocks = single_block(mesh, Rect{4, 6, 4, 6});
  const BoundaryInfoMap info(mesh, blocks);
  const Rect ring = Rect{4, 6, 4, 6}.expanded(1);
  for (Dist x = ring.xmin; x <= ring.xmax; ++x) {
    EXPECT_TRUE(info.knows({x, ring.ymin}, 0));
    EXPECT_TRUE(info.knows({x, ring.ymax}, 0));
  }
  for (Dist y = ring.ymin; y <= ring.ymax; ++y) {
    EXPECT_TRUE(info.knows({ring.xmin, y}, 0));
    EXPECT_TRUE(info.knows({ring.xmax, y}, 0));
  }
}

TEST(Boundary, TrailsReachTheMeshEdges) {
  // With a single block the four boundary lines run straight to the edges
  // in both directions (full-line coverage of L1, L2, L3, L4).
  const Mesh2D mesh(12, 12);
  const BlockSet blocks = single_block(mesh, Rect{4, 6, 4, 6});
  const BoundaryInfoMap info(mesh, blocks);
  for (Dist x = 0; x <= 11; ++x) {
    EXPECT_TRUE(info.knows({x, 3}, 0)) << "L1 at x=" << x;   // y = ymin-1
    EXPECT_TRUE(info.knows({x, 7}, 0)) << "L2 at x=" << x;   // y = ymax+1
  }
  for (Dist y = 0; y <= 11; ++y) {
    EXPECT_TRUE(info.knows({3, y}, 0)) << "L3 at y=" << y;   // x = xmin-1
    EXPECT_TRUE(info.knows({7, y}, 0)) << "L4 at y=" << y;   // x = xmax+1
  }
}

TEST(Boundary, OffLineNodesKnowNothing) {
  const Mesh2D mesh(12, 12);
  const BlockSet blocks = single_block(mesh, Rect{4, 6, 4, 6});
  const BoundaryInfoMap info(mesh, blocks);
  EXPECT_TRUE(info.known_blocks({0, 0}).empty());
  EXPECT_TRUE(info.known_blocks({1, 9}).empty());
  EXPECT_TRUE(info.known_blocks({9, 1}).empty());
  // Inside the block: trails never enter it.
  EXPECT_TRUE(info.known_blocks({5, 5}).empty());
}

TEST(Boundary, BlockAtMeshCornerClipsGracefully) {
  const Mesh2D mesh(8, 8);
  const BlockSet blocks = single_block(mesh, Rect{0, 1, 0, 1});
  const BoundaryInfoMap info(mesh, blocks);
  // Only the NE-side lines exist.
  for (Dist x = 0; x <= 7; ++x) EXPECT_TRUE(info.knows({x, 2}, 0));
  for (Dist y = 0; y <= 7; ++y) EXPECT_TRUE(info.knows({2, y}, 0));
  EXPECT_FALSE(info.knows({4, 4}, 0));
}

TEST(Boundary, TurnAndJoinStaircase) {
  // Block i's L3 (west column) runs south into block j and must slide west
  // along j's north row, then join j's own west column — the Figure 3 (b)
  // staircase.
  const Mesh2D mesh(16, 16);
  FaultSet fs(mesh);
  // Block i = [5:7, 9:10]; L3 of i is column 4 heading south from (4, 8).
  for (Dist x = 5; x <= 7; ++x)
    for (Dist y = 9; y <= 10; ++y) fs.add({x, y});
  // Block j = [3:5, 4:5]: column 4 runs into it at y = 5.
  for (Dist x = 3; x <= 5; ++x)
    for (Dist y = 4; y <= 5; ++y) fs.add({x, y});
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  ASSERT_EQ(blocks.block_count(), 2u);
  // Identify ids.
  const std::int32_t bi = blocks.block_id({5, 9});
  const std::int32_t bj = blocks.block_id({3, 4});
  ASSERT_NE(bi, bj);

  const BoundaryInfoMap info(mesh, blocks);
  // Straight part of i's L3 above j.
  EXPECT_TRUE(info.knows({4, 8}, bi));
  EXPECT_TRUE(info.knows({4, 7}, bi));
  EXPECT_TRUE(info.knows({4, 6}, bi));
  // Slide west along j's north row (y = 6).
  EXPECT_TRUE(info.knows({3, 6}, bi));
  EXPECT_TRUE(info.knows({2, 6}, bi));
  // Join j's L3 (column 2) and continue south to the edge.
  EXPECT_TRUE(info.knows({2, 5}, bi));
  EXPECT_TRUE(info.knows({2, 0}, bi));
  // The abandoned original column below j does NOT carry i's info.
  EXPECT_FALSE(info.knows({4, 2}, bi));
  // j's own L3 nodes know j as well -> shared staircase knows both blocks.
  EXPECT_TRUE(info.knows({2, 3}, bj));
  EXPECT_TRUE(info.knows({2, 3}, bi));
}

TEST(Boundary, DepositStatsAreConsistent) {
  const Mesh2D mesh(20, 20);
  Rng rng(3);
  const FaultSet fs = fault::uniform_random_faults(mesh, 12, rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  const BoundaryInfoMap info(mesh, blocks);
  std::size_t entries = 0;
  std::size_t covered = 0;
  mesh.for_each_node([&](Coord c) {
    const auto& v = info.known_blocks(c);
    entries += v.size();
    if (!v.empty()) ++covered;
    // No duplicates.
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t j = i + 1; j < v.size(); ++j) EXPECT_NE(v[i], v[j]);
    }
  });
  EXPECT_EQ(entries, info.deposited_entries());
  EXPECT_EQ(covered, info.covered_nodes());
  EXPECT_GT(covered, 0u);
}

TEST(Boundary, NoInfoEverDepositedOnBlockNodes) {
  const Mesh2D mesh(24, 24);
  Rng rng(9);
  const FaultSet fs = fault::uniform_random_faults(mesh, 40, rng);
  const BlockSet blocks = build_faulty_blocks(mesh, fs);
  const BoundaryInfoMap info(mesh, blocks);
  mesh.for_each_node([&](Coord c) {
    if (blocks.is_block_node(c)) {
      EXPECT_TRUE(info.known_blocks(c).empty()) << to_string(c);
    }
  });
}

}  // namespace
}  // namespace meshroute::info
