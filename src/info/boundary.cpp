#include "info/boundary.hpp"

#include <algorithm>
#include <bit>

#include "common/bitgrid.hpp"

namespace meshroute::info {

namespace {

/// `len` deposits of `block` at the flat node indices start, start+step, ...
struct Run {
  std::int32_t block;
  std::int64_t start;
  std::int64_t step;
  Dist len;
};

/// First set bit of row `r` in [from, len), or `len` (tail bits are zero).
Dist first_set_from(const std::uint64_t* r, Dist from, Dist len) noexcept {
  if (from >= len) return len;
  const std::size_t nw = (static_cast<std::size_t>(len) + 63) / 64;
  std::size_t j = static_cast<std::size_t>(from) >> 6;
  std::uint64_t w = r[j] & (~std::uint64_t{0} << (from & 63));
  while (w == 0) {
    if (++j >= nw) return len;
    w = r[j];
  }
  return static_cast<Dist>(j * 64 + static_cast<std::size_t>(std::countr_zero(w)));
}

/// Last set bit of row `r` in [0, to), or -1.
Dist last_set_before(const std::uint64_t* r, Dist to) noexcept {
  if (to <= 0) return -1;
  std::size_t j = static_cast<std::size_t>(to - 1) >> 6;
  std::uint64_t w = r[j] & (~std::uint64_t{0} >> (63 - ((to - 1) & 63)));
  while (w == 0) {
    if (j == 0) return -1;
    w = r[--j];
  }
  return static_cast<Dist>(j * 64 + 63 - static_cast<std::size_t>(std::countl_zero(w)));
}

/// Turns a block world's perimeter rings and boundary trails into runs.
/// `rows_` is the block union (bit x of row y) and `cols_` its transpose
/// (bit y of row x), so a run in any direction stops at a word scan.
class TrailWalker {
 public:
  TrailWalker(const Mesh2D& mesh, const fault::BlockSet& blocks, std::vector<Run>& runs)
      : w_(mesh.width()), h_(mesh.height()), rows_(w_, h_), cols_(h_, w_), runs_(runs) {
    for (const fault::FaultyBlock& b : blocks.blocks()) {
      const Rect& r = b.rect;
      for (Dist y = r.ymin; y <= r.ymax; ++y) core::row_range_set(rows_.row(y), r.xmin, r.xmax);
      for (Dist x = r.xmin; x <= r.xmax; ++x) core::row_range_set(cols_.row(x), r.ymin, r.ymax);
    }
  }

  /// Perimeter ring: nodes adjacent to the block, including the four
  /// diagonal corner nodes (the "corners" of Definition 1's adjacency
  /// discussion), clipped to the mesh.
  void ring(const Rect& block, std::int32_t id) {
    const Rect g = block.expanded(1);
    const Dist x0 = std::max<Dist>(g.xmin, 0);
    const Dist x1 = std::min<Dist>(g.xmax, w_ - 1);
    for (const Dist y : {g.ymin, g.ymax}) {
      if (y >= 0 && y < h_) emit({x0, y}, Direction::East, x1 - x0 + 1, id);
    }
    const Dist y0 = std::max<Dist>(g.ymin + 1, 0);
    const Dist y1 = std::min<Dist>(g.ymax - 1, h_ - 1);
    for (const Dist x : {g.xmin, g.xmax}) {
      if (x >= 0 && x < w_) emit({x, y0}, Direction::North, y1 - y0 + 1, id);
    }
  }

  /// Walk a boundary trail from `start` with primary direction `primary`,
  /// sliding in `slide` around blocks (turn-and-join). The start corner is
  /// the ring's; every node after it is deposited.
  void trail(Coord start, Direction primary, Direction slide, std::int32_t id) {
    if (!in_bounds(start)) return;
    const Coord p = step(primary);
    const Coord s = step(slide);
    Coord cur = start;
    while (true) {
      const Dist clear = clear_ahead(cur, primary);
      emit(cur + p, primary, clear, id);
      cur = {cur.x + p.x * clear, cur.y + p.y * clear};
      if (!in_bounds(cur + p)) return;
      // A block is ahead: turn toward its own line, one slide step per
      // round until the primary direction clears (a still-blocked round
      // has a zero-length run). At the disable-rule fixed point a slide
      // step is never itself blocked; guard anyway (and stop at the edge).
      const Coord aside = cur + s;
      if (!in_bounds(aside) || rows_.test(aside)) return;
      emit(aside, slide, 1, id);
      cur = aside;
    }
  }

 private:
  [[nodiscard]] bool in_bounds(Coord c) const noexcept {
    return c.x >= 0 && c.x < w_ && c.y >= 0 && c.y < h_;
  }

  /// In-mesh, block-free nodes straight ahead of `c` in direction `d`.
  [[nodiscard]] Dist clear_ahead(Coord c, Direction d) const noexcept {
    switch (d) {
      case Direction::East: return first_set_from(rows_.row(c.y), c.x + 1, w_) - c.x - 1;
      case Direction::West: return c.x - last_set_before(rows_.row(c.y), c.x) - 1;
      case Direction::North: return first_set_from(cols_.row(c.x), c.y + 1, h_) - c.y - 1;
      case Direction::South: return c.y - last_set_before(cols_.row(c.x), c.y) - 1;
    }
    return 0;  // unreachable
  }

  void emit(Coord first, Direction d, Dist len, std::int32_t id) {
    if (len <= 0) return;
    const Coord s = step(d);
    runs_.push_back(Run{id, static_cast<std::int64_t>(first.y) * w_ + first.x,
                        static_cast<std::int64_t>(s.y) * w_ + s.x, len});
  }

  Dist w_;
  Dist h_;
  core::BitGrid rows_;
  core::BitGrid cols_;
  std::vector<Run>& runs_;
};

}  // namespace

BoundaryInfoMap::BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks)
    : width_(mesh.width()) {
  const auto& blk = blocks.blocks();
  std::vector<Run> runs;
  runs.reserve(blk.size() * 16);
  {
    TrailWalker walk(mesh, blocks, runs);
    for (std::size_t b = 0; b < blk.size(); ++b) {
      const auto id = static_cast<std::int32_t>(b);
      const Rect r = blk[b].rect;
      walk.ring(r, id);
      // Outward trails. Each adjacent line propagates in both directions so
      // that routing toward any quadrant is served; the slide direction
      // points away from the owning block, per the turn-and-join rule.
      const Coord sw{r.xmin - 1, r.ymin - 1};
      const Coord se{r.xmax + 1, r.ymin - 1};
      const Coord nw{r.xmin - 1, r.ymax + 1};
      const Coord ne{r.xmax + 1, r.ymax + 1};
      // L1 (south row, y = ymin-1): west from SW, east from SE; slide south.
      walk.trail(sw, Direction::West, Direction::South, id);
      walk.trail(se, Direction::East, Direction::South, id);
      // L2 (north row, y = ymax+1): east from NE, west from NW; slide north.
      walk.trail(ne, Direction::East, Direction::North, id);
      walk.trail(nw, Direction::West, Direction::North, id);
      // L3 (west column, x = xmin-1): south from SW, north from NW; slide west.
      walk.trail(sw, Direction::South, Direction::West, id);
      walk.trail(nw, Direction::North, Direction::West, id);
      // L4 (east column, x = xmax+1): north from NE, south from SE; slide east.
      walk.trail(ne, Direction::North, Direction::East, id);
      walk.trail(se, Direction::South, Direction::East, id);
    }
  }

  // Runs arrive block by block in ascending id order, so a per-node stamp
  // of the last block seen dedupes a block's overlapping trails, and each
  // node's slice comes out ascending. Pass 1 stamps `b` and counts; pass 2
  // stamps `~b` (never a pass-1 value) and fills, with the count turned
  // into the node's write cursor. Stamp and count share a cache line.
  struct Slot {
    std::int32_t stamp;
    std::uint32_t n;
  };
  const std::size_t nodes = static_cast<std::size_t>(mesh.width()) *
                            static_cast<std::size_t>(mesh.height());
  std::vector<Slot> slot(nodes, Slot{fault::kNoBlock, 0});
  for (const Run& r : runs) {
    std::int64_t i = r.start;
    for (Dist k = 0; k < r.len; ++k, i += r.step) {
      Slot& s = slot[static_cast<std::size_t>(i)];
      if (s.stamp == r.block) continue;
      s.stamp = r.block;
      ++s.n;
    }
  }
  offsets_.resize(nodes + 1);
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    offsets_[i] = total;
    if (slot[i].n != 0) ++covered_;
    total += slot[i].n;
    slot[i].n = offsets_[i];
  }
  offsets_[nodes] = total;
  ids_.resize(total);
  for (const Run& r : runs) {
    const std::int32_t mark = ~r.block;
    std::int64_t i = r.start;
    for (Dist k = 0; k < r.len; ++k, i += r.step) {
      Slot& s = slot[static_cast<std::size_t>(i)];
      if (s.stamp == mark) continue;
      s.stamp = mark;
      ids_[s.n++] = r.block;
    }
  }
}

bool BoundaryInfoMap::knows(Coord c, std::int32_t block) const noexcept {
  const std::span<const std::int32_t> ids = known_blocks(c);
  return std::binary_search(ids.begin(), ids.end(), block);
}

}  // namespace meshroute::info
