// Faulty-block-information distribution (Section 2, Figures 3 and 6).
//
// Each block's corner coordinates are deposited on:
//   * its perimeter ring (the nodes adjacent to the block — they can sense
//     the block directly), and
//   * the four boundary lines L1..L4 extending outward from the SW and NE
//     corners (and, for full four-quadrant generality, from the SE and NW
//     corners as well — the paper describes the quadrant-I subset).
// When a boundary line runs into another block it turns and joins the
// corresponding line of that block ("turn-and-join", Figure 3 (b)); the walk
// below realizes that rule by sliding along the encountered block's adjacent
// line until the primary direction clears, which reproduces the staircase
// trails of the paper.
//
// Storage is a flat CSR table: offsets[w·h+1] into one ids[] array, so a
// node's deposits are one contiguous, ascending slice and a whole map is two
// allocations. The build walks every trail as straight runs (the stop of a
// run is a word scan of the block plane) and fills the table in two passes
// over those runs: count, prefix sum, fill (DESIGN §7).
//
// Routing then needs *only* the block information stored at the node a packet
// currently occupies (see route/router.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/coord.hpp"
#include "fault/block_model.hpp"
#include "mesh/mesh2d.hpp"

namespace meshroute::info {

/// Per-node store of which blocks are known there (ids into BlockSet).
class BoundaryInfoMap {
 public:
  /// Build the full (all-quadrant) distribution for `blocks`.
  BoundaryInfoMap(const Mesh2D& mesh, const fault::BlockSet& blocks);

  /// Ids of blocks whose information is stored at `c` (ascending, unique).
  [[nodiscard]] std::span<const std::int32_t> known_blocks(Coord c) const noexcept {
    const std::size_t i = static_cast<std::size_t>(c.y) * static_cast<std::size_t>(width_) +
                          static_cast<std::size_t>(c.x);
    return {ids_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  [[nodiscard]] bool knows(Coord c, std::int32_t block) const noexcept;

  /// Total (node, block) pairs deposited — the memory cost of the model.
  [[nodiscard]] std::size_t deposited_entries() const noexcept { return ids_.size(); }

  /// Number of nodes storing at least one entry.
  [[nodiscard]] std::size_t covered_nodes() const noexcept { return covered_; }

 private:
  Dist width_;
  std::vector<std::uint32_t> offsets_;  ///< node i owns ids_[offsets_[i], offsets_[i+1])
  std::vector<std::int32_t> ids_;
  std::size_t covered_ = 0;
};

}  // namespace meshroute::info
