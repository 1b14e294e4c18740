#include "serve/snapshot.hpp"

#include <algorithm>

#include "cond/wang.hpp"
#include "dynamic/dynamic_state.hpp"
#include "info/safety_level.hpp"

namespace meshroute::serve {

namespace {

/// Package the incremental maintainer's rectangle list as a BlockSet (the
/// labeled, id-mapped form the boundary walks and the ladder consume).
/// Rectangles are sorted (ymin, xmin) so snapshot content is a pure function
/// of the fault set, never of injection order.
fault::BlockSet block_set_from_state(const dynamic::DynamicMeshState& state) {
  std::vector<Rect> rects = state.blocks();
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return a.ymin != b.ymin ? a.ymin < b.ymin : a.xmin < b.xmin;
  });
  const Mesh2D& mesh = state.mesh();
  Grid<fault::NodeLabel> labels(mesh.width(), mesh.height(), fault::NodeLabel::Enabled);
  std::vector<fault::FaultyBlock> blocks;
  blocks.reserve(rects.size());
  for (const Rect& r : rects) {
    fault::FaultyBlock b{r, 0, 0};
    for (Dist y = r.ymin; y <= r.ymax; ++y) {
      for (Dist x = r.xmin; x <= r.xmax; ++x) {
        const Coord c{x, y};
        if (state.faults().contains(c)) {
          labels[c] = fault::NodeLabel::Faulty;
          ++b.faulty_count;
        } else {
          labels[c] = fault::NodeLabel::Disabled;
          ++b.disabled_count;
        }
      }
    }
    blocks.push_back(b);
  }
  return fault::BlockSet(mesh, std::move(blocks), std::move(labels));
}

fault::BlockSet build_blocks_scratch(const Mesh2D& mesh, const fault::FaultSet& faults,
                                     fault::BlockScratch& scratch) {
  fault::BlockSet out;
  fault::build_faulty_blocks(mesh, faults, out, scratch);
  return out;
}

}  // namespace

RoutingSnapshot::World::World(const Mesh2D& mesh_in, const fault::FaultSet& faults_in,
                              SnapshotScratch& scratch)
    : mesh(mesh_in),
      faults(faults_in),
      blocks(build_blocks_scratch(mesh, faults, scratch.block)),
      boundary(mesh, blocks) {
  info::obstacle_mask(mesh, blocks, fb_mask);
#if defined(MESHROUTE_FORCE_SCALAR)
  info::compute_safety_levels(mesh, fb_mask, fb_safety);
#else
  // The block builder leaves its final obstacle plane (the union of the
  // block rects) in the scratch; feed it straight into the safety sweep.
  info::compute_safety_levels(mesh, scratch.block.bad_plane, fb_safety);
#endif
  finish_derived(scratch);
}

RoutingSnapshot::World::World(const dynamic::DynamicMeshState& state, SnapshotScratch& scratch)
    : mesh(state.mesh()),
      faults(state.faults()),
      blocks(block_set_from_state(state)),
      boundary(mesh, blocks) {
  // The expensive faulty-block fixpoints arrive pre-maintained in O(|delta|)
  // per injection; adopting them here is two flat plane copies.
  fb_mask = state.obstacle_mask();
  fb_safety = state.safety();
  finish_derived(scratch);
}

RoutingSnapshot::World::World(const Mesh2D& mesh_in, SnapshotParts parts)
    : mesh(mesh_in),
      faults(std::move(parts.faults)),
      blocks(std::move(parts.blocks)),
      mcc1(std::move(parts.mcc1)),
      mcc2(std::move(parts.mcc2)),
      boundary(mesh, blocks),
      fb_safety(std::move(parts.fb_safety)),
      mcc1_safety(std::move(parts.mcc1_safety)),
      mcc2_safety(std::move(parts.mcc2_safety)) {
  faulty_mask = faults.mask();
  info::obstacle_mask(mesh, blocks, fb_mask);
  info::obstacle_mask(mesh, mcc1, mcc1_mask);
  info::obstacle_mask(mesh, mcc2, mcc2_mask);
}

void RoutingSnapshot::World::finish_derived(SnapshotScratch& scratch) {
  faulty_mask = faults.mask();
  fault::build_mcc(mesh, faults, fault::MccKind::TypeOne, mcc1, scratch.mcc1);
  fault::build_mcc(mesh, faults, fault::MccKind::TypeTwo, mcc2, scratch.mcc2);
  info::obstacle_mask(mesh, mcc1, mcc1_mask);
  info::obstacle_mask(mesh, mcc2, mcc2_mask);
#if defined(MESHROUTE_FORCE_SCALAR)
  info::compute_safety_levels(mesh, mcc1_mask, mcc1_safety);
  info::compute_safety_levels(mesh, mcc2_mask, mcc2_safety);
#else
  info::compute_safety_levels(mesh, scratch.mcc1.labeled_plane, mcc1_safety);
  info::compute_safety_levels(mesh, scratch.mcc2.labeled_plane, mcc2_safety);
#endif
}

RoutingSnapshot::RoutingSnapshot(const Mesh2D& mesh, const fault::FaultSet& faults,
                                 std::uint64_t epoch, SnapshotScratch& scratch)
    : epoch_(epoch), world_(std::make_shared<const World>(mesh, faults, scratch)) {}

RoutingSnapshot::RoutingSnapshot(const dynamic::DynamicMeshState& state, std::uint64_t epoch,
                                 SnapshotScratch& scratch)
    : epoch_(epoch), world_(std::make_shared<const World>(state, scratch)) {}

RoutingSnapshot::RoutingSnapshot(const Mesh2D& mesh, SnapshotParts parts, std::uint64_t epoch)
    : epoch_(epoch), world_(std::make_shared<const World>(mesh, std::move(parts))) {}

RoutingSnapshot::RoutingSnapshot(const RoutingSnapshot& prev, std::uint64_t epoch)
    : epoch_(epoch), world_(prev.world_) {}

route::QueryView RoutingSnapshot::query_view() const noexcept {
  route::QueryView v;
  const World& w = *world_;
  v.mesh = &w.mesh;
  v.blocks = &w.blocks;
  v.boundary = &w.boundary;
  v.faulty_mask = &w.faulty_mask;
  v.fb_mask = &w.fb_mask;
  v.fb_safety = &w.fb_safety;
  v.mcc1_mask = &w.mcc1_mask;
  v.mcc1_safety = &w.mcc1_safety;
  v.mcc2_mask = &w.mcc2_mask;
  v.mcc2_safety = &w.mcc2_safety;
  return v;
}

void RoutingSnapshot::reachability(Coord src, Grid<bool>& out) const {
  cond::monotone_reachability(world_->mesh, world_->faulty_mask, src, out);
}

bool RoutingSnapshot::truly_bad(Coord c, std::int64_t /*time*/) const {
  return world_->blocks.is_block_node(c);
}

void RoutingSnapshot::believed_blocks(Coord at, std::int64_t /*time*/,
                                      std::vector<Rect>& out) const {
  out.clear();
  const std::vector<fault::FaultyBlock>& blocks = world_->blocks.blocks();
  for (const std::int32_t id : world_->boundary.known_blocks(at)) {
    out.push_back(blocks[static_cast<std::size_t>(id)].rect);
  }
}

bool RoutingSnapshot::is_stale(Coord /*at*/, std::int64_t /*time*/) const { return false; }

}  // namespace meshroute::serve
