#include "workloads.hpp"

#include <cstdlib>
#include <cstring>

namespace e2e {

namespace {

using meshroute::Coord;
using meshroute::Grid;

Plane plane_from(const Grid<bool>& g) {
  Plane p(g.width(), g.height());
  for (int y = 0; y < p.h; ++y) {
    for (int x = 0; x < p.w; ++x) p.at(x, y) = g[Coord{x, y}] ? 1 : 0;
  }
  return p;
}

std::vector<Level> levels_from(const meshroute::info::SafetyGrid& g) {
  std::vector<Level> out(static_cast<std::size_t>(g.width()) * g.height());
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      const auto& l = g[Coord{x, y}];
      out[static_cast<std::size_t>(y) * g.width() + x] = {l.e, l.s, l.w, l.n};
    }
  }
  return out;
}

}  // namespace

std::string check_snapshot(const meshroute::serve::RoutingSnapshot& snap, const Plane& faulty) {
  const Plane got = plane_from(snap.faults().mask());
  if (got.v != faulty.v) return "epoch " + std::to_string(snap.epoch()) + ": fault set differs";
  std::vector<Pt> faults;
  for (int y = 0; y < faulty.h; ++y) {
    for (int x = 0; x < faulty.w; ++x) {
      if (faulty.at(x, y) != 0) faults.push_back({x, y});
    }
  }
  std::vector<Box> boxes;
  for (const auto& b : snap.blocks().blocks()) {
    boxes.push_back({b.rect.xmin, b.rect.xmax, b.rect.ymin, b.rect.ymax});
  }
  Plane raster;
  std::string why = check_blocks(faulty.w, faulty.h, faults, boxes, raster);
  const auto view = snap.query_view();
  if (why.empty() && plane_from(*view.fb_mask).v != raster.v) {
    why = "faulty-block plane differs from the union of the blocks";
  }
  const int inf = meshroute::kInfiniteDistance;
  if (why.empty()) why = check_safety(raster, levels_from(*view.fb_safety), inf);
  if (why.empty()) why = check_safety(plane_from(*view.mcc1_mask), levels_from(*view.mcc1_safety), inf);
  if (why.empty()) why = check_safety(plane_from(*view.mcc2_mask), levels_from(*view.mcc2_safety), inf);
  return why.empty() ? why : "epoch " + std::to_string(snap.epoch()) + ": " + why;
}

long field(const std::string& text, const char* key) {
  const std::string k = std::string(" ") + key + "=";
  const std::size_t at = text.find(k);
  if (at == std::string::npos) return -1;
  return std::strtol(text.c_str() + at + k.size(), nullptr, 10);
}

RouteReply parse_route(const std::string& reply) {
  RouteReply r;
  if (reply.rfind("OK ROUTE ", 0) != 0) return r;
  r.ok = true;
  r.delivered = reply.compare(9, 10, "delivered ") == 0;
  r.minimal_rung = reply.find(" rung=minimal ") != std::string::npos;
  r.hops = field(reply, "hops");
  r.detours = field(reply, "detours");
  r.epoch = field(reply, "epoch");
  return r;
}

}  // namespace e2e
