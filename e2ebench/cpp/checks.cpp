#include "checks.hpp"

#include <cstdlib>
#include <deque>

namespace e2e {

namespace {

std::string at_text(int x, int y) {
  std::string out = std::to_string(x);
  out.insert(out.begin(), '(');
  out += ',';
  out += std::to_string(y);
  out += ')';
  return out;
}

/// Monotone reachability from s over the quadrant toward (qx, qy) (each +1
/// or -1), written into `out` for every cell of that quadrant.
void reach_quadrant(const Plane& blocked, Pt s, int qx, int qy, Plane& out) {
  const int xend = qx > 0 ? blocked.w : -1;
  const int yend = qy > 0 ? blocked.h : -1;
  for (int y = s.y; y != yend; y += qy) {
    for (int x = s.x; x != xend; x += qx) {
      std::uint8_t r = 0;
      if (blocked.at(x, y) == 0) {
        if (x == s.x && y == s.y) {
          r = 1;
        } else {
          const bool from_x = x != s.x && out.at(x - qx, y) != 0;
          const bool from_y = y != s.y && out.at(x, y - qy) != 0;
          r = (from_x || from_y) ? 1 : 0;
        }
      }
      out.at(x, y) = r;
    }
  }
}

}  // namespace

Plane plane_of(int w, int h, const std::vector<Pt>& pts) {
  Plane p(w, h);
  for (const Pt& c : pts) p.at(c.x, c.y) = 1;
  return p;
}

bool monotone_path(const Plane& blocked, Pt s, Pt d) {
  if (!blocked.in(s.x, s.y) || !blocked.in(d.x, d.y)) return false;
  const int qx = d.x >= s.x ? 1 : -1;
  const int qy = d.y >= s.y ? 1 : -1;
  const int wx = std::abs(d.x - s.x) + 1;
  const int wy = std::abs(d.y - s.y) + 1;
  // One row of the DP over the s-d rectangle, in offsets from s.
  std::vector<std::uint8_t> row(static_cast<std::size_t>(wx), 0);
  for (int j = 0; j < wy; ++j) {
    const int y = s.y + qy * j;
    for (int i = 0; i < wx; ++i) {
      const int x = s.x + qx * i;
      std::uint8_t r = 0;
      if (blocked.at(x, y) == 0) {
        if (i == 0 && j == 0) {
          r = 1;
        } else {
          const bool from_x = i > 0 && row[i - 1] != 0;
          const bool from_y = j > 0 && row[i] != 0;  // row[i] still holds row j-1
          r = (from_x || from_y) ? 1 : 0;
        }
      }
      row[i] = r;
    }
  }
  return row[wx - 1] != 0;
}

void monotone_reach(const Plane& blocked, Pt s, Plane& out) {
  out = Plane(blocked.w, blocked.h);
  reach_quadrant(blocked, s, +1, +1, out);
  reach_quadrant(blocked, s, -1, +1, out);
  reach_quadrant(blocked, s, -1, -1, out);
  reach_quadrant(blocked, s, +1, -1, out);
}

Plane definition1_closure(const Plane& faulty) {
  Plane bad = faulty;
  const auto is_bad = [&](int x, int y) { return bad.in(x, y) && bad.at(x, y) != 0; };
  std::deque<Pt> work;
  for (int y = 0; y < bad.h; ++y) {
    for (int x = 0; x < bad.w; ++x) {
      if (bad.at(x, y) != 0) work.push_back({x, y});
    }
  }
  // A node turning bad can only change its four neighbours' labels.
  while (!work.empty()) {
    const Pt c = work.front();
    work.pop_front();
    const Pt around[4] = {{c.x + 1, c.y}, {c.x - 1, c.y}, {c.x, c.y + 1}, {c.x, c.y - 1}};
    for (const Pt n : around) {
      if (!bad.in(n.x, n.y) || bad.at(n.x, n.y) != 0) continue;
      const bool horizontal = is_bad(n.x - 1, n.y) || is_bad(n.x + 1, n.y);
      const bool vertical = is_bad(n.x, n.y - 1) || is_bad(n.x, n.y + 1);
      if (horizontal && vertical) {
        bad.at(n.x, n.y) = 1;
        work.push_back(n);
      }
    }
  }
  return bad;
}

std::string check_blocks(int w, int h, const std::vector<Pt>& faults,
                         const std::vector<Box>& blocks, Plane& raster) {
  // Paint block ids (id + 1; 0 = outside every block).
  std::vector<int> id(static_cast<std::size_t>(w) * h, 0);
  const auto cell = [&](int x, int y) -> int& { return id[static_cast<std::size_t>(y) * w + x]; };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Box& r = blocks[b];
    if (r.xmin > r.xmax || r.ymin > r.ymax || r.xmin < 0 || r.ymin < 0 || r.xmax >= w ||
        r.ymax >= h) {
      return "block " + std::to_string(b) + " is not a rectangle inside the mesh";
    }
    for (int y = r.ymin; y <= r.ymax; ++y) {
      for (int x = r.xmin; x <= r.xmax; ++x) {
        if (cell(x, y) != 0) return "blocks overlap at " + at_text(x, y);
        cell(x, y) = static_cast<int>(b) + 1;
      }
    }
  }
  std::vector<std::uint8_t> has_fault(blocks.size(), 0);
  for (const Pt& f : faults) {
    if (f.x < 0 || f.y < 0 || f.x >= w || f.y >= h) return "fault outside the mesh";
    const int b = cell(f.x, f.y);
    if (b == 0) return "fault " + at_text(f.x, f.y) + " lies in no block";
    has_fault[static_cast<std::size_t>(b - 1)] = 1;
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (has_fault[b] == 0) return "block " + std::to_string(b) + " holds no fault";
  }
  const auto id_at = [&](int x, int y) {
    return (x < 0 || y < 0 || x >= w || y >= h) ? 0 : cell(x, y);
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int b = cell(x, y);
      if (b == 0) {
        // The disable rule must not fire on any node left enabled.
        const bool horizontal = id_at(x - 1, y) != 0 || id_at(x + 1, y) != 0;
        const bool vertical = id_at(x, y - 1) != 0 || id_at(x, y + 1) != 0;
        if (horizontal && vertical) {
          return "enabled node " + at_text(x, y) + " has block neighbours in both dimensions";
        }
      } else {
        // Connected faulty/disabled nodes form ONE block.
        const int east = id_at(x + 1, y);
        const int north = id_at(x, y + 1);
        if ((east != 0 && east != b) || (north != 0 && north != b)) {
          return "distinct blocks touch at " + at_text(x, y);
        }
      }
    }
  }
  raster = Plane(w, h);
  for (std::size_t i = 0; i < id.size(); ++i) raster.v[i] = id[i] != 0 ? 1 : 0;
  // Closed is not enough: a block grown past what the rule forces (up to one
  // rectangle over the whole mesh) is closed too. On the 2-D mesh the least
  // fixed point is a set of rectangles, so the blocks must rasterize to it.
  const Plane least = definition1_closure(plane_of(w, h, faults));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (raster.at(x, y) != least.at(x, y)) {
        return "block cover differs from the Definition 1 least fixed point at " + at_text(x, y);
      }
    }
  }
  return "";
}

std::string check_safety(const Plane& obstacles, const std::vector<Level>& levels,
                         int infinite) {
  const int w = obstacles.w;
  const int h = obstacles.h;
  if (levels.size() != static_cast<std::size_t>(w) * h) return "safety grid has the wrong size";
  std::vector<Level> want(levels.size());
  const auto lv = [&](int x, int y) -> Level& { return want[static_cast<std::size_t>(y) * w + x]; };
  // Rows: remember where the nearest obstacle lies on each side.
  for (int y = 0; y < h; ++y) {
    int obstacle = -1;  // nearest obstacle column west of x, -1 = none
    for (int x = 0; x < w; ++x) {
      lv(x, y).w = obstacle < 0 ? infinite : x - obstacle - 1;
      if (obstacles.at(x, y) != 0) obstacle = x;
    }
    obstacle = -1;  // nearest obstacle column east of x
    for (int x = w - 1; x >= 0; --x) {
      lv(x, y).e = obstacle < 0 ? infinite : obstacle - x - 1;
      if (obstacles.at(x, y) != 0) obstacle = x;
    }
  }
  for (int x = 0; x < w; ++x) {
    int obstacle = -1;
    for (int y = 0; y < h; ++y) {
      lv(x, y).s = obstacle < 0 ? infinite : y - obstacle - 1;
      if (obstacles.at(x, y) != 0) obstacle = y;
    }
    obstacle = -1;
    for (int y = h - 1; y >= 0; --y) {
      lv(x, y).n = obstacle < 0 ? infinite : obstacle - y - 1;
      if (obstacles.at(x, y) != 0) obstacle = y;
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const Level& a = levels[static_cast<std::size_t>(y) * w + x];
      const Level& b = lv(x, y);
      if (a.e != b.e || a.s != b.s || a.w != b.w || a.n != b.n) {
        return "safety level at " + at_text(x, y) + " differs from the direct scan";
      }
    }
  }
  return "";
}

std::string check_route_length(Pt s, Pt d, long hops, long detours) {
  const long want = std::abs(d.x - s.x) + std::abs(d.y - s.y) + 2 * detours;
  if (hops != want) {
    return "route " + at_text(s.x, s.y) + "->" + at_text(d.x, d.y) + " walked " +
           std::to_string(hops) + " hops, expected " + std::to_string(want);
  }
  return "";
}

}  // namespace e2e
