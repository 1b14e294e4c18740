// serve_churn: the epoch-publish path. Every INJECT line goes through
// serve::handle_line and publishes one epoch; every fifth line is a duplicate
// report of a node already inside a block. Each world also takes one flight
// of kChurnFlight queued injections per round (SnapshotBuilder::enqueue, then
// flush). After every write: one EPOCH and one ROUTE across the new fault.
#include <memory>
#include <optional>

#include "dynamic/dynamic_state.hpp"
#include "fault/block_model.hpp"
#include "fault/mcc_model.hpp"
#include "info/boundary.hpp"
#include "info/safety_level.hpp"
#include "inputs.hpp"
#include "serve/builder.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace ms = meshroute::serve;
using meshroute::Coord;
using meshroute::Mesh2D;

constexpr int kSetupReps = 15;

Coord coord(Pt p) { return {p.x, p.y}; }

std::vector<Coord> coords(const std::vector<Pt>& pts) {
  std::vector<Coord> out;
  for (const Pt p : pts) out.push_back(coord(p));
  return out;
}

/// One churn world: the served builder with its protocol session, and — in a
/// traced pass — the same world one layer down (builder level) and two
/// layers down (the incremental dynamic state).
struct World {
  ChurnWorld input;
  std::unique_ptr<ms::SnapshotBuilder> builder;
  std::unique_ptr<ms::QueryServer> server;
  std::unique_ptr<ms::QueryServer::Session> session;
  std::unique_ptr<ms::SnapshotStore::Reader> reader;
  std::unique_ptr<ms::SnapshotBuilder> layer_builder;
  std::unique_ptr<meshroute::dynamic::DynamicMeshState> layer_state;
  Plane faulty;
  std::uint64_t epoch = 0;
};

/// The timed part of standing a world up: what a restarted server does
/// before it answers its first request.
void serve_world(World& w) {
  w.builder = std::make_unique<ms::SnapshotBuilder>(Mesh2D(kSide, kSide),
                                                    coords(w.input.seed_faults));
  w.server = std::make_unique<ms::QueryServer>(*w.builder);
  w.session = std::make_unique<ms::QueryServer::Session>(*w.server);
}

/// The untimed rest: the benchmark's own reader, fault record and (traced)
/// layer worlds.
void attach_world(World& w, bool traced) {
  w.reader = std::make_unique<ms::SnapshotStore::Reader>(w.builder->store());
  w.faulty = plane_of(kSide, kSide, w.input.seed_faults);
  w.epoch = 0;
  w.layer_builder.reset();
  w.layer_state.reset();
  if (traced) {
    w.layer_builder = std::make_unique<ms::SnapshotBuilder>(Mesh2D(kSide, kSide),
                                                            coords(w.input.seed_faults));
    w.layer_state = std::make_unique<meshroute::dynamic::DynamicMeshState>(Mesh2D(kSide, kSide));
    for (const Pt p : w.input.seed_faults) w.layer_state->inject_fault(coord(p));
  }
}

/// Tear a world down readers first, so nothing outlives the store it reads.
void drop_world(World& w) {
  w.reader.reset();
  w.session.reset();
  w.server.reset();
  w.builder.reset();
}

void replace_world(World& w, ChurnWorld input, bool traced) {
  drop_world(w);
  w.input = std::move(input);
  serve_world(w);
  attach_world(w, traced);
}

/// Kernel builds repeated off to the side on the builder-level world's
/// current epoch, one span each.
struct Shadow {
  ms::SnapshotScratch snapshot;
  meshroute::fault::BlockScratch block_scratch;
  meshroute::fault::BlockSet blocks;
  meshroute::fault::MccScratch mcc_scratch;
  meshroute::fault::MccSet mcc;
  meshroute::info::SafetyGrid safety;
  std::uint64_t calls = 0;

  void run(Tracer& t, const ms::SnapshotBuilder& b, std::uint64_t epoch) {
    const Mesh2D& mesh = b.mesh();
    const auto& state = b.state();
    std::unique_ptr<const ms::RoutingSnapshot> delta;
    std::unique_ptr<const ms::RoutingSnapshot> scratch;
    const auto build_delta = [&] {
      t.span("serve.snapshot.delta_build_us", [&] {
        delta = std::make_unique<const ms::RoutingSnapshot>(state, epoch, snapshot);
      });
    };
    const auto build_scratch = [&] {
      t.span("serve.snapshot.scratch_build_us", [&] {
        scratch = std::make_unique<const ms::RoutingSnapshot>(mesh, state.faults(), epoch, snapshot);
      });
    };
    // The first build after a publish meets colder caches: alternate which
    // of the two goes first, so neither median carries that cost alone.
    if (++calls % 2 == 1) {
      build_delta();
      build_scratch();
    } else {
      build_scratch();
      build_delta();
    }
    std::optional<meshroute::info::BoundaryInfoMap> boundary;
    t.span("info.boundary_build_us", [&] { boundary.emplace(mesh, delta->blocks()); });
    t.sample("info.deposits", static_cast<double>(boundary->deposited_entries()));
    for (const auto kind : {meshroute::fault::MccKind::TypeOne, meshroute::fault::MccKind::TypeTwo}) {
      t.span("fault.mcc_build_us",
             [&] { meshroute::fault::build_mcc(mesh, state.faults(), kind, mcc, mcc_scratch); });
    }
    t.span("fault.block_build_us", [&] {
      meshroute::fault::build_faulty_blocks(mesh, state.faults(), blocks, block_scratch);
    });
    t.span("info.safety_build_us", [&] {
      meshroute::info::compute_safety_levels(mesh, *delta->query_view().fb_mask, safety);
    });
  }
};

}  // namespace

PassStats churn_pass(const RunConfig& cfg, const PassLimit& limit, Tracer* tracer, Outcome& out) {
  const bool traced = tracer != nullptr;
  std::vector<World> worlds(kChurnWorlds);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (int i = 0; i < kChurnWorlds; ++i) {
      World& w = worlds[static_cast<std::size_t>(i)];
      drop_world(w);
      w.input = make_churn_world(cfg.seed, i, 0);
    }
    const std::int64_t t0 = now_ns();
    for (World& w : worlds) serve_world(w);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  for (World& w : worlds) attach_world(w, traced);

  PassStats stats;
  std::vector<double> flush_epoch_us;
  std::vector<double> duplicate_us;  ///< INJECT lines naming an already-faulty node
  std::int64_t write_ns = 0;
  std::uint64_t epochs = 0;
  Shadow shadow;
  bool quit = false;

  // ROUTE across the fault just injected, after an EPOCH probe.
  const auto probe = [&](World& w, const ChurnStep& step) {
    out.attempted += 2;
    const std::string epoch_reply = ms::handle_line(*w.session, "EPOCH", quit);
    if (epoch_reply != "OK EPOCH " + std::to_string(w.epoch)) {
      out.fail("EPOCH replied '" + epoch_reply + "', expected epoch " + std::to_string(w.epoch));
    }
    const std::string reply =
        ms::handle_line(*w.session, query_line("ROUTE", step.src, step.dst), quit);
    std::string why = check_route(reply, step.src, step.dst,
                                  [&] { return monotone_path(w.faulty, step.src, step.dst); });
    if (why.empty() && parse_route(reply).epoch != static_cast<long>(w.epoch)) {
      why = "ROUTE answered at the wrong epoch: " + reply;
    }
    if (!why.empty()) out.fail(why);
  };

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(limit.seconds * 1e9);
  for (int round = 0;; ++round) {
    if (limit.max_rounds > 0 && round >= limit.max_rounds) break;
    if (now_ns() >= deadline) break;
    if (round > 0 && round % kChurnLife == 0) {
      for (int i = 0; i < kChurnWorlds; ++i) {
        replace_world(worlds[static_cast<std::size_t>(i)],
                      make_churn_world(cfg.seed, i, round / kChurnLife % kChurnGenerations),
                      traced);
      }
    }
    for (World& w : worlds) {
      const std::size_t first = static_cast<std::size_t>(round % kChurnLife) * kChurnStepsPerRound;
      for (std::size_t s = first; s < first + kChurnStepsPerRound; ++s) {
        const ChurnStep& step = w.input.steps[s];
        if (traced) tracer->request(step.flight ? "request.flight" : "request.inject");
        if (!step.flight) {
          const Pt c = step.sites.front();
          const std::string line = inject_line(c);
          std::string reply;
          const std::int64_t t0 = now_ns();
          if (traced) {
            reply = tracer->span("serve.protocol.inject_us",
                                 [&] { return ms::handle_line(*w.session, line, quit); });
          } else {
            reply = ms::handle_line(*w.session, line, quit);
          }
          const std::int64_t t1 = now_ns();
          stats.top_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          write_ns += t1 - t0;
          ++epochs;
          ++out.attempted;
          if (w.faulty.at(c.x, c.y) != 0) duplicate_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          w.faulty.at(c.x, c.y) = 1;
          ++w.epoch;
          std::string why;
          if (reply.rfind("OK INJECT ", 0) != 0 ||
              field(reply, "epoch") != static_cast<long>(w.epoch)) {
            why = "INJECT replied '" + reply + "', expected epoch " + std::to_string(w.epoch);
          } else {
            const ms::SnapshotStore::Ref snap = w.reader->acquire();
            why = check_snapshot(*snap, w.faulty);
          }
          if (!why.empty()) out.fail(why);
          if (traced) {
            tracer->span("serve.builder.inject_us", [&] { w.layer_builder->inject(coord(c)); });
            const std::uint64_t e =
                tracer->span("serve.builder.publish_us", [&] { return w.layer_builder->publish(); });
            tracer->span("dynamic.inject_fault_us", [&] { w.layer_state->inject_fault(coord(c)); });
            tracer->sample("dynamic.relabeled_nodes",
                           static_cast<double>(w.layer_state->last_changed().size()));
            shadow.run(*tracer, *w.layer_builder, e);
          }
        } else {
          // A flight: every queued epoch is checked as it is published; the
          // check time is taken out of the flight time.
          std::int64_t check_ns = 0;
          std::size_t published = 0;
          const auto on_publish = [&](const ms::RoutingSnapshot& snap) {
            const std::int64_t c0 = now_ns();
            const Pt c = step.sites[published++];
            w.faulty.at(c.x, c.y) = 1;
            ++w.epoch;
            std::string why = check_snapshot(snap, w.faulty);
            if (why.empty() && snap.epoch() != w.epoch) {
              why = "flight published epoch " + std::to_string(snap.epoch()) + ", expected " +
                    std::to_string(w.epoch);
            }
            if (!why.empty()) out.fail(why);
            check_ns += now_ns() - c0;
          };
          const auto flight = [&] {
            for (const Pt c : step.sites) w.builder->enqueue(coord(c));
            return w.builder->flush(on_publish);
          };
          const std::int64_t t0 = now_ns();
          const std::uint64_t last = traced ? tracer->span("serve.builder.flight_us", flight) : flight();
          const std::int64_t flight_ns = now_ns() - t0 - check_ns;
          const double per_epoch_us = static_cast<double>(flight_ns) / 1e3 /
                                      static_cast<double>(step.sites.size());
          flush_epoch_us.push_back(per_epoch_us);
          write_ns += flight_ns;
          epochs += step.sites.size();
          out.attempted += step.sites.size();
          if (published != step.sites.size() || last != w.epoch) {
            out.fail("flight of " + std::to_string(step.sites.size()) + " ended at epoch " +
                     std::to_string(last) + ", expected " + std::to_string(w.epoch));
          }
          if (traced) {
            tracer->sample("serve.builder.flush_epoch_us", per_epoch_us);
            for (const Pt c : step.sites) {
              w.layer_builder->inject_publish(coord(c));
              tracer->span("dynamic.inject_fault_us", [&] { w.layer_state->inject_fault(coord(c)); });
            }
          }
        }
        probe(w, step);
      }
    }
    stats.rounds = round + 1;
  }

  if (!traced) {
    out.add("setup_s", median(setup_s), "s");
    out.add("op_p50_us", quantile(stats.top_us, 0.5), "us");
    out.add("op_p90_us", quantile(stats.top_us, 0.9), "us");
    out.add("aux_p50_us", median(flush_epoch_us), "us");
    out.add("ops_per_s", static_cast<double>(epochs) / (static_cast<double>(write_ns) / 1e9),
            "1/s");
    print_latency("serve_churn INJECT (line->epoch)", stats.top_us);
    print_latency("serve_churn INJECT, duplicate reports", duplicate_us);
    print_latency("serve_churn flight, per epoch", flush_epoch_us);
    std::printf("serve_churn rounds=%d epochs=%llu setup_s(median of %d)=%.4f\n", stats.rounds,
                static_cast<unsigned long long>(epochs), kSetupReps, median(setup_s));
  } else {
    const double publish = tracer->median_of("serve.builder.publish_us");
    tracer->sample("serve.builder.publish_self_us",
                   publish - tracer->median_of("serve.snapshot.delta_build_us"));
    // Time spent one layer down, as a share of the protocol-level time of
    // the same requests.
    tracer->sample("trace.sum_ratio", (tracer->sum_of("serve.builder.inject_us") +
                                       tracer->sum_of("serve.builder.publish_us")) /
                                          tracer->sum_of("serve.protocol.inject_us"));
  }
  return stats;
}

}  // namespace e2e
