// serve_query: the query path. Each world is restored through the
// journal-recovery constructor (the `meshroutectl serve --journal` restart
// path) from a journal the benchmark writes, then answers a stream of
// DECIDE and ROUTE lines with no writes. Worlds alternate the faulty-block
// and MCC models, so every plane a query reads is exercised.
#include <cstdio>
#include <fstream>
#include <memory>

#include "inputs.hpp"
#include "route/query.hpp"
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

struct World {
  QueryWorld input;
  std::string journal_path;
  ms::ServeConfig config;
  std::unique_ptr<ms::SnapshotBuilder> builder;
  std::unique_ptr<ms::QueryServer> server;
  std::unique_ptr<ms::QueryServer::Session> session;
  std::unique_ptr<ms::SnapshotStore::Reader> reader;
  Plane faulty;                    ///< seed faults plus journaled sites
  std::vector<signed char> paths;  ///< per pair: DP answer, -1 = not computed yet
};

void drop_world(World& w) {
  w.reader.reset();
  w.session.reset();
  w.server.reset();
  w.builder.reset();
}

}  // namespace

PassStats query_pass(const RunConfig& cfg, const PassLimit& limit, Tracer* tracer, Outcome& out) {
  const bool traced = tracer != nullptr;
  std::vector<QueryWorld> inputs = make_query(cfg.seed);
  std::vector<World> worlds(inputs.size());
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    World& w = worlds[i];
    w.input = std::move(inputs[i]);
    w.journal_path = cfg.workdir + "/journal_" + std::to_string(cfg.seed) + "_" +
                     std::to_string(i) + ".log";
    std::ofstream(w.journal_path, std::ios::trunc) << journal_text(w.input);
    w.config.model = w.input.mcc ? meshroute::route::QueryModel::Mcc
                                 : meshroute::route::QueryModel::FaultyBlock;
    w.config.strategy = meshroute::cond::StrategyId::S4;
    w.config.strategy_cfg.segment_size = 5;
    for (const Pt p : w.input.pivots) w.config.pivots.push_back(coord(p));
    std::vector<Pt> all = w.input.seed_faults;
    all.insert(all.end(), w.input.journal.begin(), w.input.journal.end());
    w.faulty = plane_of(kSide, kSide, all);
    w.paths.assign(w.input.pairs.size(), -1);
  }

  // Set-up: recover every world from its journal and stand its server up.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (World& w : worlds) drop_world(w);
    const std::int64_t t0 = now_ns();
    for (World& w : worlds) {
      std::vector<Coord> seed;
      for (const Pt p : w.input.seed_faults) seed.push_back(coord(p));
      const auto recover = [&] {
        w.builder = std::make_unique<ms::SnapshotBuilder>(
            Mesh2D(kSide, kSide), seed, w.journal_path, ms::SnapshotBuilder::RecoverFromJournal{});
      };
      if (traced) {
        const std::int64_t r0 = now_ns();
        tracer->span("serve.journal.recover_us", recover);
        tracer->sample("serve.journal.records_per_s",
                       static_cast<double>(w.input.journal.size()) /
                           (static_cast<double>(now_ns() - r0) / 1e9));
      } else {
        recover();
      }
      w.server = std::make_unique<ms::QueryServer>(*w.builder, w.config);
      w.session = std::make_unique<ms::QueryServer::Session>(*w.server);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  bool quit = false;
  for (World& w : worlds) {
    w.reader = std::make_unique<ms::SnapshotStore::Reader>(w.builder->store());
    // The recovered world: seed faults plus every journaled site, published
    // at the epoch of the last record.
    out.attempted += 2;
    const std::string want = "OK EPOCH " + std::to_string(w.input.journal.size());
    const std::string epoch = ms::handle_line(*w.session, "EPOCH", quit);
    if (epoch != want) out.fail("recovered world replied '" + epoch + "', expected '" + want + "'");
    const ms::SnapshotStore::Ref snap = w.reader->acquire();
    const std::string why = check_snapshot(*snap, w.faulty);
    if (!why.empty()) out.fail("recovered world: " + why);
  }

  PassStats stats;
  std::vector<double> decide_us;
  std::vector<double> route_us;
  std::int64_t read_ns = 0;
  std::vector<meshroute::route::RouteAnswer> answers;

  // One protocol read, timed (and spanned when traced).
  const auto ask = [&](World& w, const char* span, const std::string& line,
                       std::vector<double>& series) {
    const std::int64_t t0 = now_ns();
    std::string reply = traced ? tracer->span(span, [&] { return ms::handle_line(*w.session, line, quit); })
                               : ms::handle_line(*w.session, line, quit);
    const std::int64_t dt = now_ns() - t0;
    series.push_back(static_cast<double>(dt) / 1e3);
    read_ns += dt;
    ++out.attempted;
    return reply;
  };
  // The same request one layer down: the store, then the condition or the
  // ladder walk on the acquired snapshot's view.
  const auto acquire = [&](World& w) {
    const std::int64_t t0 = now_ns();
    ms::SnapshotStore::Ref ref = w.reader->acquire();
    tracer->sample("serve.store.acquire_ns", static_cast<double>(now_ns() - t0));
    return ref;
  };

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(limit.seconds * 1e9);
  for (int round = 0;; ++round) {
    if (limit.max_rounds > 0 && round >= limit.max_rounds) break;
    if (now_ns() >= deadline) break;
    for (World& w : worlds) {
      const long epoch = static_cast<long>(w.input.journal.size());
      for (int j = 0; j < kQueryPairsPerRound; ++j) {
        const std::size_t idx =
            static_cast<std::size_t>(round * kQueryPairsPerRound + j) % w.input.pairs.size();
        const Pt s = w.input.pairs[idx][0];
        const Pt d = w.input.pairs[idx][1];
        const auto path_exists = [&] {
          if (w.paths[idx] < 0) w.paths[idx] = monotone_path(w.faulty, s, d) ? 1 : 0;
          return w.paths[idx] == 1;
        };
        const meshroute::route::QuerySpec spec{coord(s), coord(d)};

        if (traced) tracer->request("request.decide");
        const std::string decided =
            ask(w, "serve.protocol.decide_us", query_line("DECIDE", s, d), decide_us);
        if (decided.rfind("OK DECIDE ", 0) != 0 || field(decided, "epoch") != epoch) {
          out.fail("unexpected reply '" + decided + "'");
        } else if (decided.rfind("OK DECIDE minimal ", 0) == 0 && !path_exists()) {
          out.fail("DECIDE minimal where the DP finds no monotone path: " +
                   query_line("DECIDE", s, d));
        }
        if (traced) {
          tracer->span("serve.server.decide_us", [&] { return w.session->decide(spec); });
          const ms::SnapshotStore::Ref ref = acquire(w);
          const auto view = ref->query_view();
          tracer->span("cond.decide_us", [&] {
            return meshroute::route::decide_strategy(view, spec.src, spec.dst, w.config.model,
                                                     w.config.strategy, w.config.pivots,
                                                     w.config.strategy_cfg);
          });
        }

        if (traced) tracer->request("request.route");
        const std::string routed =
            ask(w, "serve.protocol.route_us", query_line("ROUTE", s, d), route_us);
        std::string why = check_route(routed, s, d, path_exists);
        if (why.empty() && parse_route(routed).epoch != epoch) {
          why = "ROUTE answered at the wrong epoch: " + routed;
        }
        if (!why.empty()) out.fail(why);
        if (traced) {
          tracer->span("serve.server.route_us", [&] { return w.session->route(spec); });
          const ms::SnapshotStore::Ref ref = acquire(w);
          const auto view = ref->query_view();
          const std::int64_t t0 = now_ns();
          tracer->span("route.route_us", [&] {
            meshroute::route::route_batch(view, {&spec, 1}, w.config.ladder, answers);
          });
          const double us = static_cast<double>(now_ns() - t0) / 1e3;
          const auto& st = answers.front().stats;
          tracer->sample("route.hops", st.hops);
          tracer->sample("route.detours", st.detours);
          tracer->sample("route.escalations", st.escalations);
          if (st.hops > 0) tracer->sample("route.us_per_hop", us / st.hops);
        }
      }
    }
    stats.rounds = round + 1;
  }

  for (World& w : worlds) {
    drop_world(w);
    std::remove(w.journal_path.c_str());
  }
  stats.top_us = route_us;  // the top-level operation the tracing overhead compares

  if (!traced) {
    out.add("setup_s", median(setup_s), "s");
    out.add("op_p50_us", quantile(route_us, 0.5), "us");
    out.add("op_p90_us", quantile(route_us, 0.9), "us");
    out.add("aux_p50_us", median(decide_us), "us");
    out.add("ops_per_s",
            static_cast<double>(decide_us.size() + route_us.size()) /
                (static_cast<double>(read_ns) / 1e9),
            "1/s");
    print_latency("serve_query ROUTE", route_us);
    print_latency("serve_query DECIDE", decide_us);
    std::printf("serve_query rounds=%d reads=%zu setup_s(median of %d)=%.4f\n", stats.rounds,
                decide_us.size() + route_us.size(), kSetupReps, median(setup_s));
  } else {
    // Time spent at the bottom layers (store acquire plus the condition or
    // the ladder walk), as a share of the protocol-level time of the same
    // requests.
    const double below = tracer->sum_of("serve.store.acquire_ns") / 1e3 +
                         tracer->sum_of("cond.decide_us") + tracer->sum_of("route.route_us");
    tracer->sample("trace.sum_ratio", below / (tracer->sum_of("serve.protocol.decide_us") +
                                               tracer->sum_of("serve.protocol.route_us")));
  }
  return stats;
}

}  // namespace e2e
