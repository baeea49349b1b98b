// The flat-view contract: extract_view / ViewExtractor against a reference
// built from induced_subgraph + bfs_distances (the seed's extraction path),
// storage reuse in extract_into, proof read-through, Graph interop, and
// ball symmetry — every centre whose freshly extracted ball changes under
// an edge stream is one the delta tracker marks dirty.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/view.hpp"
#include "graph/directed.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"

namespace lcp {
namespace {

/// A directed instance with a few hubs (so balls vary in size), labels,
/// weights and arc masks on every edge, and a distinct proof per node.
struct Instance {
  Graph g;
  Proof p;
};

Instance directed_instance(int n, std::uint32_t seed) {
  Instance in{gen::random_connected(n, 0.07, seed), Proof::empty(n)};
  std::mt19937 rng(seed);
  for (int hub = 0; hub < 3; ++hub) {
    for (int v = 0; v < n; v += 5 + hub) {
      if (v != hub && !in.g.has_edge(hub, v)) in.g.add_edge(v, hub);
    }
  }
  for (int v = 0; v < n; ++v) {
    in.g.set_label(v, rng() % 7);
    in.p.labels[static_cast<std::size_t>(v)].append_uint(
        static_cast<std::uint64_t>(v) * 2654435761u % 1021, 10);
  }
  for (int e = 0; e < in.g.m(); ++e) {
    in.g.set_edge_label(e, rng() % 3 == 0 ? directed::kBackward
                                          : directed::kForward);
    in.g.set_edge_weight(e, static_cast<std::int64_t>(rng() % 100));
  }
  return in;
}

/// Edge (id of edge_u, id of edge_v, label, weight) as the host orients it.
using EdgeKey = std::tuple<NodeId, NodeId, std::uint64_t, std::int64_t>;

template <class G>
std::vector<EdgeKey> edge_keys(const G& g) {
  std::vector<EdgeKey> keys;
  for (int e = 0; e < g.m(); ++e) {
    keys.emplace_back(g.id(g.edge_u(e)), g.id(g.edge_v(e)), g.edge_label(e),
                      g.edge_weight(e));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Checks `view` against the reference extraction of centre v: same
/// members in the same (BFS) order, labels, distances, proof labels, port
/// order and host edge orientation.
void expect_matches_reference(const Graph& g, const Proof& p, int v,
                              int radius, const View& view) {
  const std::vector<int> nodes = ball_nodes(g, v, radius);
  const Graph ref = induced_subgraph(g, nodes);
  const std::vector<int> ref_dist = bfs_distances(ref, 0);
  SCOPED_TRACE("centre " + std::to_string(v) + " radius " +
               std::to_string(radius));
  ASSERT_EQ(view.ball.n(), ref.n());
  ASSERT_EQ(view.ball.m(), ref.m());
  ASSERT_EQ(view.proofs.size(), nodes.size());
  ASSERT_EQ(view.dist.size(), nodes.size());
  EXPECT_EQ(view.center, 0);
  EXPECT_EQ(view.radius, radius);
  for (int i = 0; i < ref.n(); ++i) {
    const int host = nodes[static_cast<std::size_t>(i)];
    EXPECT_EQ(view.ball.id(i), g.id(host));
    EXPECT_EQ(view.ball.label(i), g.label(host));
    EXPECT_EQ(view.dist_of(i), ref_dist[static_cast<std::size_t>(i)]);
    EXPECT_EQ(view.proof_of(i), p.labels[static_cast<std::size_t>(host)]);
    EXPECT_EQ(view.ball.index_of(g.id(host)).value_or(-1), i);
    ASSERT_EQ(view.ball.degree(i), ref.degree(i));
    for (int port = 0; port < ref.degree(i); ++port) {
      EXPECT_EQ(view.ball.id(view.ball.neighbor_at_port(i, port)),
                ref.id(ref.neighbor_at_port(i, port)));
    }
  }
  EXPECT_EQ(view.ball.ids(), ref.ids());
  EXPECT_EQ(edge_keys(view.ball), edge_keys(ref));
  // Orientation against the host itself, and the edge index round trip.
  for (int e = 0; e < view.ball.m(); ++e) {
    const int bu = view.ball.edge_u(e);
    const int bv = view.ball.edge_v(e);
    EXPECT_EQ(view.ball.edge_index(bu, bv), e);
    EXPECT_EQ(view.ball.edge_index(bv, bu), e);
    const int he = g.edge_index(nodes[static_cast<std::size_t>(bu)],
                                nodes[static_cast<std::size_t>(bv)]);
    ASSERT_GE(he, 0);
    EXPECT_EQ(g.id(g.edge_u(he)), view.ball.id(bu));
    EXPECT_EQ(directed::has_arc(view.ball, bu, bv),
              directed::has_arc(g, nodes[static_cast<std::size_t>(bu)],
                                nodes[static_cast<std::size_t>(bv)]));
  }
}

TEST(FlatView, MatchesInducedSubgraphReference) {
  const Instance in = directed_instance(60, 11);
  ViewExtractor extractor(in.g);
  View reused;
  for (int radius : {1, 2, 3}) {
    for (int v = 0; v < in.g.n(); ++v) {
      expect_matches_reference(in.g, in.p, v, radius,
                               extract_view(in.g, in.p, v, radius));
      extractor.extract_into(in.p, v, radius, reused);
      expect_matches_reference(in.g, in.p, v, radius, reused);
    }
  }
}

TEST(FlatView, ReusedStorageLeaksNothing) {
  // Hub 0 has a large radius-3 ball; the far end of the tail a tiny one.
  Instance in = directed_instance(50, 5);
  const int tail = in.g.add_node(1000);
  in.g.add_edge(tail - 1, tail);
  in.p.labels.emplace_back();
  in.p.labels.back().append_uint(5, 3);
  ViewExtractor extractor(in.g);
  View out;
  for (const auto& [v, radius] : {std::pair{0, 3}, std::pair{tail, 1},
                                  std::pair{0, 3}, std::pair{tail, 0},
                                  std::pair{1, 2}}) {
    extractor.extract_into(in.p, v, radius, out);
    expect_matches_reference(in.g, in.p, v, radius, out);
    EXPECT_TRUE(views_bit_identical(out, extract_view(in.g, in.p, v, radius)));
  }
}

TEST(FlatView, ProofsReadThroughTheHost) {
  Instance in = directed_instance(30, 3);
  View view = extract_view(in.g, in.p, 4, 2);
  // No label is copied: the view holds one host index per member.
  ASSERT_EQ(view.proofs.host_members().size(),
            static_cast<std::size_t>(view.ball.n()));
  const int host = view.proofs.host_members()[1];
  BitString fresh;
  fresh.append_uint(3, 2);
  in.p.labels[static_cast<std::size_t>(host)] = fresh;
  EXPECT_EQ(view.proof_of(1), fresh);
  // Detached, the view keeps the labels it had.
  view.own_proofs();
  EXPECT_TRUE(view.proofs.host_members().empty());
  in.p.labels[static_cast<std::size_t>(host)] = BitString();
  EXPECT_EQ(view.proof_of(1), fresh);
  std::size_t seen = 0;
  for (const BitString& bits : view.proofs) {
    EXPECT_EQ(bits, view.proof_of(static_cast<int>(seen)));
    ++seen;
  }
  EXPECT_EQ(seen, view.proofs.size());
}

TEST(FlatView, GraphRoundTrip) {
  const Instance in = directed_instance(25, 8);
  const Ball ball(in.g);
  const Graph back = ball.to_graph();
  ASSERT_EQ(back.n(), in.g.n());
  ASSERT_EQ(back.m(), in.g.m());
  for (int e = 0; e < in.g.m(); ++e) {
    EXPECT_EQ(back.edge_u(e), in.g.edge_u(e));
    EXPECT_EQ(back.edge_v(e), in.g.edge_v(e));
    EXPECT_EQ(back.edge_label(e), in.g.edge_label(e));
    EXPECT_EQ(back.edge_weight(e), in.g.edge_weight(e));
  }
  for (int v = 0; v < in.g.n(); ++v) {
    EXPECT_EQ(back.id(v), in.g.id(v));
    EXPECT_EQ(back.label(v), in.g.label(v));
    for (int port = 0; port < in.g.degree(v); ++port) {
      EXPECT_EQ(ball.neighbor_at_port(v, port), in.g.neighbor_at_port(v, port));
    }
  }
  EXPECT_TRUE(Ball(back) == ball);
  // A hand-built view reads its own labels; extracting inside it at the
  // same radius gives the host's view.
  const int radius = 2;
  const View host_view = extract_view(in.g, in.p, 7, radius);
  std::vector<BitString> labels(host_view.proofs.begin(),
                                host_view.proofs.end());
  const View copy =
      View::from_graph(host_view.ball.to_graph(), 0, radius,
                       std::move(labels), host_view.dist);
  EXPECT_TRUE(views_bit_identical(copy, host_view));
  Proof ball_proof;
  ball_proof.labels.assign(copy.proofs.begin(), copy.proofs.end());
  EXPECT_TRUE(views_bit_identical(
      extract_view(copy.ball, ball_proof, 0, radius), host_view));
}

/// Every view of g at `radius`, detached from the proof.
std::vector<View> all_views(const Graph& g, const Proof& p, int radius) {
  std::vector<View> views;
  for (int v = 0; v < g.n(); ++v) {
    views.push_back(extract_view(g, p, v, radius));
    views.back().own_proofs();
  }
  return views;
}

TEST(FlatView, TrackerDirtySetCoversChangedBallsOnDirectedStreams) {
  const std::unique_ptr<Scheme> scheme =
      builtin_registry().build("st-unreachability-directed");
  const LocalVerifier& a = scheme->verifier();
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    Instance in = directed_instance(40, seed);
    DeltaTracker tracker(in.g, in.p, a.radius());
    IncrementalEngine engine({.verify_state = true});
    engine.attach_tracker(&tracker);
    engine.run(in.g, in.p, a);
    std::mt19937 rng(seed);
    for (int step = 0; step < 40; ++step) {
      const std::vector<View> before = all_views(in.g, in.p, a.radius());
      MutationBatch batch;
      for (int op = 0; op < 3; ++op) {
        const int u = static_cast<int>(rng() % 40);
        const int v = static_cast<int>(rng() % 40);
        if (u == v) continue;
        if (in.g.has_edge(u, v) && rng() % 3 != 0) {
          batch.remove_edge(u, v);
        } else if (in.g.has_edge(u, v)) {
          batch.set_edge_label(u, v, directed::kForward | directed::kBackward);
        } else {
          batch.add_edge(u, v, rng() % 2 == 0 ? directed::kForward
                                              : directed::kBackward);
        }
        tracker.apply(batch);
        batch = MutationBatch();
      }
      engine.run(in.g, in.p, a);
      // The engine's dirty set spans every record since its last run.
      const std::set<int> dirty(engine.last_dirty_centers().begin(),
                                engine.last_dirty_centers().end());
      for (int c = 0; c < in.g.n(); ++c) {
        const View after = extract_view(in.g, in.p, c, a.radius());
        if (!views_bit_identical(before[static_cast<std::size_t>(c)],
                                 after)) {
          EXPECT_TRUE(dirty.count(c) == 1)
              << "seed " << seed << " step " << step << ": centre " << c
              << " changed its ball but is not dirty";
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcp
