#include "graph/paths.hpp"

#include <algorithm>

#include "graph/topo.hpp"
#include "support/assert.hpp"

namespace rs::graph {

LongestPaths::LongestPaths(const Digraph& g) : n_(g.node_count()) {
  d_.assign(static_cast<std::size_t>(n_) * n_, kNoPath);

  const auto order = topo_order(g);
  // A DAG has no circuit at all, so only the Bellman-Ford fallback needs
  // the positive-circuit check.
  if (!order) {
    RS_REQUIRE(!has_positive_circuit(g),
               "longest paths need positive-circuit-free graph");
  }
  for (NodeId s = 0; s < n_; ++s) {
    std::int64_t* row = &d_[static_cast<std::size_t>(s) * n_];
    row[s] = 0;
    if (order) {
      // Single sweep in topological order relaxes every path once.
      for (const NodeId u : *order) {
        if (row[u] == kNoPath) continue;
        for (const EdgeId e : g.out_edges(u)) {
          const Edge& ed = g.edge(e);
          row[ed.dst] = std::max(row[ed.dst], row[u] + ed.latency);
        }
      }
    } else {
      // Non-positive circuits: Bellman-Ford fixpoint (converges since no
      // positive circuit exists).
      for (int round = 0; round < n_; ++round) {
        bool changed = false;
        for (const Edge& ed : g.edges()) {
          if (row[ed.src] == kNoPath) continue;
          if (row[ed.src] + ed.latency > row[ed.dst]) {
            row[ed.dst] = row[ed.src] + ed.latency;
            changed = true;
          }
        }
        if (!changed) break;
      }
      // Relaxation only raises row[s]; above 0 it would have found a
      // positive circuit through s, which the precondition rules out.
      RS_CHECK(row[s] == 0);
    }
  }
}

std::vector<std::int64_t> longest_path_to(const Digraph& g) {
  const int n = g.node_count();
  std::vector<std::int64_t> dist(n, 0);
  const auto order = topo_order(g);
  if (order) {
    for (const NodeId u : *order) {
      for (const EdgeId e : g.out_edges(u)) {
        const Edge& ed = g.edge(e);
        dist[ed.dst] = std::max(dist[ed.dst], dist[u] + ed.latency);
      }
    }
    return dist;
  }
  RS_REQUIRE(!has_positive_circuit(g), "unschedulable graph (positive circuit)");
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (const Edge& ed : g.edges()) {
      if (dist[ed.src] + ed.latency > dist[ed.dst]) {
        dist[ed.dst] = dist[ed.src] + ed.latency;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

std::vector<std::int64_t> longest_path_from(const Digraph& g) {
  const int n = g.node_count();
  std::vector<std::int64_t> dist(n, 0);
  const auto order = topo_order(g);
  if (order) {
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
      const NodeId u = *it;
      for (const EdgeId e : g.out_edges(u)) {
        const Edge& ed = g.edge(e);
        dist[u] = std::max(dist[u], ed.latency + dist[ed.dst]);
      }
    }
    return dist;
  }
  RS_REQUIRE(!has_positive_circuit(g), "unschedulable graph (positive circuit)");
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (const Edge& ed : g.edges()) {
      if (ed.latency + dist[ed.dst] > dist[ed.src]) {
        dist[ed.src] = ed.latency + dist[ed.dst];
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

std::int64_t critical_path(const Digraph& g) {
  const auto dist = longest_path_to(g);
  std::int64_t cp = 0;
  for (const std::int64_t d : dist) cp = std::max(cp, d);
  return cp;
}

}  // namespace rs::graph
