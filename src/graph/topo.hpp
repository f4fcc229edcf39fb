// Topological ordering, acyclicity, and positive-circuit detection.
//
// Two distinct notions matter in this library (paper, end of section 4):
//  * a DAG proper has no circuits at all;
//  * an *extended DDG* produced by RS reduction on VLIW targets may contain
//    circuits, which are harmless iff every circuit has non-positive total
//    latency — but such graphs still "violate the DAG property" and the
//    paper eliminates them by requiring a topological sort to exist.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace rs::graph {

/// Kahn topological order, or nullopt when the graph has a circuit.
std::optional<std::vector<NodeId>> topo_order(const Digraph& g);

/// Kahn's algorithm over any adjacency, for searches that layer their own
/// arcs over a base graph without building a Digraph. indegree[v] holds
/// v's in-degree and is consumed; succ(u, release) calls release(v) once
/// per arc u -> v. `order` is cleared, doubles as the FIFO queue and ends
/// in topological order. Returns false when a circuit leaves nodes out.
template <typename Succ>
bool kahn_order(std::span<int> indegree, std::vector<NodeId>& order,
                Succ&& succ) {
  const int n = static_cast<int>(indegree.size());
  order.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    succ(order[head], [&](NodeId v) {
      if (--indegree[v] == 0) order.push_back(v);
    });
  }
  return static_cast<int>(order.size()) == n;
}

/// True when the graph has no circuit (i.e. a topological sort exists).
bool is_dag(const Digraph& g);

/// True when the graph contains a circuit of strictly positive total
/// latency, which makes it unschedulable (sigma(v) >= sigma(v) + c, c > 0).
/// Bellman-Ford on a virtual super-source; O(V * E).
bool has_positive_circuit(const Digraph& g);

}  // namespace rs::graph
