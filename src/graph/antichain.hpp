// Maximum antichain of a finite strict partial order (Dilworth via
// Fulkerson's bipartite reduction + König cover).
//
// The register saturation of a fixed killing function equals the maximum
// antichain of the disjoint-value DAG's reachability order [Touati CC'01,
// recalled in section 1 of the paper]; this module provides that primitive.
#pragma once

#include <functional>
#include <vector>

#include "graph/digraph.hpp"

namespace rs::graph {

struct AntichainResult {
  /// Indices of a maximum antichain (ascending).
  std::vector<int> members;
  /// == members.size(); kept for call sites that only need the size.
  int size = 0;
};

class BipartiteMatching;

/// Maximum antichain of the strict partial order whose comparable pairs
/// (i before j) are the edges (i, j) of `order`, a k x k bipartite graph
/// (the same transitivity requirement as below). Solves `order` in place,
/// so a caller can refill one matching per order instead of passing a
/// callback.
AntichainResult maximum_antichain(BipartiteMatching& order);

/// Maximum antichain of the strict partial order `before` over k elements.
/// `before` MUST be irreflexive and transitive (pass a reachability
/// relation, not raw arcs) — Dilworth's reduction is unsound otherwise.
AntichainResult maximum_antichain(int k,
                                  const std::function<bool(int, int)>& before);

/// Maximum antichain among `elements` of DAG g under reachability order.
/// Paths through non-element nodes count as comparability.
AntichainResult maximum_antichain_of_dag(const Digraph& g,
                                         const std::vector<NodeId>& elements);

/// Maximum antichain over all nodes of DAG g.
AntichainResult maximum_antichain_of_dag(const Digraph& g);

}  // namespace rs::graph
