#include "core/context.hpp"

#include "support/assert.hpp"

namespace rs::core {

TypeContext::TypeContext(const ddg::Ddg& ddg, ddg::RegType type)
    : ddg_(&ddg), type_(type), values_(ddg, type),
      lp_(std::make_shared<graph::LongestPaths>(ddg.graph())) {
  ddg.validate();
  const graph::Digraph& g = ddg.graph();
  const int n = g.node_count();
  arc_begin_.assign(n + 1, 0);
  in_degree_.assign(n, 0);
  arcs_.reserve(g.edge_count());
  for (ddg::NodeId v = 0; v < n; ++v) {
    for (const graph::EdgeId e : g.out_edges(v)) {
      const graph::Edge& ed = g.edge(e);
      arcs_.push_back(Arc{ed.dst, ed.latency});
      ++in_degree_[ed.dst];
    }
    arc_begin_[v + 1] = static_cast<int>(arcs_.size());
  }
  const int k = values_.count();
  cons_.reserve(k);
  pkill_.reserve(k);
  for (int i = 0; i < k; ++i) {
    const ddg::NodeId u = values_.nodes[i];
    cons_.push_back(ddg.consumers(u, type));
    RS_REQUIRE(!cons_.back().empty(),
               "value '" + ddg.op(u).name +
                   "' has no consumer; normalize() the DDG so exit values "
                   "flow into the bottom node");
    // v is a potential killer unless another consumer v' is forced to read
    // at least as late: a path v ~> v' with lp(v, v') >= dr(v) - dr(v')
    // implies sigma(v')+dr(v') >= sigma(v)+dr(v) in every schedule.
    std::vector<ddg::NodeId> pk;
    for (const ddg::NodeId v : cons_.back()) {
      bool dominated = false;
      for (const ddg::NodeId vp : cons_.back()) {
        if (vp == v) continue;
        if (lp_->reaches(v, vp) &&
            lp_->lp(v, vp) >= ddg.op(v).delta_r - ddg.op(vp).delta_r) {
          dominated = true;
          break;
        }
      }
      if (!dominated) pk.push_back(v);
    }
    RS_CHECK(!cons_.back().empty() ? !pk.empty() : pk.empty());
    pkill_.push_back(std::move(pk));
  }
}

bool TypeContext::surely_dead_before(int i, int j) const {
  const ddg::NodeId vj = values_.nodes[j];
  for (const ddg::NodeId up : cons_[i]) {
    if (!lp_->reaches(up, vj) ||
        lp_->lp(up, vj) < ddg_->op(up).delta_r - ddg_->op(vj).delta_w) {
      return false;
    }
  }
  return true;
}

}  // namespace rs::core
