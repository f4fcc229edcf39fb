#include "core/killing.hpp"

#include <algorithm>

#include "graph/antichain.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "support/assert.hpp"

namespace rs::core {

namespace {

/// The G->k overlay: calls fn(other, killer, latency) for every arc
/// other -> k(u), u assigned, forcing read(other) <= read(k(u)).
template <typename Fn>
void for_each_killer_arc(const TypeContext& ctx, const KillingFunction& k,
                         Fn&& fn) {
  for (int i = 0; i < ctx.value_count(); ++i) {
    const ddg::NodeId killer = k.killer[i];
    if (killer < 0) continue;
    const ddg::Latency dr_killer = ctx.ddg().op(killer).delta_r;
    for (const ddg::NodeId other : ctx.pkill(i)) {
      if (other != killer) {
        fn(other, killer, ctx.ddg().op(other).delta_r - dr_killer);
      }
    }
  }
}

/// Calls fn(j) for every set bit j of a bitset row, ascending.
template <typename Fn>
void for_each_bit(const std::uint64_t* row, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t word = row[w]; word != 0; word &= word - 1) {
      fn(static_cast<int>(w * 64 + static_cast<unsigned>(__builtin_ctzll(word))));
    }
  }
}

}  // namespace

graph::Digraph killing_extended_graph(const TypeContext& ctx,
                                      const KillingFunction& k) {
  RS_REQUIRE(static_cast<int>(k.killer.size()) == ctx.value_count(),
             "killing function size mismatch");
  graph::Digraph g(ctx.ddg().graph().node_count());
  for (const graph::Edge& e : ctx.ddg().graph().edges()) {
    g.add_edge(e.src, e.dst, e.latency);
  }
  for_each_killer_arc(ctx, k, [&](ddg::NodeId other, ddg::NodeId killer,
                                  ddg::Latency latency) {
    g.add_edge(other, killer, latency);
  });
  return g;
}

bool is_valid_killing(const TypeContext& ctx, const KillingFunction& k) {
  return KillingWorkspace(ctx).valid(k);
}

KillingWorkspace::KillingWorkspace(const TypeContext& ctx)
    : ctx_(ctx),
      nodes_(ctx.ddg().op_count()),
      values_(ctx.value_count()),
      words_((static_cast<std::size_t>(values_) + 63) / 64),
      matching_(0, 0) {
  std::size_t overlay = 0;
  for (int i = 0; i < values_; ++i) overlay += ctx.pkill(i).size();
  overlay_begin_.resize(nodes_ + 1);
  overlay_.resize(overlay);
  indegree_.resize(nodes_);
  order_.reserve(nodes_);
  pos_.resize(nodes_);
  dist_.resize(nodes_);
  slot_.assign(nodes_, -1);
  value_dist_.resize(static_cast<std::size_t>(values_) * values_);
  delta_w_.resize(values_);
  for (int j = 0; j < values_; ++j) {
    delta_w_[j] = ctx.ddg().op(ctx.value_node(j)).delta_w;
  }
  arcs_.resize(values_ * words_);
  reach_.resize(values_ * words_);
  dv_order_.reserve(values_);
}

bool KillingWorkspace::valid(const KillingFunction& k) {
  RS_REQUIRE(static_cast<int>(k.killer.size()) == values_,
             "killing function size mismatch");
  for (int i = 0; i < values_; ++i) {
    const ddg::NodeId killer = k.killer[i];
    if (killer < 0) continue;
    const auto& pk = ctx_.pkill(i);
    if (std::find(pk.begin(), pk.end(), killer) == pk.end()) return false;
  }
  return sort_extended_graph(k);
}

bool KillingWorkspace::sort_extended_graph(const KillingFunction& k) {
  // Overlay arcs counted per source, then placed by counting sort:
  // overlay_begin_[v] ends as the first arc of v.
  std::fill(overlay_begin_.begin(), overlay_begin_.end(), 0);
  for (ddg::NodeId v = 0; v < nodes_; ++v) indegree_[v] = ctx_.in_degree(v);
  for_each_killer_arc(ctx_, k, [&](ddg::NodeId other, ddg::NodeId killer,
                                   ddg::Latency) {
    ++overlay_begin_[other];
    ++indegree_[killer];
  });
  for (ddg::NodeId v = 0; v < nodes_; ++v) {
    overlay_begin_[v + 1] += overlay_begin_[v];
  }
  for_each_killer_arc(ctx_, k, [&](ddg::NodeId other, ddg::NodeId killer,
                                   ddg::Latency latency) {
    overlay_[--overlay_begin_[other]] = TypeContext::Arc{killer, latency};
  });

  const bool dag = graph::kahn_order(
      indegree_, order_, [&](ddg::NodeId u, auto&& release) {
        for (const TypeContext::Arc& a : ctx_.out_arcs(u)) release(a.dst);
        for (int a = overlay_begin_[u]; a < overlay_begin_[u + 1]; ++a) {
          release(overlay_[a].dst);
        }
      });
  if (!dag) return false;
  for (int p = 0; p < nodes_; ++p) pos_[order_[p]] = p;
  return true;
}

void KillingWorkspace::sweep_from(ddg::NodeId killer, std::int64_t* out) {
  // Nothing before the killer's position is reachable from it.
  const int first = pos_[killer];
  std::fill(dist_.begin() + first, dist_.end(), graph::kNoPath);
  dist_[first] = 0;
  const auto relax = [&](std::int64_t from, const TypeContext::Arc& a) {
    std::int64_t& to = dist_[pos_[a.dst]];
    to = std::max(to, from + a.latency);
  };
  for (int p = first; p < nodes_; ++p) {
    const std::int64_t d = dist_[p];
    if (d == graph::kNoPath) continue;
    const ddg::NodeId u = order_[p];
    for (const TypeContext::Arc& a : ctx_.out_arcs(u)) relax(d, a);
    for (int a = overlay_begin_[u]; a < overlay_begin_[u + 1]; ++a) {
      relax(d, overlay_[a]);
    }
  }
  for (int j = 0; j < values_; ++j) {
    const int p = pos_[ctx_.value_node(j)];
    out[j] = p >= first ? dist_[p] : graph::kNoPath;
  }
}

bool KillingWorkspace::load(const KillingFunction& k) {
  RS_REQUIRE(static_cast<int>(k.killer.size()) == values_,
             "killing function size mismatch");
  if (!sort_extended_graph(k)) return false;

  std::fill(arcs_.begin(), arcs_.end(), 0);
  int slots = 0;
  for (int i = 0; i < values_; ++i) {
    const ddg::NodeId killer = k.killer[i];
    if (killer < 0) continue;
    const bool swept = slot_[killer] >= 0;
    if (!swept) slot_[killer] = slots++;
    std::int64_t* lp =
        &value_dist_[static_cast<std::size_t>(slot_[killer]) * values_];
    if (!swept) sweep_from(killer, lp);
    const ddg::Latency dr_killer = ctx_.ddg().op(killer).delta_r;
    std::uint64_t* out = row(arcs_, i);
    for (int j = 0; j < values_; ++j) {
      // u_i surely dead before u_j defined:
      //   sigma(v_j) + dw(v_j) >= sigma(k(u_i)) + dr(k(u_i)) always.
      if (j != i && lp[j] != graph::kNoPath && lp[j] >= dr_killer - delta_w_[j]) {
        out[j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  }
  for (int i = 0; i < values_; ++i) {
    if (k.killer[i] >= 0) slot_[k.killer[i]] = -1;
  }

  // DV_k must be acyclic (a tie cycle makes the order degenerate).
  std::fill(indegree_.begin(), indegree_.begin() + values_, 0);
  for (int i = 0; i < values_; ++i) {
    for_each_bit(row(arcs_, i), words_, [&](int j) { ++indegree_[j]; });
  }
  return graph::kahn_order(
      std::span<int>(indegree_).first(values_), dv_order_,
      [&](int i, auto&& release) { for_each_bit(row(arcs_, i), words_, release); });
}

std::optional<KillingNeed> KillingWorkspace::need(const KillingFunction& k) {
  if (!load(k)) return std::nullopt;
  // Reachability in reverse topological order: each successor's row is
  // complete when it is merged.
  for (auto it = dv_order_.rbegin(); it != dv_order_.rend(); ++it) {
    std::uint64_t* reach = row(reach_, *it);
    std::fill(reach, reach + words_, 0);
    const std::uint64_t* direct = row(arcs_, *it);
    for_each_bit(direct, words_, [&](int j) {
      const std::uint64_t* below = row(reach_, j);
      for (std::size_t w = 0; w < words_; ++w) reach[w] |= below[w];
    });
    for (std::size_t w = 0; w < words_; ++w) reach[w] |= direct[w];
  }
  matching_.reset(values_, values_);
  for (int i = 0; i < values_; ++i) {
    for_each_bit(row(reach_, i), words_, [&](int j) { matching_.add_edge(i, j); });
  }
  graph::AntichainResult ac = graph::maximum_antichain(matching_);
  KillingNeed need;
  need.need = ac.size;
  need.antichain = std::move(ac.members);
  return need;
}

std::optional<graph::Digraph> KillingWorkspace::dv_dag(const KillingFunction& k) {
  if (!load(k)) return std::nullopt;
  graph::Digraph dv(values_);
  for (int i = 0; i < values_; ++i) {
    for_each_bit(row(arcs_, i), words_, [&](int j) { dv.add_edge(i, j, 0); });
  }
  return dv;
}

std::optional<graph::Digraph> disjoint_value_dag(const TypeContext& ctx,
                                                 const KillingFunction& k) {
  return KillingWorkspace(ctx).dv_dag(k);
}

std::optional<KillingNeed> killing_need(const TypeContext& ctx,
                                        const KillingFunction& k) {
  return KillingWorkspace(ctx).need(k);
}

sched::Schedule saturating_schedule(const TypeContext& ctx,
                                    const KillingFunction& k,
                                    const std::vector<int>& antichain) {
  RS_REQUIRE(k.complete(), "saturating schedule needs a complete killing function");
  graph::Digraph g = killing_extended_graph(ctx, k);
  // Pairwise liveness forcing: for every ordered pair (u, v) in the
  // antichain, v's definition must land strictly before u's kill:
  //   sigma(k(u)) + dr(k(u)) >= sigma(v) + dw(v) + 1.
  for (const int iu : antichain) {
    const ddg::NodeId killer = k.killer[iu];
    for (const int iv : antichain) {
      if (iv == iu) continue;
      const ddg::NodeId vnode = ctx.value_node(iv);
      if (vnode == killer) continue;  // self-arc; tie handled by offsets
      g.add_edge(vnode, killer,
                 ctx.ddg().op(vnode).delta_w - ctx.ddg().op(killer).delta_r + 1);
    }
  }
  RS_REQUIRE(!graph::has_positive_circuit(g),
             "antichain is not simultaneously realizable (not a DV antichain?)");
  sched::Schedule s;
  s.time = graph::longest_path_to(g);
  return s;
}

}  // namespace rs::core
