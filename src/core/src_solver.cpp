#include "core/src_solver.hpp"

#include <algorithm>

#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/assert.hpp"

namespace rs::core {

SrcBounds::SrcBounds(const TypeContext& ctx, sched::Time P)
    : ctx_(ctx), P_(P) {
  sched::Time lo_off = 0, hi_off = 0;
  for (ddg::NodeId v = 0; v < ctx.ddg().op_count(); ++v) {
    const ddg::Operation& op = ctx.ddg().op(v);
    lo_off = std::min({lo_off, op.delta_r, op.delta_w});
    hi_off = std::max({hi_off, op.delta_r, op.delta_w});
  }
  // Events sit at def+1 and kill+1 with def, kill in [0, P] + offsets. The
  // sweep pays off while the horizon is a small multiple of the event
  // count; a longer one (a large budget or latency) sorts the events
  // instead, so neither memory nor time per call grows with P.
  const sched::Time events = 2 * static_cast<sched::Time>(ctx.value_count());
  const sched::Time limit = 8 * (events + 1);
  if (P <= limit && hi_off - lo_off <= limit) {
    base_ = lo_off + 1;
    diff_.assign(static_cast<std::size_t>(std::max<sched::Time>(P, 0) +
                                          hi_off - lo_off + 1),
                 0);
    lo_ = diff_.size();
  } else {
    events_.reserve(static_cast<std::size_t>(events));
  }
}

void SrcBounds::add(sched::Time def, sched::Time kill) {
  if (kill <= def) return;  // empty lifetime
  if (diff_.empty()) {
    events_.emplace_back(def + 1, +1);
    events_.emplace_back(kill + 1, -1);
    return;
  }
  RS_CHECK(def + 1 >= base_ &&
           kill + 1 - base_ < static_cast<sched::Time>(diff_.size()));
  const auto open = static_cast<std::size_t>(def + 1 - base_);
  const auto close = static_cast<std::size_t>(kill + 1 - base_);
  ++diff_[open];
  --diff_[close];
  lo_ = std::min(lo_, open);
  hi_ = std::max(hi_, close);
}

int SrcBounds::peak() {
  int live = 0, best = 0;
  if (diff_.empty()) {
    std::sort(events_.begin(), events_.end());
    for (const auto& [t, d] : events_) {
      live += d;
      best = std::max(best, live);
    }
    events_.clear();
    return best;
  }
  for (std::size_t t = lo_; t <= hi_; ++t) {
    live += diff_[t];
    best = std::max(best, live);
    diff_[t] = 0;
  }
  lo_ = diff_.size();
  hi_ = 0;
  return best;
}

int SrcBounds::lower(std::span<const sched::Time> sigma,
                     std::span<const sched::Time> earliest) {
  const auto read = [&](ddg::NodeId v) {
    return sigma[v] >= 0 ? sigma[v] : earliest[v];
  };
  for (int i = 0; i < ctx_.value_count(); ++i) {
    const ddg::NodeId u = ctx_.value_node(i);
    if (sigma[u] < 0) continue;
    const sched::Time def = sigma[u] + ctx_.ddg().op(u).delta_w;
    add(def, ctx_.kill_date(i, def, read));
  }
  return peak();
}

int SrcBounds::upper(std::span<const sched::Time> sigma,
                     std::span<const sched::Time> earliest,
                     std::span<const std::int64_t> lpf) {
  const auto read = [&](ddg::NodeId v) {
    return sigma[v] >= 0 ? sigma[v] : P_ - lpf[v];
  };
  for (int i = 0; i < ctx_.value_count(); ++i) {
    const ddg::NodeId u = ctx_.value_node(i);
    const sched::Time def =
        (sigma[u] >= 0 ? sigma[u] : earliest[u]) + ctx_.ddg().op(u).delta_w;
    add(def, ctx_.kill_date(i, def, read));
  }
  return peak();
}

namespace {

struct Dfs {
  const TypeContext& ctx;
  const SrcOptions& opts;
  const support::SolveContext& solve;
  int R;
  sched::Time P;
  int rn_target;

  // Only ops that define or read a type-t value get explicit issue times;
  // every other op (address arithmetic, other-typed work) is scheduled
  // as-soon-as-possible implicitly — ASAP dominates for both feasibility
  // and makespan, and such ops cannot change the type-t register need.
  std::vector<bool> relevant;
  std::vector<graph::NodeId> order;  // topological order of relevant ops
  std::vector<std::int64_t> lpf;     // longest path to sinks
  std::vector<sched::Time> earliest; // implied earliest issue per op
  std::vector<sched::Time> sigma;    // -1 = not explicitly scheduled
  SrcBounds bounds;
  // propagate(): raised ops' previous earliest times, popped on undo, and
  // the irrelevant ops whose implicit schedule moved. Both live for the
  // whole search.
  std::vector<std::pair<graph::NodeId, sched::Time>> undo;
  std::vector<graph::NodeId> work;
  sched::Schedule leaf;  // reused leaf schedule buffer
  long nodes = 0;
  long long prunes = 0;
  bool truncated = false;
  bool node_limit_hit = false;
  bool found = false;
  sched::Schedule witness;

  Dfs(const TypeContext& c, const SrcOptions& o,
      const support::SolveContext& s, int r, sched::Time p, int tgt)
      : ctx(c), opts(o), solve(s), R(r), P(p), rn_target(tgt), bounds(c, p) {
    const graph::Digraph& g = ctx.ddg().graph();
    const auto topo = graph::topo_order(g);
    RS_REQUIRE(topo.has_value(), "SRC needs an acyclic DDG");
    relevant.assign(g.node_count(), false);
    for (int i = 0; i < ctx.value_count(); ++i) {
      relevant[ctx.value_node(i)] = true;
      for (const ddg::NodeId v : ctx.cons(i)) relevant[v] = true;
    }
    for (const graph::NodeId v : *topo) {
      if (relevant[v]) order.push_back(v);
    }
    lpf = graph::longest_path_from(g);
    earliest.resize(g.node_count());
    const auto asap = graph::longest_path_to(g);
    for (int v = 0; v < g.node_count(); ++v) earliest[v] = asap[v];
    sigma.assign(g.node_count(), -1);
    undo.reserve(g.node_count());
    work.reserve(g.node_count());
  }

  bool limits_hit() {
    // Cancel flag every node, deadline clock coarsely (see SolveContext).
    if (solve.should_stop(nodes)) return true;
    if (opts.node_limit > 0 && nodes >= opts.node_limit) {
      node_limit_hit = true;
      return true;
    }
    return false;
  }

  /// Raises earliest[] after fixing `u` at time `t`, treating irrelevant
  /// ops as issued at their earliest time (so updates flow through them
  /// transitively). Pushes the old values on `undo` and returns the stack
  /// height to unwind to.
  std::size_t propagate(graph::NodeId u, sched::Time t) {
    const std::size_t mark = undo.size();
    auto raise = [&](const TypeContext::Arc& a, sched::Time from) {
      const sched::Time val = from + a.latency;
      if (val <= earliest[a.dst]) return;
      undo.emplace_back(a.dst, earliest[a.dst]);
      earliest[a.dst] = val;
      if (!relevant[a.dst]) work.push_back(a.dst);  // implicit schedule moved
    };
    for (const TypeContext::Arc& a : ctx.out_arcs(u)) raise(a, t);
    while (!work.empty()) {
      const graph::NodeId v = work.back();
      work.pop_back();
      for (const TypeContext::Arc& a : ctx.out_arcs(v)) raise(a, earliest[v]);
    }
    return mark;
  }

  void unwind(std::size_t mark) {
    while (undo.size() > mark) {
      earliest[undo.back().first] = undo.back().second;
      undo.pop_back();
    }
  }

  bool dfs(std::size_t depth) {
    if (limits_hit()) {
      truncated = true;
      return false;
    }
    ++nodes;
    const int lower = bounds.lower(sigma, earliest);
    if (lower > R) {
      ++prunes;
      return false;
    }
    if (rn_target > 0 && bounds.upper(sigma, earliest, lpf) < rn_target) {
      ++prunes;
      return false;
    }
    if (depth == order.size()) {
      leaf.time = sigma;
      for (graph::NodeId v = 0; v < ctx.ddg().op_count(); ++v) {
        if (leaf.time[v] < 0) leaf.time[v] = earliest[v];  // implicit ASAP
      }
      RS_CHECK(sched::is_valid(ctx.ddg(), leaf));
      // Every value and reader is scheduled, so the lower bound is RN.
      const int rn = lower;
      if (rn > R || rn < rn_target) return false;
      if (opts.leaf_filter && !opts.leaf_filter(leaf)) return false;
      witness = leaf;
      found = true;
      return true;
    }
    const graph::NodeId u = order[depth];
    const sched::Time lo = earliest[u];
    const sched::Time hi = P - lpf[u];
    // Value definitions try early issue first; pure consumers try late
    // issue first when chasing a register-need target (late reads stretch
    // lifetimes), early first otherwise (denser schedules, smaller trees).
    const bool descending =
        rn_target > 0 && !ctx.ddg().op(u).writes_type(ctx.type());
    for (sched::Time step = 0; step <= hi - lo; ++step) {
      const sched::Time t = descending ? hi - step : lo + step;
      sigma[u] = t;
      const std::size_t mark = propagate(u, t);
      const bool ok = dfs(depth + 1);
      unwind(mark);
      if (ok) return true;
      if (truncated) break;
    }
    sigma[u] = -1;
    return false;
  }
};

}  // namespace

SrcSolver::SrcSolver(const TypeContext& ctx, int R) : ctx_(ctx), R_(R) {
  RS_REQUIRE(R >= 1, "need at least one register");
}

SrcResult SrcSolver::feasible(sched::Time P, int rn_target,
                              const SrcOptions& opts,
                              const support::SolveContext& solve) {
  Dfs dfs(ctx_, opts, solve, R_, P, rn_target);
  if (graph::critical_path(ctx_.ddg().graph()) <= P) {
    dfs.dfs(0);
  }
  SrcResult res;
  res.nodes = dfs.nodes;
  res.status = dfs.truncated ? SrcStatus::LimitHit : SrcStatus::Proven;
  res.feasible = dfs.found;
  res.stats.nodes = dfs.nodes;
  res.stats.prunes = dfs.prunes;
  res.stats.solves = 1;
  res.stats.stop = dfs.truncated ? solve.cause_now(dfs.node_limit_hit)
                                 : support::StopCause::Proven;
  solve.record(res.stats);
  if (dfs.found) {
    res.sigma = dfs.witness;
    res.makespan = 0;
    for (graph::NodeId v = 0; v < ctx_.ddg().op_count(); ++v) {
      res.makespan = std::max(
          res.makespan, res.sigma.time[v] + ctx_.ddg().op(v).latency);
    }
    res.rn = sched::register_need(ctx_.ddg(), ctx_.type(), res.sigma);
  }
  return res;
}

SrcResult SrcSolver::minimize_makespan(const SrcOptions& opts,
                                       const support::SolveContext& solve) {
  const sched::Time cp = graph::critical_path(ctx_.ddg().graph());
  support::SolveStats sweep;
  SrcResult last;
  for (sched::Time P = cp; P <= cp + opts.slack_limit; ++P) {
    last = feasible(P, 0, opts, solve);
    sweep.merge(last.stats);
    last.stats = sweep;
    last.nodes = sweep.nodes;
    if (last.feasible) return last;
    if (last.status == SrcStatus::LimitHit) return last;
  }
  // Exhausted the slack window without a witness: infeasible within budget.
  last.status = SrcStatus::LimitHit;
  last.feasible = false;
  last.stats.stop = support::worse_cause(last.stats.stop,
                                         support::StopCause::LimitHit);
  return last;
}

SrcResult SrcSolver::reduce_lexicographic(int rs_upper, const SrcOptions& opts,
                                          const support::SolveContext& solve) {
  const sched::Time cp = graph::critical_path(ctx_.ddg().graph());
  support::SolveStats sweep;
  for (int goal = std::min(R_, rs_upper); goal >= 1; --goal) {
    for (sched::Time P = cp; P <= cp + opts.slack_limit; ++P) {
      SrcResult r = feasible(P, goal, opts, solve);
      sweep.merge(r.stats);
      r.stats = sweep;
      r.nodes = sweep.nodes;
      if (r.feasible) return r;
      if (r.status == SrcStatus::LimitHit) return r;
    }
  }
  SrcResult res;
  res.feasible = false;
  res.status = SrcStatus::Proven;  // exhausted all goals within windows
  res.stats = sweep;
  res.nodes = sweep.nodes;
  return res;
}

}  // namespace rs::core
