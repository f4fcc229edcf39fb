#include "core/portfolio.hpp"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "graph/paths.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace rs::core {

const char* strategy_token(Strategy s) {
  switch (s) {
    case Strategy::Exact:
      return "exact";
    case Strategy::Ilp:
      return "ilp";
    case Strategy::Greedy:
      return "greedy";
    case Strategy::Bisect:
      return "bisect";
  }
  return "?";
}

namespace {

using support::StopCause;

// One racing strategy's observable outcome. `score` orders the no-proof
// fallback (larger is better: both RS estimates and min-need bounds are
// lower bounds, so the largest is the tightest).
struct Attempt {
  Strategy strategy = Strategy::Exact;
  support::CancelToken token;
  bool ran = false;
  bool proven = false;
  long long score = -1;
  StopCause stop = StopCause::Cancelled;
  // Start/end offsets against the race-local timer (seconds; -1 = never
  // started). Observability only — results never depend on these.
  double start_s = -1;
  double end_s = -1;
};

// Runs body(i) for every attempt — on the pool when exec provides one,
// inline in priority order otherwise — cancelling the rest as soon as one
// attempt proves, and forwarding parent cancellation to every child token
// while waiting. Returns the winning index: first proven in array
// (priority) order; else best score, ties to the earlier strategy.
int pick_winner(const std::vector<Attempt>& attempts);

// Serial degrade: identical observable behavior to the inline TaskGroup
// path (priority order, early cancellation of the rest once one attempt
// proves), minus its per-attempt allocations — no task closures, no shared
// won flag, no wait machinery. The race setup cost is what the portfolio
// adds on top of the best fixed engine, so it is kept near zero.
int race_serial(std::vector<Attempt>* attempts,
                const std::function<void(int)>& body) {
  bool won = false;
  for (std::size_t i = 0; i < attempts->size(); ++i) {
    Attempt& a = (*attempts)[i];
    if (a.token.cancelled()) {
      a.stop = StopCause::Cancelled;  // lost before starting
      continue;
    }
    body(static_cast<int>(i));
    if (a.proven && !won) {
      won = true;
      for (std::size_t j = 0; j < attempts->size(); ++j) {
        if (j != i) (*attempts)[j].token.request_cancel();
      }
    }
  }
  return pick_winner(*attempts);
}

int race(std::vector<Attempt>* attempts, const std::function<void(int)>& body,
         const support::SolveContext& solve, const Exec& exec) {
  if (exec.fanout_pool() == nullptr) return race_serial(attempts, body);
  auto won = std::make_shared<std::atomic<bool>>(false);
  support::TaskGroup group(exec.fanout_pool());
  for (std::size_t i = 0; i < attempts->size(); ++i) {
    group.run([attempts, &body, won, i] {
      Attempt& a = (*attempts)[i];
      if (a.token.cancelled()) {
        a.stop = StopCause::Cancelled;  // lost before starting
        return;
      }
      body(static_cast<int>(i));
      if (a.proven && !won->exchange(true)) {
        for (std::size_t j = 0; j < attempts->size(); ++j) {
          if (j != i) (*attempts)[j].token.request_cancel();
        }
      }
    });
  }
  group.wait([attempts, &solve] {
    if (solve.cancelled()) {
      for (Attempt& a : *attempts) a.token.request_cancel();
    }
  });
  return pick_winner(*attempts);
}

int pick_winner(const std::vector<Attempt>& attempts) {
  int win = -1;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (attempts[i].ran && attempts[i].proven) {
      win = static_cast<int>(i);
      break;
    }
  }
  if (win < 0) {
    long long best = -1;
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      const Attempt& a = attempts[i];
      if (a.ran && a.score > best) {
        best = a.score;
        win = static_cast<int>(i);
      }
    }
  }
  return win < 0 ? 0 : win;
}

// Flushes per-strategy race durations and loser-cancel latencies into the
// solver profile after a race settles. Cancel latency is the gap between
// the winner returning (the instant it cancelled the rest) and a cancelled
// loser actually coming back — the responsiveness of mid-solve interruption.
void flush_race_profile(const support::SolverProfile* prof,
                        const std::vector<Attempt>& attempts, int win) {
  if (prof == nullptr) return;
  for (const Attempt& a : attempts) {
    if (!a.ran || a.start_s < 0) continue;
    support::Histogram* h = nullptr;
    switch (a.strategy) {
      case Strategy::Exact: h = prof->portfolio_attempt_exact_ms; break;
      case Strategy::Ilp: h = prof->portfolio_attempt_ilp_ms; break;
      case Strategy::Greedy: h = prof->portfolio_attempt_greedy_ms; break;
      case Strategy::Bisect: h = prof->portfolio_attempt_bisect_ms; break;
    }
    if (h != nullptr) h->observe((a.end_s - a.start_s) * 1000.0);
  }
  const Attempt& w = attempts[static_cast<std::size_t>(win)];
  if (!w.ran || !w.proven) return;  // nobody proved: no cancellation wave
  for (std::size_t j = 0; j < attempts.size(); ++j) {
    const Attempt& a = attempts[j];
    if (static_cast<int>(j) == win || !a.ran) continue;
    if (a.stop != StopCause::Cancelled) continue;
    const double latency_ms = (a.end_s - w.end_s) * 1000.0;
    if (latency_ms >= 0) prof->portfolio_cancel_latency_ms->observe(latency_ms);
  }
}

PortfolioTally tally_of(const std::vector<Attempt>& attempts, int win) {
  PortfolioTally t;
  t.races = 1;
  t.wins[static_cast<int>(attempts[win].strategy)] = 1;
  for (std::size_t j = 0; j < attempts.size(); ++j) {
    if (static_cast<int>(j) != win && attempts[j].stop == StopCause::Cancelled) {
      ++t.losers_cancelled;
    }
  }
  return t;
}

}  // namespace

PortfolioResult rs_portfolio(const TypeContext& ctx,
                             const PortfolioOptions& opts,
                             const support::SolveContext& solve,
                             const Exec& exec) {
  PortfolioResult out;
  if (ctx.value_count() == 0) {
    // Nothing to race over; RS is 0 by definition. Tally stays empty.
    const RsExactResult res = rs_exact(ctx, opts.exact, solve);
    out.rs = res.rs;
    out.proven = res.proven;
    out.witness = res.witness;
    out.stats.stop = res.stats.stop;
    return out;
  }

  struct Candidate {
    int rs = 0;
    bool proven = false;
    sched::Schedule witness;
  };
  std::vector<Attempt> attempts(3);
  std::vector<Candidate> results(3);
  attempts[0].strategy = Strategy::Exact;
  attempts[1].strategy = Strategy::Ilp;
  attempts[2].strategy = Strategy::Greedy;

  const support::Timer race_timer;
  const auto body = [&](int i) {
    Attempt& a = attempts[static_cast<std::size_t>(i)];
    Candidate& c = results[static_cast<std::size_t>(i)];
    a.start_s = race_timer.seconds();
    const support::SolveContext child = solve.with_token(a.token);
    switch (a.strategy) {
      case Strategy::Exact: {
        RsExactOptions eopts = opts.exact;
        eopts.greedy = opts.greedy;
        const RsExactResult r = rs_exact(ctx, eopts, child);
        c = Candidate{r.rs, r.proven, r.witness};
        a.stop = r.stats.stop;
        break;
      }
      case Strategy::Ilp: {
        const RsIlpResult r = rs_ilp(ctx, opts.ilp, child);
        c = Candidate{r.rs, r.proven, r.witness};
        a.stop = r.solve_stats.stop;
        break;
      }
      case Strategy::Greedy: {
        const RsEstimate r = greedy_k(ctx, opts.greedy, child);
        c = Candidate{r.rs, false, r.witness};  // witnessed, never proven
        a.stop = r.stats.stop;
        break;
      }
      case Strategy::Bisect:
        RS_CHECK(false);
        break;
    }
    a.ran = true;
    a.proven = c.proven;
    a.score = c.rs;
    a.end_s = race_timer.seconds();
  };

  const int win = race(&attempts, body, solve, exec);
  flush_race_profile(solve.profile(), attempts, win);
  const Attempt& wa = attempts[static_cast<std::size_t>(win)];
  const Candidate& wc = results[static_cast<std::size_t>(win)];
  out.rs = wc.rs;
  out.proven = wc.proven;
  out.winner = wa.strategy;
  out.witness = wc.witness;
  out.stats.stop = wa.ran ? (wc.proven ? StopCause::Proven : wa.stop)
                          : StopCause::Cancelled;
  out.tally = tally_of(attempts, win);
  return out;
}

namespace {

// Binary search on R over [1, |values|] for the smallest feasible register
// count under the makespan budget — the monotone complement of the upward
// ladder in minimize_register_need. Shares that function's trivial case,
// leaf-filter composition, and exhaustion/abort reporting so the two
// strategies are result-compatible by construction: a proven answer always
// ends in the identical feasible() call at the minimal R.
MinRegResult bisect_register_need(const TypeContext& ctx,
                                  sched::Time cp_budget, const SrcOptions& opts,
                                  ArcLatencyMode mode,
                                  const support::SolveContext& solve) {
  MinRegResult result;
  const sched::Time budget =
      cp_budget > 0 ? cp_budget : graph::critical_path(ctx.ddg().graph());
  if (ctx.value_count() == 0) {
    result.proven = true;
    result.sigma = sched::asap(ctx.ddg());
    result.extended = ctx.ddg();
    result.critical_path = budget;
    return result;
  }
  SrcOptions filtered = opts;
  filtered.leaf_filter = [&ctx, &opts](const sched::Schedule& s) {
    if (opts.leaf_filter && !opts.leaf_filter(s)) return false;
    return extension_is_dag(ctx, s);
  };
  int lo = 1;
  int hi = ctx.value_count();
  std::optional<SrcResult> best;
  int best_r = -1;
  const auto probe_at = [&](int r) {
    SrcSolver solver(ctx, r);
    SrcResult feas = solver.feasible(budget, 0, filtered, solve);
    result.nodes += feas.nodes;
    result.stats.merge(feas.stats);
    return feas;
  };
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    SrcResult feas = probe_at(mid);
    if (feas.status == SrcStatus::LimitHit && !feas.feasible) {
      // Inconclusive probe: feasibility at mid is unknown, so the search
      // cannot narrow either way. Report the proven lower bound.
      result.proven = false;
      result.min_need = lo;
      return result;
    }
    if (feas.feasible) {
      hi = mid;
      best = std::move(feas);
      best_r = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (best_r != lo) {
    SrcResult feas = probe_at(lo);
    if (feas.status == SrcStatus::LimitHit && !feas.feasible) {
      result.proven = false;
      result.min_need = lo;
      return result;
    }
    if (!feas.feasible) {
      // lo == |values| and still infeasible: same exhaustion report as the
      // ladder (budget below CP, or no DAG-preserving extension exists).
      result.proven = false;
      result.min_need = ctx.value_count();
      return result;
    }
    best = std::move(feas);
  }
  result.proven = true;
  result.min_need = best->rn;
  result.sigma = best->sigma;
  ExtensionResult ext = extend_by_schedule(ctx, best->sigma, mode);
  result.arcs_added = ext.arcs_added;
  result.critical_path = graph::critical_path(ext.extended.graph());
  result.extended = std::move(ext.extended);
  return result;
}

}  // namespace

MinRegRaceResult minreg_portfolio(const TypeContext& ctx, sched::Time cp_budget,
                                  const SrcOptions& opts, ArcLatencyMode mode,
                                  const support::SolveContext& solve,
                                  const Exec& exec) {
  MinRegRaceResult out;
  if (ctx.value_count() == 0) {
    out.result = minimize_register_need(ctx, cp_budget, opts, mode, solve);
    out.result.nodes = 0;
    const StopCause stop = out.result.stats.stop;
    out.result.stats = support::SolveStats{};
    out.result.stats.stop = stop;
    return out;
  }

  std::vector<Attempt> attempts(2);
  std::vector<MinRegResult> results(2);
  attempts[0].strategy = Strategy::Exact;   // upward ladder
  attempts[1].strategy = Strategy::Bisect;  // binary search on R

  const support::Timer race_timer;
  const auto body = [&](int i) {
    Attempt& a = attempts[static_cast<std::size_t>(i)];
    MinRegResult& r = results[static_cast<std::size_t>(i)];
    a.start_s = race_timer.seconds();
    const support::SolveContext child = solve.with_token(a.token);
    r = a.strategy == Strategy::Exact
            ? minimize_register_need(ctx, cp_budget, opts, mode, child)
            : bisect_register_need(ctx, cp_budget, opts, mode, child);
    a.ran = true;
    a.proven = r.proven;
    a.score = r.min_need;  // no-proof results are lower bounds
    a.stop = r.stats.stop;
    a.end_s = race_timer.seconds();
  };

  const int win = race(&attempts, body, solve, exec);
  flush_race_profile(solve.profile(), attempts, win);
  const Attempt& wa = attempts[static_cast<std::size_t>(win)];
  out.result = std::move(results[static_cast<std::size_t>(win)]);
  out.winner = wa.strategy;
  out.tally = tally_of(attempts, win);
  // Canonicalize: race-timing-dependent effort counters must not reach
  // result lines, payload digests, or cached bytes.
  out.result.nodes = 0;
  const StopCause stop = wa.ran ? (wa.proven ? StopCause::Proven : wa.stop)
                                : StopCause::Cancelled;
  out.result.stats = support::SolveStats{};
  out.result.stats.stop = stop;
  if (!wa.ran) {
    out.result.proven = false;
    out.result.min_need = 0;
  }
  return out;
}

}  // namespace rs::core
