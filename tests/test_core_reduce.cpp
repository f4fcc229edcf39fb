// RS reduction (section 4): Theorem 4.2 construction, exact and heuristic
// reduction, the section-4 intLP, the SRC solver, and the minimization
// baseline of the section-6 discussion.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/min_reg.hpp"
#include "core/reduce.hpp"
#include "core/reduce_ilp.hpp"
#include "core/rs_exact.hpp"
#include "core/src_solver.hpp"
#include "ddg/builder.hpp"
#include "ddg/generators.hpp"
#include "ddg/kernels.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/random.hpp"

namespace rs::core {
namespace {

using ddg::kFloatReg;
using ddg::kIntReg;

// --------------------------------------------------------------- SRC ----

TEST(SrcSolver, AsapFeasibleAtCriticalPath) {
  const ddg::Ddg d = ddg::lin_ddot(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const int rs = rs_exact(ctx).rs;
  SrcSolver solver(ctx, rs);  // R = RS: ASAP itself must fit
  const SrcResult r =
      solver.feasible(graph::critical_path(d.graph()), 0, SrcOptions{});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(sched::is_valid(d, r.sigma));
  EXPECT_LE(r.rn, rs);
}

TEST(SrcSolver, TightRegisterBoundForcesLongerMakespan) {
  const ddg::Ddg d = ddg::matmul_unroll4(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  ASSERT_GE(rs.rs, 4);
  const sched::Time cp = graph::critical_path(d.graph());
  SrcOptions opts;
  SrcSolver tight(ctx, rs.rs - 2);
  const SrcResult r = tight.minimize_makespan(opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.makespan, cp);
  EXPECT_LE(r.rn, rs.rs - 2);
}

TEST(SrcSolver, BinaryOperandsNeedTwoRegisters) {
  // Any schedule keeps both operands of an FpAdd alive at its read cycle,
  // so R = 1 is infeasible whatever the makespan budget.
  ddg::KernelBuilder kb(ddg::superscalar_model(), "two");
  const auto a = kb.live_in(kFloatReg, "a");
  const auto b = kb.live_in(kFloatReg, "b");
  kb.fadd("s", a, b);
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  SrcSolver solver(ctx, 1);
  SrcOptions opts;
  opts.slack_limit = 8;
  const SrcResult r = solver.minimize_makespan(opts);
  EXPECT_FALSE(r.feasible);
}

TEST(SrcSolver, LexicographicMaximizesRegisterUse) {
  const ddg::Ddg d = ddg::fir8(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - 1;
  SrcSolver solver(ctx, R);
  const SrcResult r = solver.reduce_lexicographic(rs.rs, SrcOptions{},
                                                  support::SolveContext(30));
  ASSERT_TRUE(r.feasible);
  // The decrement loop fills the register file: RN == R is achievable here
  // because RS > R and fir8's pressure is smoothly tunable.
  EXPECT_EQ(r.rn, R);
}

// ------------------------------------------------- Theorem 4.2 arcs ----

TEST(Extension, PreservesScheduleAndBoundsRs) {
  support::Rng rng(1234);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 12; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 10;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    // Random valid schedule.
    sched::Schedule s = sched::asap(d);
    for (auto& t : s.time) t += rng.next_int(0, 4);
    for (int round = 0; round < d.op_count(); ++round) {
      for (const graph::Edge& e : d.graph().edges()) {
        s.time[e.dst] = std::max(s.time[e.dst], s.time[e.src] + e.latency);
      }
    }
    const int rn = sched::register_need(d, kFloatReg, s);
    const ExtensionResult ext = extend_by_schedule(ctx, s);
    // Read/write tie circuits are possible for arbitrary schedules (the
    // reduction engines filter such witnesses); skip those trials here.
    if (!ext.is_dag) continue;
    // sigma remains valid on G-bar (General latency mode).
    EXPECT_TRUE(sched::is_valid(ext.extended, s));
    // Theorem 4.2: RS(G-bar) == RN_sigma(G).
    const TypeContext ectx(ext.extended, kFloatReg);
    const RsExactResult after = rs_exact(ectx);
    ASSERT_TRUE(after.proven);
    EXPECT_EQ(after.rs, rn) << "trial " << trial;
  }
}

/// A strictly ordered (sequential-semantics) valid schedule: scale ASAP by
/// n+1 and break ties by topological rank. No two ops share a cycle, so
/// Theorem-4.2 extensions cannot create tie circuits.
sched::Schedule sequentialized_asap(const ddg::Ddg& d) {
  const auto order = graph::topo_order(d.graph());
  std::vector<int> rank(d.op_count());
  for (int i = 0; i < d.op_count(); ++i) rank[(*order)[i]] = i;
  sched::Schedule s = sched::asap(d);
  const sched::Time k = d.op_count() + 1;
  for (ddg::NodeId v = 0; v < d.op_count(); ++v) {
    s.time[v] = s.time[v] * k + rank[v];
  }
  return s;
}

TEST(Extension, PaperStrictModeIsStricter) {
  const ddg::Ddg d = ddg::matmul_unroll4(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const sched::Schedule s = sequentialized_asap(d);
  ASSERT_TRUE(sched::is_valid(d, s));
  const ExtensionResult loose = extend_by_schedule(ctx, s, ArcLatencyMode::General);
  const ExtensionResult strict =
      extend_by_schedule(ctx, s, ArcLatencyMode::PaperStrict);
  ASSERT_TRUE(loose.is_dag);
  ASSERT_TRUE(strict.is_dag);
  // Strict arcs carry latency 1 instead of 0: critical path can only grow.
  EXPECT_GE(graph::critical_path(strict.extended.graph()),
            graph::critical_path(loose.extended.graph()));
  // Both still bound RS by the witnessed register need.
  const int rn = sched::register_need(d, kFloatReg, s);
  for (const ExtensionResult* e : {&loose, &strict}) {
    const TypeContext ectx(e->extended, kFloatReg);
    const RsExactResult after = rs_exact(ectx);
    ASSERT_TRUE(after.proven);
    EXPECT_LE(after.rs, rn);
  }
}

TEST(Extension, OriginalArcsAllPreserved) {
  const ddg::Ddg d = ddg::liv_loop1(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const ExtensionResult ext = extend_by_schedule(ctx, sched::asap(d));
  EXPECT_GE(ext.extended.graph().edge_count(), d.graph().edge_count());
  for (graph::EdgeId e = 0; e < d.graph().edge_count(); ++e) {
    const graph::Edge& orig = d.graph().edge(e);
    const graph::Edge& kept = ext.extended.graph().edge(e);
    EXPECT_EQ(orig.src, kept.src);
    EXPECT_EQ(orig.dst, kept.dst);
    EXPECT_EQ(orig.latency, kept.latency);
  }
}

// --------------------------------------------------------- reduction ----

struct ReduceCase {
  const char* kernel;
  int r_offset;
};

class ReduceBothEngines : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceBothEngines, OutputsFitAndOptimalDominates) {
  const auto [kernel, r_offset] = GetParam();
  const ddg::Ddg d = ddg::build_kernel(kernel, ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - r_offset;
  if (R < 2) GTEST_SKIP() << "kernel too small for this offset";

  ReduceOptions opts;
  opts.rs_upper = rs.rs;

  const ReduceResult opt =
      reduce_optimal(ctx, R, opts, support::SolveContext(30));
  ASSERT_EQ(opt.status, ReduceStatus::Reduced) << kernel;
  const ReduceResult heur = reduce_greedy(ctx, R, opts);
  ASSERT_EQ(heur.status, ReduceStatus::Reduced) << kernel;

  for (const ReduceResult* r : {&opt, &heur}) {
    ASSERT_TRUE(r->extended.has_value());
    EXPECT_TRUE(graph::is_dag(r->extended->graph()));
    const TypeContext rctx(*r->extended, kFloatReg);
    const RsExactResult after = rs_exact(rctx);
    ASSERT_TRUE(after.proven);
    EXPECT_LE(after.rs, R) << kernel << " reduction left RS above the limit";
    EXPECT_GE(r->critical_path, r->original_cp);
  }
  // Optimality dominance: exact reduction keeps saturation at least as
  // high as any valid reduction, including the heuristic's.
  const TypeContext hctx(*heur.extended, kFloatReg);
  const int heur_rs = rs_exact(hctx).rs;
  EXPECT_GE(opt.achieved_rs, heur_rs);
}

// complex-mul2 (two fully independent complex products) is the known
// budget-buster — its symmetric search space is exactly the "many days"
// regime the paper reports for CPLEX; EXP-2 reports it as skipped.
INSTANTIATE_TEST_SUITE_P(
    Kernels, ReduceBothEngines,
    ::testing::Values(ReduceCase{"lin-ddot", 1}, ReduceCase{"lin-daxpy", 1},
                      ReduceCase{"liv-loop1", 1}, ReduceCase{"liv-loop1", 2},
                      ReduceCase{"liv-loop5", 1}, ReduceCase{"matmul-u4", 1},
                      ReduceCase{"matmul-u4", 2}, ReduceCase{"estrin8", 1},
                      ReduceCase{"spec-tomcatv", 1}));

TEST(Reduce, AlreadyFitsIsIdentity) {
  const ddg::Ddg d = ddg::lin_dscal(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const int rs = rs_exact(ctx).rs;
  const ReduceResult r = reduce_optimal(ctx, rs + 3, ReduceOptions{});
  EXPECT_EQ(r.status, ReduceStatus::AlreadyFits);
  EXPECT_EQ(r.arcs_added, 0);
  EXPECT_EQ(r.critical_path, r.original_cp);
}

TEST(Reduce, SpillNeededWhenOneRegisterImpossible) {
  ddg::KernelBuilder kb(ddg::superscalar_model(), "two");
  const auto a = kb.live_in(kFloatReg, "a");
  const auto b = kb.live_in(kFloatReg, "b");
  kb.fadd("s", a, b);
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  ReduceOptions opts;
  opts.src.slack_limit = 8;
  const ReduceResult r = reduce_optimal(ctx, 1, opts);
  EXPECT_EQ(r.status, ReduceStatus::SpillNeeded);
  // The heuristic reaches the same verdict (no candidate serialization can
  // separate two operands of one instruction).
  const ReduceResult h = reduce_greedy(ctx, 1, opts);
  EXPECT_EQ(h.status, ReduceStatus::SpillNeeded);
}

TEST(Reduce, GreedyMatchesOptimalOnEasyCases) {
  // Independent loads: reduction is pure serialization, both engines land
  // on RS == R with zero ILP loss (long pole is the latency-17 divide).
  ddg::KernelBuilder kb(ddg::superscalar_model(), "indep");
  const auto p = kb.live_in(kIntReg, "p");
  const auto big = kb.fdiv("slow", kb.fload("x", p), kb.fload("y", p));
  (void)big;
  for (int i = 0; i < 4; ++i) kb.fload("v" + std::to_string(i), p);
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - 1;
  ReduceOptions opts;
  opts.rs_upper = rs.rs;
  const ReduceResult opt = reduce_optimal(ctx, R, opts);
  const ReduceResult heur = reduce_greedy(ctx, R, opts);
  ASSERT_EQ(opt.status, ReduceStatus::Reduced);
  ASSERT_EQ(heur.status, ReduceStatus::Reduced);
  EXPECT_EQ(opt.ilp_loss(), 0);
  EXPECT_EQ(heur.ilp_loss(), 0);
}

// ----------------------------------------------------- section-4 intLP --

TEST(ReduceIlp, MatchesCombinatorialOptimalMakespan) {
  support::Rng rng(77);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 6; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 7;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    const RsExactResult rs = rs_exact(ctx);
    ASSERT_TRUE(rs.proven);
    if (rs.rs < 3) continue;
    const int R = rs.rs - 1;

    // Combinatorial minimum makespan subject to RN <= R.
    SrcOptions sopts;
    const SrcResult src = SrcSolver(ctx, R).minimize_makespan(sopts);
    if (src.status == SrcStatus::LimitHit) continue;

    ReduceIlpOptions iopts;
    iopts.require_all_colors_used = false;  // pure makespan objective
    const ReduceIlpResult ilp =
        reduce_ilp_fixed(ctx, R, iopts, support::SolveContext(120));
    if (!src.feasible) {
      // R below the minimal register need: both must agree on infeasibility
      // (the fixed-R intLP reports it as spill-at-this-R).
      EXPECT_EQ(ilp.status, ReduceStatus::SpillNeeded) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(ilp.status, ReduceStatus::Reduced) << "trial " << trial;
    EXPECT_TRUE(sched::is_valid(d, ilp.sigma));
    EXPECT_LE(sched::register_need(d, kFloatReg, ilp.sigma), R);
    EXPECT_EQ(ilp.makespan, src.makespan)
        << "intLP and SRC search disagree on the optimal makespan";
  }
}

TEST(ReduceIlp, DecrementLoopFindsFeasibleColorCount) {
  const ddg::Ddg d = ddg::lin_ddot(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  // Ask for more colors than values: the all-colors-used constraint is
  // unsatisfiable at first, the decrement loop must recover.
  const int nv = ctx.value_count();
  const ReduceIlpResult r =
      reduce_ilp(ctx, nv + 2, ReduceIlpOptions{}, support::SolveContext(120));
  ASSERT_EQ(r.status, ReduceStatus::Reduced);
  EXPECT_LE(r.colors_used, nv);
  EXPECT_TRUE(sched::is_valid(d, r.sigma));
}

TEST(ReduceIlp, ExtensionInheritsTheoremGuarantee) {
  const ddg::Ddg d = ddg::lin_daxpy(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  ASSERT_GE(rs.rs, 3);
  const ReduceIlpResult r = reduce_ilp_fixed(
      ctx, rs.rs - 1, ReduceIlpOptions{}, support::SolveContext(120));
  ASSERT_EQ(r.status, ReduceStatus::Reduced);
  ASSERT_TRUE(r.extended.has_value());
  const TypeContext ectx(*r.extended, kFloatReg);
  const RsExactResult after = rs_exact(ectx);
  ASSERT_TRUE(after.proven);
  EXPECT_EQ(after.rs, r.achieved_rn);
  EXPECT_LE(after.rs, rs.rs - 1);
}

// ------------------------------------------- VLIW non-positive circuits --

TEST(ReduceVliw, ExtensionsStaySchedulableAndAcyclic) {
  for (const char* kernel : {"lin-ddot", "liv-loop5", "lin-daxpy"}) {
    SCOPED_TRACE(kernel);
    const ddg::Ddg d = ddg::build_kernel(kernel, ddg::vliw_model());
    const TypeContext ctx(d, kFloatReg);
    const RsExactResult rs = rs_exact(ctx);
    ASSERT_TRUE(rs.proven);
    if (rs.rs < 3) continue;
    ReduceOptions opts;
    opts.rs_upper = rs.rs;
    const ReduceResult r = reduce_optimal(ctx, rs.rs - 1, opts);
    ASSERT_EQ(r.status, ReduceStatus::Reduced);
    ASSERT_TRUE(r.extended.has_value());
    // The paper's requirement: the extended DDG admits a topological sort
    // (leaf filter in the solver enforces it).
    EXPECT_TRUE(graph::is_dag(r.extended->graph()));
    EXPECT_FALSE(graph::has_positive_circuit(r.extended->graph()));
    const TypeContext ectx(*r.extended, kFloatReg);
    EXPECT_LE(rs_exact(ectx).rs, rs.rs - 1);
  }
}

// ------------------------------------- differential: filter and bounds --

/// A valid schedule of d: ASAP plus random delays, pushed forward until
/// every arc holds.
sched::Schedule random_valid_schedule(support::Rng& rng, const ddg::Ddg& d) {
  sched::Schedule s = sched::asap(d);
  for (auto& t : s.time) t += rng.next_int(0, 6);
  const auto order = graph::topo_order(d.graph());
  for (const graph::NodeId u : *order) {
    for (const graph::EdgeId e : d.graph().out_edges(u)) {
      const graph::Edge& ed = d.graph().edge(e);
      s.time[ed.dst] = std::max(s.time[ed.dst], s.time[u] + ed.latency);
    }
  }
  return s;
}

TEST(Extension, IsDagFilterMatchesBuiltExtension) {
  support::Rng rng(2024);
  int cyclic = 0, acyclic = 0;
  for (const bool vliw : {false, true}) {
    const auto model = vliw ? ddg::vliw_model() : ddg::superscalar_model();
    for (const int n_ops : {6, 12, 20, 32}) {
      for (int trial = 0; trial < 8; ++trial) {
        ddg::RandomDagParams p;
        p.n_ops = n_ops;
        const ddg::Ddg d = ddg::random_dag(rng, model, p);
        for (const ddg::RegType t : {kFloatReg, kIntReg}) {
          const TypeContext ctx(d, t);
          for (int draw = 0; draw < 8; ++draw) {
            const sched::Schedule s =
                draw == 0 ? sched::asap(d) : random_valid_schedule(rng, d);
            ASSERT_TRUE(sched::is_valid(d, s));
            const bool got = extension_is_dag(ctx, s);
            for (const ArcLatencyMode mode :
                 {ArcLatencyMode::General, ArcLatencyMode::PaperStrict}) {
              EXPECT_EQ(got, extend_by_schedule(ctx, s, mode).is_dag)
                  << "vliw=" << vliw << " n=" << n_ops << " draw=" << draw;
            }
            ++(got ? acyclic : cyclic);
          }
        }
      }
    }
  }
  EXPECT_GT(acyclic, 0);
  EXPECT_GT(cyclic, 0);
}

/// Peak overlap of the left-open intervals ]def, kill] by sorting events,
/// -1 before +1 at equal times: the reference SrcBounds must match.
int event_sort_peak(const std::vector<std::pair<sched::Time, sched::Time>>& lts) {
  std::vector<std::pair<sched::Time, int>> events;
  for (const auto& [def, kill] : lts) {
    if (kill <= def) continue;
    events.emplace_back(def + 1, +1);
    events.emplace_back(kill + 1, -1);
  }
  std::sort(events.begin(), events.end());
  int live = 0, peak = 0;
  for (const auto& [time, delta] : events) {
    live += delta;
    peak = std::max(peak, live);
  }
  return peak;
}

TEST(SrcBounds, MatchEventSortReference) {
  support::Rng rng(77);
  for (const bool vliw : {false, true}) {
    const auto model = vliw ? ddg::vliw_model() : ddg::superscalar_model();
    for (const int n_ops : {6, 12, 20, 32}) {
      for (int trial = 0; trial < 6; ++trial) {
        ddg::RandomDagParams p;
        p.n_ops = n_ops;
        const ddg::Ddg d = ddg::random_dag(rng, model, p);
        // Every third DDG gets a horizon far past the sweep's, which the
        // bounds must handle by sorting instead.
        const sched::Time P = graph::critical_path(d.graph()) +
                              rng.next_int(0, 12) +
                              (trial % 3 == 2 ? 1'000'000'000 : 0);
        const auto lpf = graph::longest_path_from(d.graph());
        const auto asap = graph::longest_path_to(d.graph());
        for (const ddg::RegType t : {kFloatReg, kIntReg}) {
          const TypeContext ctx(d, t);
          SrcBounds bounds(ctx, P);  // reused across draws, as in the DFS
          for (int draw = 0; draw < 10; ++draw) {
            // A partial schedule: every time in the DFS's range [0, P].
            std::vector<sched::Time> sigma(d.op_count()), earliest(d.op_count());
            for (graph::NodeId v = 0; v < d.op_count(); ++v) {
              const int hi = static_cast<int>(P - lpf[v]);
              earliest[v] = rng.next_int(static_cast<int>(asap[v]), hi);
              sigma[v] = draw == 0 || rng.next_int(0, 1) == 0
                             ? rng.next_int(static_cast<int>(earliest[v]), hi)
                             : -1;
            }
            std::vector<std::pair<sched::Time, sched::Time>> lower_lts, upper_lts;
            for (int i = 0; i < ctx.value_count(); ++i) {
              const ddg::NodeId u = ctx.value_node(i);
              const sched::Time w = d.op(u).delta_w;
              sched::Time lo_kill = sigma[u] + w;
              sched::Time up_def = (sigma[u] >= 0 ? sigma[u] : earliest[u]) + w;
              sched::Time up_kill = up_def;
              for (const ddg::NodeId v : ctx.cons(i)) {
                const sched::Time r = d.op(v).delta_r;
                lo_kill = std::max(
                    lo_kill, (sigma[v] >= 0 ? sigma[v] : earliest[v]) + r);
                up_kill = std::max(
                    up_kill, (sigma[v] >= 0 ? sigma[v] : P - lpf[v]) + r);
              }
              if (sigma[u] >= 0) lower_lts.emplace_back(sigma[u] + w, lo_kill);
              upper_lts.emplace_back(up_def, up_kill);
            }
            SCOPED_TRACE("vliw=" + std::to_string(vliw) + " n=" +
                         std::to_string(n_ops) + " draw=" + std::to_string(draw));
            EXPECT_EQ(bounds.lower(sigma, earliest), event_sort_peak(lower_lts));
            EXPECT_EQ(bounds.upper(sigma, earliest, lpf),
                      event_sort_peak(upper_lts));
            if (draw == 0) {
              // Fully scheduled: the lower bound is the register need.
              sched::Schedule s;
              s.time = sigma;
              EXPECT_EQ(bounds.lower(sigma, earliest),
                        sched::register_need(d, t, s));
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------- minimization (Fig 2) --

TEST(MinReg, LargeBudgetsAndLatenciesCostNoHorizonMemory) {
  // A chain a -> b -> c: its values never overlap, so RN is 1 under any
  // budget. A makespan budget of 1e9 or 1e12 cycles, or a 1e9-cycle arc,
  // must neither allocate per cycle of the horizon nor change the answer.
  const auto chain = [](ddg::Latency big) {
    ddg::KernelBuilder kb(ddg::superscalar_model(), "chain");
    const auto a = kb.live_in(kFloatReg, "a");
    const auto b = kb.flong("b", a);
    const auto c = kb.flong("c", b);
    if (big > 0) kb.serial(b, c, big);
    return kb.build();
  };
  for (const ddg::Latency big : {ddg::Latency{0}, ddg::Latency{1'000'000'000}}) {
    const ddg::Ddg d = chain(big);
    const TypeContext ctx(d, kFloatReg);
    const sched::Time cp = graph::critical_path(d.graph());
    for (const sched::Time budget :
         {sched::Time{0}, sched::Time{1'000'000'000}, sched::Time{1'000'000'000'000}}) {
      if (budget > 0 && budget < cp) continue;
      SCOPED_TRACE("big=" + std::to_string(big) +
                   " budget=" + std::to_string(budget));
      const MinRegResult r = minimize_register_need(ctx, budget, SrcOptions{});
      ASSERT_TRUE(r.proven);
      EXPECT_EQ(r.min_need, 1);
      EXPECT_EQ(r.nodes, 5);  // the same search tree as at any budget
      EXPECT_EQ(sched::register_need(d, kFloatReg, r.sigma), 1);
      EXPECT_TRUE(sched::is_valid(d, r.sigma));
    }
  }
}

TEST(MinReg, FindsProvableMinimumUnderCpBudget) {
  const ddg::Ddg d = ddg::lin_ddot(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  SrcOptions opts;
  const MinRegResult r = minimize_register_need(ctx, 0, opts);
  ASSERT_TRUE(r.proven);
  EXPECT_GE(r.min_need, 2);  // a binary op exists: two operands co-alive
  EXPECT_EQ(sched::register_need(d, kFloatReg, r.sigma), r.min_need);
  // The minimal-need DAG freezes RS down to the minimum.
  ASSERT_TRUE(r.extended.has_value());
  const TypeContext ectx(*r.extended, kFloatReg);
  const RsExactResult after = rs_exact(ectx);
  ASSERT_TRUE(after.proven);
  EXPECT_EQ(after.rs, r.min_need);
}

TEST(MinReg, MinimizationIsMoreRestrictiveThanReduction) {
  // The section-6 argument: with R registers available, RS reduction keeps
  // RS(G-bar) near R while minimization pins it to the minimum need.
  const ddg::Ddg d = ddg::matmul_unroll4(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - 1;
  ReduceOptions ropts;
  ropts.rs_upper = rs.rs;
  const ReduceResult red = reduce_optimal(ctx, R, ropts);
  ASSERT_EQ(red.status, ReduceStatus::Reduced);
  SrcOptions sopts;
  const MinRegResult min = minimize_register_need(ctx, red.critical_path, sopts);
  ASSERT_TRUE(min.proven);
  EXPECT_LT(min.min_need, red.achieved_rs)
      << "minimization should under-use the register file";
}

}  // namespace
}  // namespace rs::core
