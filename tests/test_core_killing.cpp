#include <gtest/gtest.h>

#include <algorithm>

#include "core/context.hpp"
#include "core/greedy_k.hpp"
#include "core/killing.hpp"
#include "ddg/builder.hpp"
#include "ddg/generators.hpp"
#include "ddg/kernels.hpp"
#include "graph/antichain.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace rs::core {
namespace {

using ddg::kFloatReg;
using ddg::kIntReg;

/// value v read by a, b, c with a -> c path: pkill = {b, c}.
ddg::Ddg pkill_fixture() {
  ddg::KernelBuilder kb(ddg::superscalar_model(), "pkill");
  const auto p = kb.live_in(kIntReg, "p");
  const auto v = kb.fload("v", p);
  const auto a = kb.op(ddg::OpClass::FpAdd, kFloatReg, "a", {v});
  kb.op(ddg::OpClass::FpAdd, kFloatReg, "b", {v});
  kb.op(ddg::OpClass::FpAdd, kFloatReg, "c", {v, a});
  return kb.build();
}

TEST(Context, PkillExcludesDominatedReaders) {
  const ddg::Ddg d = pkill_fixture();
  const TypeContext ctx(d, kFloatReg);
  ddg::NodeId v = -1, a = -1, b = -1, c = -1;
  for (ddg::NodeId n = 0; n < d.op_count(); ++n) {
    if (d.op(n).name == "v") v = n;
    if (d.op(n).name == "a") a = n;
    if (d.op(n).name == "b") b = n;
    if (d.op(n).name == "c") c = n;
  }
  const int vi = ctx.index_of(v);
  ASSERT_GE(vi, 0);
  const auto& pk = ctx.pkill(vi);
  EXPECT_EQ(pk.size(), 2u);
  EXPECT_TRUE(std::find(pk.begin(), pk.end(), b) != pk.end());
  EXPECT_TRUE(std::find(pk.begin(), pk.end(), c) != pk.end());
  EXPECT_TRUE(std::find(pk.begin(), pk.end(), a) == pk.end());  // a before c
}

TEST(Context, PkillSubsetOfConsumersEverywhere) {
  support::Rng rng(41);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 20; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 12;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    for (int i = 0; i < ctx.value_count(); ++i) {
      EXPECT_FALSE(ctx.pkill(i).empty());
      for (const ddg::NodeId k : ctx.pkill(i)) {
        const auto& cons = ctx.cons(i);
        EXPECT_TRUE(std::find(cons.begin(), cons.end(), k) != cons.end());
      }
    }
  }
}

TEST(Context, RequiresNormalizedValues) {
  ddg::KernelBuilder kb(ddg::superscalar_model(), "raw");
  const auto x = kb.live_in(kFloatReg, "x");
  kb.fmul("y", x, x);
  const ddg::Ddg raw = kb.build_raw();  // y unconsumed
  EXPECT_THROW(TypeContext(raw, kFloatReg), support::PreconditionError);
}

TEST(Context, SurelyDeadBeforeOnChain) {
  // load a -> use(a) -> load b (serial after use) : a dead before b defined.
  ddg::KernelBuilder kb(ddg::superscalar_model(), "chain");
  const auto p = kb.live_in(kIntReg, "p");
  const auto a = kb.fload("a", p);
  const auto use = kb.op(ddg::OpClass::FpAdd, kFloatReg, "use", {a});
  const auto b = kb.op(ddg::OpClass::FpAdd, kFloatReg, "b", {use});
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  const int ia = ctx.index_of(a);
  const int ib = ctx.index_of(b);
  ASSERT_GE(ia, 0);
  ASSERT_GE(ib, 0);
  EXPECT_TRUE(ctx.surely_dead_before(ia, ib));
  EXPECT_FALSE(ctx.surely_dead_before(ib, ia));
}

TEST(Killing, ExtendedGraphAddsOnlyKillerArcs) {
  const ddg::Ddg d = pkill_fixture();
  const TypeContext ctx(d, kFloatReg);
  KillingFunction k(ctx.value_count());
  const graph::Digraph base = killing_extended_graph(ctx, k);
  EXPECT_EQ(base.edge_count(), d.graph().edge_count());  // nothing assigned
  // Assign each value its last potential killer: still a DAG.
  for (int i = 0; i < ctx.value_count(); ++i) {
    k.killer[i] = ctx.pkill(i).back();
  }
  EXPECT_TRUE(is_valid_killing(ctx, k));
  const graph::Digraph ext = killing_extended_graph(ctx, k);
  EXPECT_GE(ext.edge_count(), base.edge_count());
  EXPECT_TRUE(graph::is_dag(ext));
}

TEST(Killing, InvalidKillerRejected) {
  const ddg::Ddg d = pkill_fixture();
  const TypeContext ctx(d, kFloatReg);
  KillingFunction k(ctx.value_count());
  // A node that is not even a consumer.
  k.killer[0] = 0;
  bool valid = true;
  const auto& pk = ctx.pkill(0);
  if (std::find(pk.begin(), pk.end(), 0) == pk.end()) valid = false;
  EXPECT_EQ(is_valid_killing(ctx, k), valid);
}

TEST(Killing, TopoLastKillerAlwaysValid) {
  // The fallback lemma used by greedy-k: choosing the topologically last
  // potential killer for every value keeps the extension acyclic.
  support::Rng rng(4242);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 25; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 12;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    const auto order = graph::topo_order(d.graph());
    ASSERT_TRUE(order.has_value());
    std::vector<int> pos(d.op_count());
    for (int i = 0; i < d.op_count(); ++i) pos[(*order)[i]] = i;
    KillingFunction k(ctx.value_count());
    for (int i = 0; i < ctx.value_count(); ++i) {
      k.killer[i] = *std::max_element(
          ctx.pkill(i).begin(), ctx.pkill(i).end(),
          [&](ddg::NodeId a, ddg::NodeId b) { return pos[a] < pos[b]; });
    }
    EXPECT_TRUE(is_valid_killing(ctx, k)) << "trial " << trial;
  }
}

TEST(Killing, DvDagArcsImplyNeverInterfereUnderExtendedGraph) {
  // If DV has arc i -> j then no schedule *of the killing-extended graph*
  // can overlap those lifetimes (the theorem quantifies over Sigma(G->k),
  // where the chosen killer really is the last reader).
  support::Rng rng(5);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 10; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 10;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    const RsEstimate est = greedy_k(ctx);
    const auto dv = disjoint_value_dag(ctx, est.killing);
    ASSERT_TRUE(dv.has_value());
    const graph::Digraph ext = killing_extended_graph(ctx, est.killing);
    // Check against a batch of random valid schedules of G->k.
    for (int s = 0; s < 12; ++s) {
      sched::Schedule sched;
      sched.time = graph::longest_path_to(ext);
      for (auto& t : sched.time) t += rng.next_int(0, 5);
      for (int round = 0; round < ext.node_count(); ++round) {
        for (const graph::Edge& e : ext.edges()) {
          sched.time[e.dst] =
              std::max(sched.time[e.dst], sched.time[e.src] + e.latency);
        }
      }
      ASSERT_TRUE(sched::is_valid(ext, sched));
      ASSERT_TRUE(sched::is_valid(d, sched));  // Sigma(G->k) subset Sigma(G)
      const auto lts = sched::lifetimes(d, kFloatReg, sched);
      for (const graph::Edge& e : dv->edges()) {
        EXPECT_FALSE(lts[e.src].interferes(lts[e.dst]))
            << "DV arc violated by a schedule of G->k";
      }
    }
  }
}

TEST(Killing, SaturatingScheduleRealizesAntichain) {
  support::Rng rng(6);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 15; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 11;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    const RsEstimate est = greedy_k(ctx);
    if (ctx.value_count() == 0) continue;
    ASSERT_TRUE(sched::is_valid(d, est.witness));
    // All antichain values simultaneously alive at some instant: the
    // witnessed register need equals the antichain size.
    EXPECT_EQ(sched::register_need(d, kFloatReg, est.witness),
              static_cast<int>(est.antichain.size()));
  }
}

TEST(Killing, NeedMonotoneUnderAssignment) {
  // Upper-bound property used by the exact search: assigning one more
  // killer never increases the partial antichain bound.
  const ddg::Ddg d = ddg::liv_loop1(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  KillingFunction k(ctx.value_count());
  auto prev = killing_need(ctx, k);
  ASSERT_TRUE(prev.has_value());
  for (int i = 0; i < ctx.value_count(); ++i) {
    k.killer[i] = ctx.pkill(i).back();
    const auto cur = killing_need(ctx, k);
    ASSERT_TRUE(cur.has_value());
    EXPECT_LE(cur->need, prev->need);
    prev = cur;
  }
}

/// Reference DV_k for KillingWorkspace, computed directly: all-pairs longest
/// paths over a copied G->k, then every DV arc.
std::optional<graph::Digraph> reference_dv(const TypeContext& ctx,
                                           const KillingFunction& k) {
  const graph::Digraph ext = killing_extended_graph(ctx, k);
  if (!graph::is_dag(ext)) return std::nullopt;
  const graph::LongestPaths lp(ext);
  const int nv = ctx.value_count();
  graph::Digraph dv(nv);
  for (int i = 0; i < nv; ++i) {
    const ddg::NodeId killer = k.killer[i];
    if (killer < 0) continue;
    for (int j = 0; j < nv; ++j) {
      const ddg::NodeId vj = ctx.value_node(j);
      if (j != i && lp.reaches(killer, vj) &&
          lp.lp(killer, vj) >=
              ctx.ddg().op(killer).delta_r - ctx.ddg().op(vj).delta_w) {
        dv.add_edge(i, j, 0);
      }
    }
  }
  if (!graph::is_dag(dv)) return std::nullopt;
  return dv;
}

/// Edge list as (src, dst) pairs, in insertion order.
std::vector<std::pair<int, int>> arcs_of(const graph::Digraph& g) {
  std::vector<std::pair<int, int>> out;
  for (const graph::Edge& e : g.edges()) out.emplace_back(e.src, e.dst);
  return out;
}

TEST(KillingWorkspace, MatchesAllPairsReferenceOnRandomDags) {
  // Complete and partial killing functions, killers drawn from Cons (so
  // some are outside pkill and some close a circuit in G->k), on both
  // machine models and several sizes; one workspace per context serves
  // every draw, as in the searches.
  support::Rng rng(1212);
  int invalid = 0, valid = 0;
  for (const bool vliw : {false, true}) {
    const auto model = vliw ? ddg::vliw_model() : ddg::superscalar_model();
    for (const int n_ops : {6, 12, 20, 32}) {
      for (int trial = 0; trial < 6; ++trial) {
        ddg::RandomDagParams p;
        p.n_ops = n_ops;
        const ddg::Ddg d = ddg::random_dag(rng, model, p);
        for (const ddg::RegType t : {kFloatReg, kIntReg}) {
          const TypeContext ctx(d, t);
          KillingWorkspace ws(ctx);
          for (int draw = 0; draw < 12; ++draw) {
            KillingFunction k(ctx.value_count());
            const bool partial = draw % 3 == 2;
            for (int i = 0; i < ctx.value_count(); ++i) {
              if (partial && rng.next_int(0, 2) == 0) continue;
              const auto& from = draw % 2 == 0 ? ctx.pkill(i) : ctx.cons(i);
              k.killer[i] =
                  from[rng.next_int(0, static_cast<int>(from.size()) - 1)];
            }
            SCOPED_TRACE("vliw=" + std::to_string(vliw) + " n=" +
                         std::to_string(n_ops) + " draw=" + std::to_string(draw));
            const auto want_dv = reference_dv(ctx, k);
            const auto got = ws.need(k);
            const auto got_dv = ws.dv_dag(k);
            ASSERT_EQ(got.has_value(), want_dv.has_value());
            ASSERT_EQ(got_dv.has_value(), want_dv.has_value());
            EXPECT_EQ(killing_need(ctx, k).has_value(), want_dv.has_value());
            if (!want_dv) {
              ++invalid;
              continue;
            }
            ++valid;
            EXPECT_EQ(arcs_of(*got_dv), arcs_of(*want_dv));
            const graph::AntichainResult want =
                graph::maximum_antichain_of_dag(*want_dv);
            EXPECT_EQ(got->need, want.size);
            EXPECT_EQ(got->antichain, want.members);
          }
        }
      }
    }
  }
  EXPECT_GT(valid, 0);
  EXPECT_GT(invalid, 0);
}

TEST(Killing, VliwOffsetsSupported) {
  const ddg::Ddg d = ddg::lin_daxpy(ddg::vliw_model());
  const TypeContext ctx(d, kFloatReg);
  const RsEstimate est = greedy_k(ctx);
  EXPECT_GE(est.rs, 1);
  ASSERT_TRUE(sched::is_valid(d, est.witness));
  EXPECT_EQ(sched::register_need(d, kFloatReg, est.witness), est.rs);
}

}  // namespace
}  // namespace rs::core
