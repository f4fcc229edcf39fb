// rsbench: the benchmark's in-process helper (see perfbench/run.py).
//
//   rsbench gen <workload> <seed> <dir>     write the workload's inputs
//   rsbench greedy <manifest>               greedy_k RS per analyze line
//   rsbench load <port> <variants> <per-item> <plan> <conns> <seconds>
//                <offset> <out>             closed-loop socket load
//   rsbench layers <workload> <dir> <cache-dir> <mem-mb>
//                                           time each layer's public calls
//
// Every input comes from the repository's own generators (ddg/generators,
// cfg/generators) and the kernel corpus; the same seed gives the same
// files byte for byte. The program under test only ever sees these files.
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cfg/canon.hpp"
#include "cfg/cfg.hpp"
#include "cfg/generators.hpp"
#include "cfg/global_rs.hpp"
#include "cfg/io.hpp"
#include "core/context.hpp"
#include "core/greedy_k.hpp"
#include "core/killing.hpp"
#include "core/reduce.hpp"
#include "core/rs_exact.hpp"
#include "core/rs_ilp.hpp"
#include "core/src_solver.hpp"
#include "ddg/canon.hpp"
#include "ddg/generators.hpp"
#include "ddg/io.hpp"
#include "ddg/kernels.hpp"
#include "ddg/machine.hpp"
#include "graph/antichain.hpp"
#include "graph/paths.hpp"
#include "graph/transitive.hpp"
#include "lp/branch_bound.hpp"
#include "lp/simplex.hpp"
#include "service/codec.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "support/random.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace fs = std::filesystem;
using rs::support::Rng;

namespace {

// Budgets sit far above any solve in the mix, so requests stop only on
// proofs or on the solvers' node limits, which are deterministic.
constexpr int kBatchBudget = 600;
// ilp-race kernels: long enough that complex-mul2 reaches its simplex
// refactorization failure (about 1.1 s) on every run instead of timing out
// first.
constexpr int kIlpKernelBudget = 2;
// ilp-race DAGs: a short budget caps what one unlucky intLP can cost, so
// the timeouts a seed draws move throughput little; they count against
// decided_share instead.
constexpr double kIlpDagBudget = 0.5;
constexpr int kIlpDags = 40;
// serve-warm: working-set size and the number of renumbered variants
// pre-generated per item.
constexpr int kServeDdgItems = 800;
constexpr int kServeProgItems = 40;
constexpr int kServeVariants = 4;

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + p.string());
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// The same DAG under a seeded renumbering and renaming of its ops: op and
/// arc lines are shuffled and every op gets a fresh name, so the program
/// must canonicalize to recognize it.
std::string renumber_ddg(const std::string& text, Rng& rng,
                         const std::string& tag) {
  std::vector<std::string> header, ops, arcs;
  for (const std::string& line : split_lines(text)) {
    if (line.rfind("op ", 0) == 0) {
      ops.push_back(line);
    } else if (line.rfind("flow ", 0) == 0 || line.rfind("serial ", 0) == 0) {
      arcs.push_back(line);
    } else if (!line.empty()) {
      header.push_back(line);
    }
  }
  shuffle(ops, rng);
  shuffle(arcs, rng);
  std::map<std::string, std::string> rename;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    rename[split_ws(ops[i])[1]] = tag + "v" + std::to_string(i);
  }
  std::ostringstream os;
  for (const std::string& h : header) {
    std::vector<std::string> t = split_ws(h);
    for (std::string& tok : t) {
      if (tok.rfind("bottom=", 0) == 0) tok = "bottom=" + rename.at(tok.substr(7));
    }
    if (t.size() > 1 && t[0] == "ddg") t[1] = tag;
    for (std::size_t i = 0; i < t.size(); ++i) os << (i ? " " : "") << t[i];
    os << '\n';
  }
  for (const std::string& line : ops) {
    std::vector<std::string> t = split_ws(line);
    t[1] = rename.at(t[1]);
    for (std::size_t i = 0; i < t.size(); ++i) os << (i ? " " : "") << t[i];
    os << '\n';
  }
  for (const std::string& line : arcs) {
    std::vector<std::string> t = split_ws(line);
    t[1] = rename.at(t[1]);
    t[2] = rename.at(t[2]);
    for (std::size_t i = 0; i < t.size(); ++i) os << (i ? " " : "") << t[i];
    os << '\n';
  }
  return os.str();
}

/// The same program with every block and value renamed (cfg::fingerprint
/// is rename-invariant, so each variant must hit the same cache entry).
std::string rename_prog(const std::string& text, const std::string& tag) {
  std::map<std::string, std::string> rename;
  auto fresh = [&](const std::string& name) {
    auto it = rename.find(name);
    if (it != rename.end()) return it->second;
    const std::string n = tag + "_" + std::to_string(rename.size());
    rename.emplace(name, n);
    return n;
  };
  std::ostringstream os;
  for (const std::string& line : split_lines(text)) {
    std::vector<std::string> t = split_ws(line);
    if (t.empty()) continue;
    if (t[0] == "prog" && t.size() > 1) {
      t[1] = tag;
    } else if ((t[0] == "block" || t[0] == "def") && t.size() > 1) {
      t[1] = fresh(t[1]);
    } else if (t[0] == "edge" && t.size() > 2) {
      t[1] = fresh(t[1]);
      t[2] = fresh(t[2]);
    }
    for (std::string& tok : t) {
      if (tok.rfind("uses=", 0) != 0) continue;
      std::string out = "uses=";
      std::istringstream in(tok.substr(5));
      std::string v;
      bool first = true;
      while (std::getline(in, v, ',')) {
        out += (first ? "" : ",") + fresh(v);
        first = false;
      }
      tok = out;
    }
    for (std::size_t i = 0; i < t.size(); ++i) os << (i ? " " : "") << t[i];
    os << '\n';
  }
  return os.str();
}

rs::ddg::Ddg random_ddg(Rng& rng, int lo, int hi) {
  rs::ddg::RandomDagParams p;
  p.n_ops = rng.next_int(lo, hi);
  p.edge_prob = std::min(0.5, 2.5 / p.n_ops + 0.04);
  return rs::ddg::random_dag(rng, rs::ddg::superscalar_model(), p);
}

rs::cfg::Cfg random_program(Rng& rng, int i) {
  const rs::ddg::MachineModel model = rs::ddg::superscalar_model();
  rs::cfg::BlockParams bp;
  bp.ops = rng.next_int(4, 6);
  switch (i % 3) {
    case 0: return rs::cfg::random_chain(rng, model, rng.next_int(3, 5), bp);
    case 1: return rs::cfg::random_diamond(rng, model, bp);
    default: return rs::cfg::random_switch(rng, model, rng.next_int(2, 3), bp);
  }
}

/// Greedy RS per register type: a witnessed lower bound on RS.
std::vector<int> greedy_rs(const rs::ddg::Ddg& dag) {
  const rs::ddg::Ddg g = dag.normalized();
  std::vector<int> out;
  for (int t = 0; t < g.type_count(); ++t) {
    const rs::core::TypeContext ctx(g, t);
    out.push_back(rs::core::greedy_k(ctx).rs);
  }
  return out;
}

/// Limits strictly below RS on every type that has more than one value.
std::string limits_below(const std::vector<int>& rs_lower, int cut) {
  std::string s;
  for (std::size_t t = 0; t < rs_lower.size(); ++t) {
    s += (t ? "," : "") + std::to_string(std::max(1, rs_lower[t] - cut));
  }
  return s;
}

std::string ddg_payload(const rs::ddg::Ddg& dag, Rng& rng,
                        const std::string& tag) {
  return "ddg=" +
         rs::service::escape_field(renumber_ddg(rs::ddg::to_text(dag), rng, tag));
}

// ------------------------------------------------------------------- gen

// Seed-independent core of batch-cold. Exact-search cost depends on the op
// numbering, and one program or spill input can cost five times another,
// so the SRC kernels run as kernel= payloads and a reference bank (random
// DAGs for analyze and spill, programs) is drawn from a fixed seed and sent
// as generated: this work is the same for every --seed, which keeps
// throughput comparable across seeds. The seed draws the rest (the
// reduce, minreg and analyze DAGs and their renumbering).
constexpr std::uint64_t kBankSeed = 0xB4A9C0DEULL;
constexpr int kBankDags = 60;
// minreg and reduce exact=1 on corpus kernels whose SRC search ends in a
// proof within about a second (measured), heaviest first so the pool never
// waits on a late long request.
const char* const kSrcKernels[] = {
    "minreg spec-spice vliw",         "reduce matmul-u4 superscalar",
    "reduce liv-loop2 vliw",          "minreg fft-bfly superscalar",
    "minreg fft-bfly vliw",           "minreg liv-loop1 superscalar",
    "minreg liv-loop1 vliw",          "reduce liv-loop1 superscalar",
    "minreg spec-dod vliw",           "reduce stencil3-u2 superscalar",
    "minreg spec-dod superscalar"};
// The batch workloads' one-at-a-time pass (c1.txt): one deterministic
// request of 50-100 ms, repeated under distinct budgets so each repetition
// is its own cache key and computes. Scheduler stalls stay small next to
// the work, which keeps the tail steady: with 8-ms requests a stall doubled
// some round trips and the p95 of 200 spread 0.47 across runs.
constexpr int kC1Repeats = 60;

std::string kernel_payload(const std::string& spec, std::string* tag) {
  const std::string kernel = spec.substr(0, spec.find(' '));
  const std::string model = spec.substr(spec.find(' ') + 1);
  *tag = kernel + "." + model;
  return "kernel=" + kernel + " model=" + model;
}

rs::ddg::Ddg corpus_kernel(const std::string& spec) {
  const std::string model = spec.substr(spec.find(' ') + 1);
  return rs::ddg::build_kernel(spec.substr(0, spec.find(' ')),
                               model == "vliw" ? rs::ddg::vliw_model()
                                               : rs::ddg::superscalar_model());
}

void gen_batch_cold(Rng& rng, const fs::path& dir) {
  std::ostringstream m, c1;
  const std::string budget = " budget=" + std::to_string(kBatchBudget);
  std::string tag;
  for (const std::string spec : kSrcKernels) {
    const std::string op = spec.substr(0, spec.find(' '));
    const std::string kernel = spec.substr(op.size() + 1);
    m << op << ' ' << kernel_payload(kernel, &tag);
    if (op == "reduce") {
      m << " limits=" << limits_below(greedy_rs(corpus_kernel(kernel)), 1)
        << " exact=1 name=x." << tag << budget << '\n';
    } else {
      m << " name=m." << tag << budget << '\n';
    }
  }
  for (int k = 0; k < kC1Repeats; ++k) {
    c1 << "minreg kernel=spec-dod model=superscalar name=c" << k
       << " budget=" << kBatchBudget + k << '\n';
  }
  Rng bank(kBankSeed);
  for (int i = 0; i < kBankDags; ++i) {
    const rs::ddg::Ddg d = random_ddg(bank, 40, 46);
    m << "analyze ddg=" << rs::service::escape_field(rs::ddg::to_text(d))
      << " name=b" << i << budget << '\n';
  }
  for (const char* model : {"superscalar", "vliw"}) {
    for (const std::string& k : rs::ddg::kernel_names()) {
      m << "analyze kernel=" << k << " model=" << model << " name=k." << k
        << "." << model << budget << '\n';
    }
  }
  int n = 0;
  auto next = [&n](const char* prefix) {
    return std::string(prefix) + std::to_string(n++);
  };
  fs::create_directories(dir / "progs");
  for (int i = 0; i < 24; ++i) {
    const std::string t = next("p");
    write_file(dir / "progs" / (t + ".prog"),
               rs::cfg::to_text(random_program(bank, i)));
    if (i % 2 == 0) {
      m << "globalrs file=progs/" << t << ".prog jobs=4 name=" << t << budget
        << '\n';
    } else {
      m << "globalreduce file=progs/" << t << ".prog limits=3,3 jobs=4 name="
        << t << budget << '\n';
    }
  }
  for (int i = 0; i < 60; ++i) {
    const rs::ddg::Ddg d = random_ddg(rng, 16, 32);
    const std::string t = next("r");
    m << "reduce " << ddg_payload(d, rng, t)
      << " limits=" << limits_below(greedy_rs(d), 1) << " name=" << t << budget
      << '\n';
  }
  for (int i = 0; i < 40; ++i) {
    const rs::ddg::Ddg d = random_ddg(rng, 8, 11);
    const std::string t = next("m");
    m << "minreg " << ddg_payload(d, rng, t) << " name=" << t << budget << '\n';
  }
  for (int i = 0; i < 30; ++i) {
    const rs::ddg::Ddg d = random_ddg(bank, 8, 11);
    const std::string t = next("s");
    m << "spill ddg=" << rs::service::escape_field(rs::ddg::to_text(d))
      << " limits=" << limits_below(greedy_rs(d), 1) << " name=" << t << budget
      << '\n';
  }
  for (int i = 0; i < 120; ++i) {
    const std::string t = next("a");
    m << "analyze " << ddg_payload(random_ddg(rng, 16, 32), rng, t)
      << " name=" << t << budget << '\n';
  }
  write_file(dir / "manifest.txt", m.str());
  write_file(dir / "c1.txt", c1.str());
}

void gen_ilp_race(Rng& rng, const fs::path& dir) {
  std::ostringstream m, c1;
  for (const std::string& k : rs::ddg::kernel_names()) {
    m << "analyze kernel=" << k << " model=superscalar engine=ilp name=k." << k
      << " budget=" << kIlpKernelBudget << '\n';
  }
  for (int k = 0; k < kC1Repeats; ++k) {
    c1 << "analyze kernel=liv-loop4 model=superscalar engine=ilp name=c" << k
       << " budget=" << kBatchBudget + k << '\n';
  }
  for (int i = 0; i < kIlpDags; ++i) {
    const rs::ddg::Ddg d = random_ddg(rng, 7, 10);
    const std::string t = "i" + std::to_string(i);
    for (const char* engine : {"ilp", "portfolio"}) {
      m << "analyze " << ddg_payload(d, rng, t) << " engine=" << engine
        << " name=" << t << " budget=" << kIlpDagBudget << '\n';
    }
  }
  write_file(dir / "manifest.txt", m.str());
  write_file(dir / "c1.txt", c1.str());
}

/// serve-warm: fill.txt holds one line per working-set item (the cold
/// pass, item i on line i); variants.txt holds kServeVariants renumbered
/// copies of every item, item-major. run.py draws the timed stream from
/// them.
void gen_serve_warm(Rng& rng, const fs::path& dir) {
  fs::create_directories(dir / "progs");
  const std::string budget = " budget=" + std::to_string(kBatchBudget);
  std::ostringstream fill, var;
  for (int i = 0; i < kServeDdgItems; ++i) {
    const bool reduce = i % 2 == 1;
    const rs::ddg::Ddg d =
        reduce ? random_ddg(rng, 24, 32) : random_ddg(rng, 20, 28);
    const std::string base = rs::ddg::to_text(d);
    const std::string tail =
        (reduce ? " limits=" + limits_below(greedy_rs(d), 1) : "") + budget;
    for (int v = 0; v < kServeVariants; ++v) {
      const std::string t = "w" + std::to_string(i) + "x" + std::to_string(v);
      const std::string line =
          std::string(reduce ? "reduce" : "analyze") + " ddg=" +
          rs::service::escape_field(renumber_ddg(base, rng, t)) + " name=" +
          t + tail + "\n";
      if (v == 0) fill << line;
      var << line;
    }
  }
  for (int i = 0; i < kServeProgItems; ++i) {
    const std::string base = rs::cfg::to_text(random_program(rng, i));
    for (int v = 0; v < kServeVariants; ++v) {
      const std::string t = "g" + std::to_string(i) + "x" + std::to_string(v);
      write_file(dir / "progs" / (t + ".prog"), rename_prog(base, t));
      const std::string line =
          "globalrs file=progs/" + t + ".prog name=" + t + budget + "\n";
      if (v == 0) fill << line;
      var << line;
    }
  }
  write_file(dir / "fill.txt", fill.str());
  write_file(dir / "variants.txt", var.str());
}

int cmd_gen(const std::string& workload, std::uint64_t seed,
            const fs::path& dir) {
  fs::create_directories(dir);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EEDULL);
  if (workload == "batch-cold") {
    gen_batch_cold(rng, dir);
  } else if (workload == "ilp-race") {
    gen_ilp_race(rng, dir);
  } else if (workload == "serve-warm") {
    gen_serve_warm(rng, dir);
  } else {
    std::fprintf(stderr, "rsbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  return 0;
}


// ---------------------------------------------------------------- greedy

/// One line per analyze request of the manifest: "<name> <rs_t0> <rs_t1>
/// ...", greedy_k's witnessed RS per type. run.py checks every reported
/// analyze RS against it (RS >= greedy always holds).
int cmd_greedy(const fs::path& manifest) {
  const std::vector<std::string> lines = split_lines(read_file(manifest));
  fs::current_path(manifest.parent_path());  // file= payloads are relative
  std::uint64_t id = 0;
  for (const std::string& line : lines) {
    if (rs::service::is_blank_or_comment(line)) continue;
    const rs::service::Command c = rs::service::parse_command_line(line, ++id);
    const rs::service::Request& r = c.request;
    if (r.op == nullptr || r.op->name() != "analyze" || r.program) continue;
    std::printf("%s", r.name.c_str());
    for (const int v : greedy_rs(r.ddg)) std::printf(" %d", v);
    std::printf("\n");
  }
  return 0;
}

// ---------------------------------------------------------------- layers

/// Accumulates calls of one layer: total time and how many calls (or
/// units of work, such as simplex pivots) it covered.
struct Meter {
  double ms = 0;
  double units = 0;
  template <typename F>
  auto time(F&& f) {
    const rs::support::Timer t;
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      ms += t.millis();
      units += 1;
    } else {
      auto r = f();
      ms += t.millis();
      units += 1;
      return r;
    }
  }
  double us_per_unit() const { return units > 0 ? ms * 1e3 / units : 0; }
  double ms_per_unit() const { return units > 0 ? ms / units : 0; }
};

struct Layers {
  std::map<std::string, double> out;
  void set(const std::string& k, double v) { out[k] = v; }
  std::string json() const {
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto& [k, v] : out) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os << (first ? "" : ",") << '"' << k << "\":" << buf;
      first = false;
    }
    os << "}";
    return os.str();
  }
};

/// Per-layer timings of one workload's own inputs: the request lines it
/// sends, the payloads its traced run stored under `cache_dir`, and the
/// DDGs and programs those lines carry. Solver layers run on fixed-size
/// prefixes of the inputs so their cost per run stays bounded.
int cmd_layers(const std::string& workload, const fs::path& dir,
               const fs::path& cache_dir, int mem_mb) {
  namespace sv = rs::service;
  fs::current_path(dir);  // file= payloads are relative to the input dir
  const std::vector<std::string> lines = split_lines(
      read_file(workload == "serve-warm" ? "variants.txt" : "manifest.txt"));
  Layers L;

  // service.protocol: parse every line the workload sends.
  Meter parse;
  std::vector<sv::Request> reqs;
  std::uint64_t id = 0;
  for (const std::string& line : lines) {
    if (sv::is_blank_or_comment(line)) continue;
    sv::Command c = parse.time([&] { return sv::parse_command_line(line, ++id); });
    reqs.push_back(std::move(c.request));
  }
  L.set("service.protocol.parse_us", parse.us_per_unit());

  // Canonical fingerprints of the (renumbered) payloads.
  Meter ddg_fp, cfg_fp;
  std::vector<rs::ddg::Ddg> dags;  // normalized, in request order
  std::vector<std::size_t> analyzed;  // indices of the analyze requests' DDGs
  std::vector<const rs::cfg::Cfg*> progs;
  std::vector<sv::CacheKey> keys;
  for (const sv::Request& r : reqs) {
    rs::ddg::Fingerprint fp;
    if (r.program != nullptr) {
      fp = cfg_fp.time([&] { return rs::cfg::fingerprint(*r.program); });
      progs.push_back(r.program.get());
    } else {
      rs::ddg::Ddg g = r.ddg.normalized();
      fp = ddg_fp.time([&] { return rs::ddg::fingerprint(g); });
      if (r.op->name() == "analyze") analyzed.push_back(dags.size());
      dags.push_back(std::move(g));
    }
    keys.push_back(sv::request_key(r, fp));
  }
  // ilp-race sends no programs: time the built-in program corpus instead.
  std::vector<rs::cfg::Cfg> corpus_progs;
  if (progs.empty()) {
    for (const std::string& name : rs::cfg::program_names()) {
      corpus_progs.push_back(
          rs::cfg::build_program(name, rs::ddg::superscalar_model()));
    }
    for (const rs::cfg::Cfg& c : corpus_progs) {
      cfg_fp.time([&] { return rs::cfg::fingerprint(c); });
      progs.push_back(&c);
    }
  }
  L.set("ddg.canon.fingerprint_us", ddg_fp.us_per_unit());
  L.set("cfg.canon.fingerprint_us", cfg_fp.us_per_unit());

  // Store tiers and codec on the payloads the traced run persisted.
  Meter disk_get, disk_put, enc, dec, render, mem_get, mem_put;
  sv::DiskStore stored(sv::DiskStore::Config{cache_dir.string()});
  const fs::path layers_disk = dir / "layers-disk";
  fs::remove_all(layers_disk);
  sv::DiskStore fresh(sv::DiskStore::Config{layers_disk.string()});
  sv::MemoryStore::Config mc;
  mc.max_bytes = static_cast<std::size_t>(mem_mb) << 20;
  sv::MemoryStore mem(mc);
  std::vector<std::size_t> have;  // request indices with a stored payload
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const sv::StoreHit h = disk_get.time([&] { return stored.get(keys[i]); });
    if (h.payload == nullptr) continue;
    have.push_back(i);
    const std::string text = enc.time([&] { return sv::encode_payload(*h.payload); });
    dec.time([&] { return sv::decode_payload(text); });
    sv::Response resp;
    resp.id = i + 1;
    resp.name = reqs[i].name;
    resp.payload = h.payload;
    render.time([&] { return sv::render_response(resp); });
    disk_put.time([&] { fresh.put(keys[i], h.payload, h.payload->bytes()); });
    mem_put.time([&] { mem.put(keys[i], h.payload, h.payload->bytes()); });
  }
  for (const std::size_t i : have) {
    mem_get.time([&] { return mem.get(keys[i]); });
  }
  fs::remove_all(layers_disk);
  L.set("service.store.disk_get_us", disk_get.us_per_unit());
  L.set("service.store.disk_put_us", disk_put.us_per_unit());
  L.set("service.store.mem_get_us", mem_get.us_per_unit());
  L.set("service.store.mem_put_us", mem_put.us_per_unit());
  L.set("service.codec.encode_us", enc.us_per_unit());
  L.set("service.codec.decode_us", dec.us_per_unit());
  L.set("service.protocol.render_us", render.us_per_unit());

  // One in-process engine hit per stored request: the first run() reads
  // the disk tier and promotes, the timed second run() is a memory hit.
  {
    sv::EngineConfig ec;
    ec.threads = 1;
    ec.cache_dir = cache_dir.string();
    sv::AnalysisEngine engine(ec);
    Meter hit;
    for (const std::size_t i : have) {
      engine.run(reqs[i]);
      hit.time([&] { return engine.run(reqs[i]); });
    }
    L.set("service.engine.hit_us", hit.us_per_unit());
  }

  // The analysis layers (greedy_k, killing_need and its steps, rs_exact,
  // the intLP) run on a fixed-size prefix of the DDGs the workload sends
  // to `analyze`, in manifest order: on batch-cold the fixed-seed bank
  // (b<i>, 40-46 ops), on ilp-race the kernel corpus, on serve-warm the
  // analyze items.
  if (analyzed.empty()) {
    for (std::size_t d = 0; d < dags.size(); ++d) analyzed.push_back(d);
  }
  const auto prefix = [&](std::size_t n) {
    return std::vector<std::size_t>(
        analyzed.begin(), analyzed.begin() + std::min(n, analyzed.size()));
  };
  Meter tctx, greedy, need, ext, dv, lpaths, closure, antichain, extend;
  for (const std::size_t d : prefix(16)) {
    for (int t = 0; t < dags[d].type_count(); ++t) {
      const rs::core::TypeContext ctx =
          tctx.time([&] { return rs::core::TypeContext(dags[d], t); });
      if (ctx.value_count() == 0) continue;
      const rs::core::RsEstimate est =
          greedy.time([&] { return rs::core::greedy_k(ctx); });
      need.time([&] { return rs::core::killing_need(ctx, est.killing); });
      const rs::graph::Digraph g =
          ext.time([&] { return rs::core::killing_extended_graph(ctx, est.killing); });
      lpaths.time([&] { return rs::graph::LongestPaths(g); });
      const auto dvd =
          dv.time([&] { return rs::core::disjoint_value_dag(ctx, est.killing); });
      if (dvd) {
        closure.time([&] { return rs::graph::TransitiveClosure(*dvd); });
        antichain.time([&] { return rs::graph::maximum_antichain_of_dag(*dvd); });
      }
      extend.time([&] { return rs::core::extend_by_schedule(ctx, est.witness); });
    }
  }
  L.set("core.type_context_us", tctx.us_per_unit());
  L.set("core.greedy_k_us", greedy.us_per_unit());
  L.set("core.killing_need_us", need.us_per_unit());
  L.set("core.killing.extended_graph_us", ext.us_per_unit());
  L.set("core.killing.dv_dag_us", dv.us_per_unit());
  L.set("graph.longest_paths_us", lpaths.us_per_unit());
  L.set("graph.closure_us", closure.us_per_unit());
  L.set("graph.antichain_us", antichain.us_per_unit());
  L.set("core.extend_by_schedule_us", extend.us_per_unit());

  Meter exact;
  for (const std::size_t d : prefix(6)) {
    for (int t = 0; t < dags[d].type_count(); ++t) {
      const rs::core::TypeContext ctx(dags[d], t);
      exact.time([&] { return rs::core::rs_exact(ctx); });
    }
  }
  L.set("core.rs_exact_ms", exact.ms_per_unit());

  // SRC DFS: a node-capped makespan search one register below greedy RS,
  // on the inputs of the workload's reduce/minreg/spill requests (the
  // first DDGs when it sends none).
  std::vector<std::size_t> src_inputs;
  {
    std::size_t d = 0;
    for (const sv::Request& r : reqs) {
      if (r.program != nullptr) continue;
      const std::string_view op = r.op->name();
      if (op == "reduce" || op == "minreg" || op == "spill") src_inputs.push_back(d);
      ++d;
    }
    if (src_inputs.empty()) {
      for (d = 0; d < dags.size(); ++d) src_inputs.push_back(d);
    }
    src_inputs.resize(std::min<std::size_t>(src_inputs.size(), 8));
  }
  double src_nodes = 0, src_ms = 0;
  for (const std::size_t d : src_inputs) {
    for (int t = 0; t < dags[d].type_count(); ++t) {
      const rs::core::TypeContext ctx(dags[d], t);
      if (ctx.value_count() < 2) continue;
      const int r = std::max(1, rs::core::greedy_k(ctx).rs - 1);
      rs::core::SrcSolver solver(ctx, r);
      rs::core::SrcOptions o;
      o.node_limit = 200000;
      const rs::support::Timer timer;
      const rs::core::SrcResult res = solver.minimize_makespan(o);
      src_ms += timer.millis();
      src_nodes += static_cast<double>(res.nodes);
    }
  }
  L.set("core.src.nodes_per_s", src_ms > 0 ? src_nodes / (src_ms / 1e3) : 0);

  // Program analysis with one job vs a 4-thread pool.
  {
    rs::support::ThreadPool pool(4);
    Meter j1, j4;
    for (std::size_t i = 0; i < std::min<std::size_t>(progs.size(), 8); ++i) {
      j1.time([&] { return rs::cfg::analyze(*progs[i]); });
      rs::core::Exec exec;
      exec.pool = &pool;
      exec.jobs = 4;
      j4.time([&] { return rs::cfg::analyze(*progs[i], {}, {}, exec); });
    }
    L.set("cfg.analyze_ms.jobs1", j1.ms_per_unit());
    L.set("cfg.analyze_ms.jobs4", j4.ms_per_unit());
  }

  // The section-3 intLP: model build, simplex pivots bucketed by row-count
  // tercile (the first two models of each, pivot-capped: a large model's
  // dense pivot costs milliseconds), and branch-and-bound nodes on the
  // smallest models.
  Meter build;
  std::vector<rs::lp::Model> models;
  for (const std::size_t d : prefix(16)) {
    for (int t = 0; t < dags[d].type_count(); ++t) {
      const rs::core::TypeContext ctx(dags[d], t);
      if (ctx.value_count() < 2) continue;
      models.push_back(
          build.time([&] { return rs::core::build_rs_model(ctx, {}); }));
    }
  }
  L.set("core.build_rs_model_us", build.us_per_unit());
  std::sort(models.begin(), models.end(),
            [](const rs::lp::Model& a, const rs::lp::Model& b) {
              return a.constraint_count() < b.constraint_count();
            });
  const char* const bucket[] = {"small", "medium", "large"};
  for (int b = 0; b < 3; ++b) {
    Meter pivot;
    const std::size_t lo = models.size() * b / 3;
    const std::size_t hi = std::min(lo + 2, models.size() * (b + 1) / 3);
    for (std::size_t i = lo; i < hi; ++i) {
      const rs::lp::SimplexSolver solver(models[i]);
      const rs::support::Timer timer;
      const rs::lp::LpResult r = solver.solve(100);
      pivot.ms += timer.millis();
      pivot.units += r.iterations + r.phase1_iterations;
    }
    L.set(std::string("lp.simplex.pivot_us.") + bucket[b], pivot.us_per_unit());
  }
  Meter bb;
  for (std::size_t i = 0; i < std::min<std::size_t>(models.size(), 6); ++i) {
    rs::lp::MipOptions o;
    o.node_limit = 64;
    const rs::support::Timer timer;
    const rs::lp::MipResult r = rs::lp::solve_mip(models[i], o);
    bb.ms += timer.millis();
    bb.units += static_cast<double>(r.nodes);
  }
  L.set("lp.bb.node_us", bb.us_per_unit());

  std::printf("%s\n", L.json().c_str());
  return 0;
}

// ------------------------------------------------------------------ load

/// Closed-loop load against `rsat serve` from this one process: each of
/// `conns` connections keeps one request outstanding, sending the next one
/// as soon as its result line arrives, until `seconds` have passed; the
/// outstanding answers are then collected. Requests come from
/// `plan`, one "<item> <variant>" pair per line from line `offset` on,
/// indexing `variants` (item-major, `per_item` per item). Writes
/// "<item>\t<latency_us>\t<result line>" per answer to `out`, then a final
/// "# window_s=<w> client_cpu_s=<c> lost=<n>" line.
int cmd_load(int port, const fs::path& variants_path, int per_item,
             const fs::path& plan_path, int conns, double seconds,
             std::size_t offset, const fs::path& out_path) {
  using Clock = std::chrono::steady_clock;
  const std::vector<std::string> variants = split_lines(read_file(variants_path));
  std::vector<std::pair<int, int>> plan;
  {
    std::istringstream in(read_file(plan_path));
    int item = 0, v = 0;
    while (in >> item >> v) plan.emplace_back(item, v);
  }
  if (plan.empty()) throw std::runtime_error("empty load plan");
  struct Conn {
    int fd = -1;
    bool lost = false;
    std::string buf;
    std::deque<std::pair<int, Clock::time_point>> pending;  // (item, sent)
  };
  std::vector<Conn> cs(conns);
  std::ostringstream out;
  std::size_t next = offset;
  const Clock::time_point t0 = Clock::now();
  const auto since = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  const auto send_next = [&](Conn& c) {
    const auto& [item, v] = plan[next++ % plan.size()];
    c.pending.emplace_back(item, Clock::now());
    const std::string& line =
        variants.at(static_cast<std::size_t>(item) * per_item + v);
    if (!rs::support::send_all(c.fd, line + "\n")) c.lost = true;
  };
  const std::clock_t cpu0 = std::clock();
  for (Conn& c : cs) {
    c.fd = rs::support::connect_tcp("127.0.0.1", port);
    send_next(c);
  }
  std::vector<pollfd> fds(cs.size());
  Clock::time_point last_progress = Clock::now();
  for (;;) {
    bool waiting = false;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const bool on = !cs[i].lost && !cs[i].pending.empty();
      waiting = waiting || on;
      fds[i] = pollfd{cs[i].fd, static_cast<short>(on ? POLLIN : 0), 0};
    }
    if (!waiting) break;
    ::poll(fds.data(), fds.size(), 1000);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      Conn& c = cs[i];
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const long n = rs::support::recv_some(c.fd, &c.buf);
      if (n == 0 || n == -2) {
        c.lost = true;  // its outstanding requests stay unanswered
        continue;
      }
      std::size_t nl;
      while (!c.pending.empty() && (nl = c.buf.find('\n')) != std::string::npos) {
        const Clock::time_point now = Clock::now();
        const auto [item, sent] = c.pending.front();
        c.pending.pop_front();
        out << item << '\t' << since(sent, now) << '\t' << c.buf.substr(0, nl)
            << '\n';
        c.buf.erase(0, nl + 1);
        last_progress = now;
        if (since(t0, now) < seconds * 1e6 && !c.lost) send_next(c);
      }
    }
    if (since(last_progress, Clock::now()) > 60e6) break;  // server stuck
  }
  const double window = since(t0, Clock::now()) / 1e6;
  const double cpu = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  std::size_t lost = 0;
  for (Conn& c : cs) {
    lost += c.pending.size();
    rs::support::close_fd(c.fd);
  }
  out << "# window_s=" << window << " client_cpu_s=" << cpu
      << " lost=" << lost << '\n';
  write_file(out_path, out.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "gen" && argc == 5) {
      return cmd_gen(argv[2], std::stoull(argv[3]), argv[4]);
    }
    if (cmd == "load" && argc == 10) {
      return cmd_load(std::stoi(argv[2]), argv[3], std::stoi(argv[4]), argv[5],
                      std::stoi(argv[6]), std::stod(argv[7]),
                      std::stoull(argv[8]), argv[9]);
    }
    if (cmd == "greedy" && argc == 3) return cmd_greedy(fs::absolute(argv[2]));
    if (cmd == "layers" && argc == 6) {
      return cmd_layers(argv[2], fs::absolute(argv[3]), fs::absolute(argv[4]),
                        std::stoi(argv[5]));
    }
    std::fprintf(stderr,
                 "usage: rsbench gen <workload> <seed> <dir>\n"
                 "       rsbench greedy <manifest>\n"
                 "       rsbench load <port> <variants> <per-item> <plan> "
                 "<conns> <seconds> <offset> <out>\n"
                 "       rsbench layers <workload> <dir> <cache-dir> <mem-mb>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsbench: %s\n", e.what());
    return 1;
  }
}
