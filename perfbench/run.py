#!/usr/bin/env python3
"""End-to-end benchmark of the rsat analysis service.

    python3 perfbench/run.py --workload batch-cold|serve-warm|ilp-race \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `rsat` and the helper `rsbench` from
the checkout's sources (the repository's CMakeLists.txt and default build
type, into .bench_build/perfbench), generates the workload's inputs from
--seed, drives the real `rsat batch` / `rsat serve` for about --seconds,
checks every output, and prints one JSON object as the
last line of stdout: end-to-end metrics with --trace 0, per-layer metrics
(from a traced pass plus in-process layer timings) with --trace 1.
Workloads, metrics and why they were chosen: perfbench/ledger.json.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RSAT = os.path.join(BUILD, "rs", "rsat")
RSBENCH = os.path.join(BUILD, "rsbench")
THREADS = 4
# serve-warm: memory tier cap (MiB), below the working set's ~1.7 MB of
# payloads, so the disk tier, promotions and evictions all take part.
SERVE_CACHE_MB = 1
SERVE_SETUPS = 5
# Batch workloads: launches timed for setup_s, and one-at-a-time requests
# asked before each timed pass.
SETUP_LAUNCHES = 45
C1_SLICE = 12
# serve-warm splits its timed window: closed loop at 1 connection, then
# closed loop at 4 (the rest), shared among the last C4_SERVERS set-ups'
# servers in turn.
C1_SHARE = 0.2
C4_SERVERS = 4
# Share of the 4-connection round trips cut at each end before the mean:
# 2-11% of them wait for the 20 ms sweep, and a cut near that share would
# let the rate jump with it.
C4_TRIM = 0.25
WORKLOADS = ("batch-cold", "serve-warm", "ilp-race")

children = []  # every process started, so a failure can stop them all


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------- processes

def spawn(args, **kw):
    p = subprocess.Popen(args, **kw)
    children.append(p)
    return p


def reap(p, timeout=120.0):
    """Waits for p, killing it after `timeout` seconds, and returns its
    rusage (peak RSS, CPU time)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            children.remove(p)
            return ru
        if time.monotonic() > deadline:
            p.kill()
        time.sleep(0.005)


def stop_all():
    for p in list(children):
        try:
            p.kill()
        except OSError:
            pass
        try:
            p.wait(timeout=10)
        except Exception:  # noqa: BLE001 - best effort on the way out
            pass
        children.remove(p)


def run_checked(args, **kw):
    r = subprocess.run(args, **kw)
    if r.returncode != 0:
        raise BenchError("command failed (%d): %s" % (r.returncode,
                                                      " ".join(args[:3])))
    return r


# ------------------------------------------------------------------ build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "engine.hpp")):
        raise BenchError("repository sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD],
                    stdout=sys.stderr, stderr=sys.stderr, timeout=300)
    run_checked(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                 "--target", "rsat", "rsbench"],
                stdout=sys.stderr, stderr=sys.stderr, timeout=840)


# ------------------------------------------------------------ batch front

def manifest_names(lines):
    return [bl.parse_fields(l)["name"] for l in lines]


_cache_ids = itertools.count(1)


def fresh_cache(work):
    """A cache dir path no process has used, so the process that gets it
    starts with an empty disk tier."""
    return os.path.join(work, "cache-%d" % next(_cache_ids))


def batch_process(work, cache, trace_dir=None):
    """Starts `rsat batch` on the cache dir and waits until it answers a
    stats line: the program is ready. Returns (process, setup seconds)."""
    args = [RSAT, "batch", "--threads", str(THREADS), "--cache-dir", cache]
    if trace_dir:
        args += ["--trace-file", os.path.join(trace_dir, "trace.jsonl"),
                 "--metrics-json", os.path.join(trace_dir, "metrics.json")]
    t0 = time.perf_counter()
    p = spawn(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
              stderr=subprocess.DEVNULL, cwd=work)
    p.stdin.write(b"stats\n")
    p.stdin.flush()
    if not p.stdout.readline().startswith(b"stats "):
        raise BenchError("rsat batch did not answer its stats line")
    return p, time.perf_counter() - t0


def batch_round(work, manifest, cache, trace_dir=None):
    """One pass of the whole manifest through `rsat batch`, pipelined."""
    p, _ = batch_process(work, cache, trace_dir)
    data = ("\n".join(manifest) + "\n").encode()
    cpu0 = time.process_time()
    t0 = time.perf_counter()

    def feed():
        try:
            p.stdin.write(data)
            p.stdin.close()
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    lines = [l.decode().rstrip("\n") for l in p.stdout]
    wall = time.perf_counter() - t0
    writer.join()
    client_cpu = time.process_time() - cpu0
    ru = reap(p)
    return {
        "lines": lines, "wall": wall, "cache": cache,
        "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
        "client_cpu": client_cpu,
        "ms": [float(bl.parse_fields(l).get("ms", 0)) for l in lines
               if l.startswith("result ")],
    }


class OneAtATime:
    """Closed loop with one request outstanding on `rsat batch`'s stdin:
    the batch front end's per-request latency without queueing. The caller
    asks in slices between the timed passes, so the sample spans the whole
    run as the passes do."""

    def __init__(self, work, cache):
        self.p, self.setup = batch_process(work, cache)
        self.lat, self.lines = [], []

    def ask(self, lines):
        for line in lines:
            t0 = time.perf_counter()
            self.p.stdin.write((line + "\n").encode())
            self.p.stdin.flush()
            self.lines.append(self.p.stdout.readline().decode().rstrip("\n"))
            self.lat.append((time.perf_counter() - t0) * 1e3)

    def close(self):
        self.p.stdin.close()
        self.p.stdout.read()
        reap(self.p)


# ------------------------------------------------------------ serve front

class Server:
    def __init__(self, work, cache, trace_dir=None):
        self.cache = cache
        port_file = os.path.join(work, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        args = [RSAT, "serve", "--port", "0", "--port-file", port_file,
                "--threads", str(THREADS), "--cache-mb", str(SERVE_CACHE_MB),
                "--cache-dir", cache]
        if trace_dir:
            args += ["--trace-file", os.path.join(trace_dir, "trace.jsonl"),
                     "--metrics-json", os.path.join(trace_dir, "metrics.json")]
        self.t0 = time.perf_counter()
        self.p = spawn(args, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, cwd=work)
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            if self.p.poll() is not None or time.monotonic() > deadline:
                raise BenchError("rsat serve did not start")
            time.sleep(0.002)
        with open(port_file) as f:
            self.port = int(f.read().strip())

    def cpu_seconds(self):
        """CPU time of all the server's threads so far, from the scheduler's
        nanosecond run-time counters."""
        total = 0
        tasks = "/proc/%d/task" % self.p.pid
        for tid in os.listdir(tasks):
            with open(os.path.join(tasks, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for rsat serve")

    def scrape_metrics(self):
        with socket.create_connection(("127.0.0.1", self.port)) as s:
            s.sendall(b"metrics\n")
            f = s.makefile("r")
            return bl.read_prometheus(l.rstrip("\n") for l in f)

    def stop(self):
        self.p.send_signal(signal.SIGINT)
        reap(self.p)


def closed_loop(port, work, per_item, conns, seconds, offset):
    """Closed-loop load from one client process (rsbench load): each of
    `conns` connections keeps one request outstanding and sends the next as
    soon as its result line arrives, for `seconds`, drawing requests
    from plan.txt starting at line `offset`. Returns the records [(item,
    latency_ms, result line)], the window in seconds, the client's CPU
    seconds and how many requests never got an answer."""
    out = os.path.join(work, "load.out")
    run_checked([RSBENCH, "load", str(port), os.path.join(work, "variants.txt"),
                 str(per_item), os.path.join(work, "plan.txt"), str(conns),
                 repr(seconds), str(offset), out],
                timeout=seconds + 120)
    records, footer = [], {}
    with open(out) as f:
        for line in f:
            if line.startswith("# "):
                footer = dict(t.split("=") for t in line[2:].split())
                continue
            item, lat_us, result = line.rstrip("\n").split("\t", 2)
            records.append((int(item), float(lat_us) / 1e3, result))
    return (records, float(footer["window_s"]), float(footer["client_cpu_s"]),
            int(footer["lost"]))


def pipelined(port, lines, conns):
    """Sends every line at once, spread over `conns` connections (one
    writer thread each), and returns the result lines that came back."""
    socks = [socket.create_connection(("127.0.0.1", port))
             for _ in range(conns)]
    shares = [lines[i::conns] for i in range(conns)]
    writers = [threading.Thread(target=s.sendall,
                                args=(("\n".join(sh) + "\n").encode(),))
               for s, sh in zip(socks, shares) if sh]
    for w in writers:
        w.start()
    out = []
    for s, sh in zip(socks, shares):
        f = s.makefile("rb")
        for _ in sh:
            line = f.readline()
            if not line:
                break
            out.append(line.decode().rstrip("\n"))
    for w in writers:
        w.join()
    for s in socks:
        s.close()
    return out


# ----------------------------------------------------------------- checks

class Checks:
    """Tallies output checks; every failed check is one wrong result."""

    def __init__(self):
        self.wrong = 0
        self.notes = []

    def fail(self, msg):
        self.wrong += 1
        if len(self.notes) < 10:
            self.notes.append(msg)

    def same_proven(self, passes):
        """Proven result lines must be identical across passes. A line is
        keyed by its name and how often that name came before it in the
        pass (ilp-race sends each DAG twice, under two engines)."""
        ref = {}
        for lines in passes:
            seen = {}
            for line in lines:
                f = bl.parse_fields(line)
                key = (f.get("name"), seen.get(f.get("name"), 0))
                seen[key[0]] = key[1] + 1
                if f.get("status") != "ok" or f.get("stop") != "proven":
                    continue
                norm = bl.normalize_result(line)
                if ref.setdefault(key, norm) != norm:
                    self.fail("proven line differs across passes: %s" % key[0])


def proven_digest(lines):
    """Order-free digest of the proven result lines, printed so runs with
    the same seed can be compared."""
    h = hashlib.sha256()
    for norm in sorted(bl.normalize_result(l) for l in lines
                       if " stop=proven " in l and " status=ok " in l):
        h.update(norm.encode() + b"\n")
    return h.hexdigest()[:16]


def check_batch_cold(work, manifest, lines, checks):
    greedy = {}
    out = run_checked([RSBENCH, "greedy", os.path.join(work, "manifest.txt")],
                      stdout=subprocess.PIPE, timeout=120).stdout.decode()
    for row in out.splitlines():
        name, *vals = row.split()
        greedy[name] = [int(v) for v in vals]
    limits = {}
    for line in manifest:
        f = bl.parse_fields(line)
        if f[""] in ("reduce", "spill") and "limits" in f:
            limits[f["name"]] = [int(v) for v in f["limits"].split(",")]
    for line in lines:
        f = bl.parse_fields(line)
        if f.get("status") != "ok":
            continue
        name = f.get("name")
        if f.get("kind") == "analyze" and name in greedy:
            for t, rs in bl.per_type(f, "rs").items():
                if rs < greedy[name][t]:
                    checks.fail("analyze RS below greedy: %s t%d" % (name, t))
        if f.get("kind") == "reduce" and f.get("success") == "1":
            for t, rs in bl.per_type(f, "rs").items():
                if rs > limits[name][t]:
                    checks.fail("reduce success above limit: %s t%d" % (name, t))


def check_ilp_race(lines, checks):
    by = {}
    for line in lines:
        f = bl.parse_fields(line)
        if f.get("status") == "ok" and f.get("name", "").startswith("i"):
            by.setdefault(f["name"], []).append(f)
    for name, fs in by.items():
        if len(fs) != 2:
            checks.fail("ilp/portfolio pair incomplete: " + name)
            continue
        ilp, port = fs  # the manifest sends the ilp line first
        rs_i, rs_p = bl.per_type(ilp, "rs"), bl.per_type(port, "rs")
        pr_i, pr_p = bl.per_type(ilp, "proven"), bl.per_type(port, "proven")
        for t, v in rs_i.items():
            if pr_i.get(t) == 1 and pr_p.get(t) == 1 and rs_p.get(t) != v:
                checks.fail("ilp and portfolio disagree: %s t%d" % (name, t))


# ------------------------------------------------------------- workloads

def gen(workload, seed, work):
    shutil.rmtree(work, ignore_errors=True)
    run_checked([RSBENCH, "gen", workload, str(seed), work], timeout=120)


def read_lines(path):
    with open(path) as f:
        return [l.rstrip("\n") for l in f if l.strip()]


def run_batch(workload, args, work):
    manifest = read_lines(os.path.join(work, "manifest.txt"))
    c1_lines = read_lines(os.path.join(work, "c1.txt"))
    names = manifest_names(manifest)
    checks = Checks()

    # setup_s: launch until ready, all launches on one cache dir. Only the
    # first creates the dir's 256 fan-out subdirectories, which took 5-150
    # ms here depending on other disk traffic and would swamp the program's
    # own start-up of about 4 ms; the median leaves that launch out.
    setup_cache = fresh_cache(work)
    setups = []
    for _ in range(SETUP_LAUNCHES):
        idle = OneAtATime(work, setup_cache)
        idle.close()
        setups.append(idle.setup)
    c1 = OneAtATime(work, fresh_cache(work))
    c1_todo = list(c1_lines)
    rounds, traced = [], []
    t0 = time.perf_counter()
    # Passes repeat until the window is used up. Trace runs alternate
    # untraced and traced passes, so the overhead compares passes made
    # under the same conditions.
    while True:
        c1.ask(c1_todo[:C1_SLICE])
        del c1_todo[:C1_SLICE]
        trace_dir = None
        if args.trace and len(traced) < len(rounds):
            trace_dir = os.path.join(work, "trace-%d" % len(traced))
            os.makedirs(trace_dir)
        r = batch_round(work, manifest, fresh_cache(work), trace_dir)
        (traced if trace_dir else rounds).append(r)
        if (time.perf_counter() - t0 >= args.seconds and
                (traced or not args.trace)):
            break
    c1.ask(c1_todo)
    c1.close()

    passes = [r["lines"] for r in rounds + traced]
    checks.same_proven(passes)
    attempted = failed = 0
    for lines in passes:
        a, fl, _, _ = bl.count_failures(names, lines)
        attempted, failed = attempted + a, failed + fl
    if workload == "batch-cold":
        check_batch_cold(work, manifest, rounds[0]["lines"], checks)
    else:
        check_ilp_race(rounds[0]["lines"], checks)
    _, c1_failed, _, _ = bl.count_failures(manifest_names(c1_lines),
                                           c1.lines)
    attempted += len(c1_lines)
    failed += c1_failed

    n = len(manifest)
    decided = statistics.median([sum(1 for l in r["lines"] if " stop=proven " in l) / n
                         for r in rounds])
    q, tail_ms, samples = bl.tail(rounds[0]["ms"])
    cq, c1_tail, c1_n = bl.tail(c1.lat)
    log("%s: %d passes of %d requests; proven digest %s; set-ups %s" %
        (workload, len(rounds), n, proven_digest(rounds[0]["lines"]),
         " ".join("%.3f" % x for x in setups)))
    log("latency_tail_ms = p%g of %d requests; c1.latency_tail_ms = p%g of "
        "%d requests" % (q, samples, cq, c1_n))
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median([n / r["wall"] for r in rounds]),
        "cpu_ms_per_req": statistics.median([r["cpu"] * 1e3 / n for r in rounds]),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in rounds]),
        "latency_p50_ms": statistics.median([statistics.median(r["ms"]) for r in rounds]),
        "latency_tail_ms": statistics.median([bl.tail(r["ms"])[1] for r in rounds]),
        "c1.throughput_rps": 1000.0 / bl.trimmed_mean(c1.lat),
        "c1.latency_tail_ms": c1_tail,
        "decided_share": decided,
    }
    summary = {
        "error_share": failed / attempted,
        "wrong_results": checks.wrong,
        "client.cpu_ms_per_req": statistics.median([r["client_cpu"] * 1e3 / n
                                            for r in rounds]),
        "serve.c4.throughput_rps": 0.0,  # no socket path on batch workloads
    }
    layers = None
    if args.trace:
        layers = traced_layers(workload, work, traced, rounds, mem_mb=64)
    return e2e, summary, layers, attempted, failed, checks


def zipf_plan(kinds, per_item, seed, count):
    """The timed request stream as (item, variant) pairs; kinds[i] is item
    i's command. Popularity is Zipf(1) over ranks, and which kind of item
    holds a rank is fixed: every 21st rank a program, the others analyze
    and reduce DDGs in turn. The seed picks the item of that kind at each
    rank and every variant. So no seed puts a costlier kind of request at
    the head of the distribution, where one rank draws up to 13% of the
    stream."""
    rng = random.Random(seed)
    pools = {}
    for i, kind in enumerate(kinds):
        pools.setdefault(kind, []).append(i)
    for pool in pools.values():
        rng.shuffle(pool)
    order = []
    for r in range(len(kinds)):
        want = ("globalrs" if r % 21 == 20 else
                ("analyze", "reduce")[(r - r // 21) % 2])
        pool = pools.get(want) or next(p for p in pools.values() if p)
        order.append(pool.pop())
    weights = [1.0 / (r + 1) for r in range(len(kinds))]
    return [(item, rng.randrange(per_item))
            for item in rng.choices(order, weights=weights, k=count)]


def run_serve(args, work):
    fill = read_lines(os.path.join(work, "fill.txt"))
    variants = read_lines(os.path.join(work, "variants.txt"))
    per_item = len(variants) // len(fill)
    plan = zipf_plan([l.split()[0] for l in fill], per_item, args.seed,
                     200000)
    with open(os.path.join(work, "plan.txt"), "w") as f:
        f.write("".join("%d %d\n" % p for p in plan))
    checks = Checks()
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    by_name = {bl.parse_fields(l)["name"]: i // per_item
               for i, l in enumerate(variants)}

    def item_of(line):
        return by_name.get(bl.parse_fields(line).get("name"), -1)

    def fill_pass(server):
        cold = {item_of(l): l for l in pipelined(server.port, fill, THREADS)}
        return cold, time.perf_counter() - server.t0

    servers, setups, colds, attempted, failed = [], [], [], 0, 0
    for i in range(SERVE_SETUPS):
        last = i == SERVE_SETUPS - 1
        server = Server(work, fresh_cache(work),
                        trace_dir if (last and args.trace) else None)
        cold, setup = fill_pass(server)
        setups.append(setup)
        colds.append(cold)
        servers.append(server)
        a, fl, _, _ = bl.count_failures(
            [bl.parse_fields(l)["name"] for l in fill], list(cold.values()))
        attempted, failed = attempted + a, failed + fl
        if i < SERVE_SETUPS - C4_SERVERS:
            server.stop()
    checks.same_proven([list(c.values()) for c in colds])
    cold_norm = {k: bl.normalize_result(v) for k, v in colds[-1].items()}

    def loop(srv, conns, seconds, offset):
        """Closed loop with one request outstanding per connection. Returns
        (records, window s, client CPU s, unanswered requests, server CPU
        s)."""
        c0 = srv.cpu_seconds()
        recs, window, client_cpu, lost = closed_loop(
            srv.port, work, per_item, conns, seconds, offset)
        return recs, window, client_cpu, lost, srv.cpu_seconds() - c0

    c1_s = args.seconds * C1_SHARE
    c4_s = args.seconds - c1_s
    ref, ref_lost = [], 0
    if args.trace:
        # trace.overhead_pct compares server CPU per request over the
        # 1-connection loop on the traced server and on the last untraced
        # set-up server. That loop is paced by the sweep on both; at 4
        # connections CPU per request also depends on how often the clients
        # lock into the sweep, which varies from run to run.
        c4_s -= c1_s
        ref, _, _, ref_lost, ref_cpu = loop(servers[-2], 1, c1_s, 0)
    r1, _, _, lost1, cpu1 = loop(server, 1, c1_s, 0)
    # The 4-connection figures differ from one server process to the next
    # (four processes filled alike, measured in turn: 2800-4060 req/s), so
    # the loop visits C4_SERVERS servers and the rows take the median.
    offset = len(r1) + lost1
    c4 = []
    for srv in servers[-C4_SERVERS:]:
        c4.append(loop(srv, THREADS, c4_s / C4_SERVERS, offset))
        offset += len(c4[-1][0]) + c4[-1][3]
    live = server.scrape_metrics() if args.trace else None
    rss = statistics.median(srv.peak_rss_mb() for srv in servers[-C4_SERVERS:])
    for srv in servers[-C4_SERVERS:]:
        srv.stop()
    r4 = [rec for recs, _, _, _, _ in c4 for rec in recs]
    lat4_by_server = [[ms for _, ms, _ in recs] for recs, _, _, _, _ in c4]
    lost4 = sum(c[3] for c in c4)

    served = ref + r1 + r4
    lost = ref_lost + lost1 + lost4
    recomputed = 0
    for item, _, line in served:
        f = bl.parse_fields(line)
        if f.get("status") != "ok":
            continue
        if f.get("cached") != "1":
            recomputed += 1
        if bl.normalize_result(line) != cold_norm.get(item):
            checks.fail("hit differs from cold line: item %d" % item)
    errors = sum(1 for _, _, l in served if " status=ok " not in l)
    attempted += len(served) + lost
    failed += errors + lost
    lat4 = [ms for lat in lat4_by_server for ms in lat]
    lat1 = [ms for _, ms, _ in r1]
    q4, tail4, n4 = bl.tail(lat4)
    q1, tail1, n1 = bl.tail(lat1)
    log("serve-warm: %d items; c1 %d, c4 %d requests; %d recomputed; "
        "set-ups %s" % (len(fill), len(r1), len(r4), recomputed,
                        " ".join("%.3f" % x for x in setups)))
    log("latency_tail_ms = p%g of %d requests; c1.latency_tail_ms = p%g of "
        "%d requests" % (q4, n4, q1, n1))
    log("4-connection loop per server: rps %s; interquartile-mean rps %s; "
        "p50 ms %s" % tuple(" ".join("%.4g" % x for x in xs) for xs in (
            [len(c[0]) / c[1] for c in c4],
            [THREADS * 1000.0 / bl.trimmed_mean(lat, C4_TRIM)
             for lat in lat4_by_server],
            [statistics.median(lat) for lat in lat4_by_server])))
    # A result leaves the server only when its poll loop wakes: on an
    # arriving request or on the 20 ms sweep. At 1 connection nearly every
    # request waits for the sweep, so the c1.* rows measure its period. At 4
    # connections the clients' requests wake the loop for each other, until
    # all four wait at once and lock into the sweep; those episodes make the
    # window's rate swing (serve.c4.throughput_rps, not gated) and set
    # latency_tail_ms. throughput_rps is the 4-connection rate by Little's
    # law over the interquartile mean round trip, which leaves the
    # sweep-locked requests out and tracks the hit path.
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(
            THREADS * 1000.0 / bl.trimmed_mean(lat, C4_TRIM)
            for lat in lat4_by_server),
        "cpu_ms_per_req": (cpu1 + sum(c[4] for c in c4)) * 1e3
        / (len(r1) + len(r4)),
        "peak_rss_mb": rss,
        "latency_p50_ms": statistics.median(
            statistics.median(lat) for lat in lat4_by_server),
        "latency_tail_ms": tail4,
        "c1.throughput_rps": 1000.0 / bl.trimmed_mean(lat1),
        "c1.latency_tail_ms": tail1,
        "decided_share": sum(1 for _, _, l in served if " stop=proven " in l)
        / max(1, len(served)),
    }
    summary = {
        "error_share": failed / attempted,
        "wrong_results": checks.wrong,
        "client.cpu_ms_per_req": sum(c[2] for c in c4) * 1e3 / len(r4),
        "serve.c4.throughput_rps": len(r4) / sum(c[1] for c in c4),
    }
    layers = None
    if args.trace:
        log("1-connection loop: traced %d requests, %.4f ms CPU each; "
            "untraced %d, %.4f ms" % (len(r1), cpu1 * 1e3 / len(r1), len(ref),
                                     ref_cpu * 1e3 / len(ref)))
        layers = serve_layers(work, trace_dir, server.cache, live,
                              cpu1 / len(r1), ref_cpu / len(ref))
    return e2e, summary, layers, attempted, failed, checks


# ------------------------------------------------------------ per-layer

def trace_phases(path):
    """Sum and median of each phase over the program's own trace spans."""
    phases = {k: [] for k in ("parse", "queue", "fp", "lookup", "solve",
                              "encode")}
    by_op = {}
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            for k in phases:
                v = e.get(k + "_ms")
                if v is not None:
                    phases[k].append(v)
            if e.get("solve_ms") is not None:
                # Request names start with their part of the mix (k. corpus
                # kernel, b bank, x/m SRC kernels, ...; see ledger.json).
                part = e["op"] + ":" + re.match(r"[a-z]*\.?", e["name"]).group()
                by_op[part] = by_op.get(part, 0.0) + e["solve_ms"]
    out = {}
    for k, vals in phases.items():
        out["trace.%s_ms.sum" % k] = sum(vals)
        out["trace.%s_ms.p50" % k] = statistics.median(vals) if vals else 0.0
    total = sum(by_op.values()) or 1.0
    shares = {op: v / total for op, v in sorted(by_op.items())}
    return out, shares


def registry_layers(metrics_json):
    with open(metrics_json) as f:
        m = json.load(f)
    c, h = m["counters"], m["histograms"]
    out = {}
    for name in ("store.promotions", "store.mem.evictions", "store.disk.hits",
                 "store.disk.bytes_written", "solver.exact.expansions",
                 "solver.simplex.phase1_iterations",
                 "solver.simplex.phase2_iterations", "solver.bb.nodes",
                 "op.globalrs.parallel_blocks"):
        out[name] = float(c.get(name, 0))
    hits, misses = c.get("store.mem.hits", 0), c.get("store.mem.misses", 0)
    out["store.mem.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    qw = h.get("pool.queue_wait_ms", {})
    out["pool.queue_wait_ms.p50"] = qw.get("p50", 0.0)
    n = qw.get("count", 0)
    # Same tail rule as the end-to-end latencies, on the histogram's
    # quantiles: p99 needs 1000 samples, p95 200.
    out["pool.queue_wait_ms.tail"] = (qw.get("p99", 0.0) if n >= 1000 else
                                      qw.get("p95", 0.0) if n >= 200 else
                                      qw.get("max", 0.0))
    out["solver.portfolio.cancel_latency_ms"] = h.get(
        "solver.portfolio.cancel_latency_ms", {}).get("p50", 0.0)
    races = c.get("op.analyze.portfolio.races", 0)
    out["op.analyze.portfolio.win_ratio"] = (
        c.get("op.analyze.portfolio.wins.exact", 0) / races if races else 0.0)
    return out


def rsbench_layers(workload, work, cache, mem_mb):
    out = run_checked([RSBENCH, "layers", workload, work, cache, str(mem_mb)],
                      stdout=subprocess.PIPE, timeout=150).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])


def traced_layers(workload, work, traced, rounds, mem_mb):
    trace_dir = os.path.join(work, "trace-0")
    layers, shares = trace_phases(os.path.join(trace_dir, "trace.jsonl"))
    log("%s solve-time share per op: %s" % (
        workload, json.dumps({k: round(v, 4) for k, v in shares.items()})))
    layers.update(registry_layers(os.path.join(trace_dir, "metrics.json")))
    src_nodes = 0
    for line in traced[0]["lines"]:
        f = bl.parse_fields(line)
        if f.get("kind") in ("minreg", "spill") or (
                f.get("kind") == "reduce" and f.get("name", "").startswith("x")):
            src_nodes += int(f.get("nodes", 0))
    layers["core.src.nodes"] = float(src_nodes)
    untraced = statistics.median([r["cpu"] for r in rounds])
    layers["trace.overhead_pct"] = (
        statistics.median([r["cpu"] for r in traced]) / untraced - 1) * 100
    layers.update(rsbench_layers(workload, work, traced[0]["cache"], mem_mb))
    return layers


def serve_layers(work, trace_dir, cache, live, traced_cpu, untraced_cpu):
    """Per-layer rows of serve-warm; the CPU arguments are the traced and
    untraced servers' CPU per request over the same 1-connection loop."""
    layers, shares = trace_phases(os.path.join(trace_dir, "trace.jsonl"))
    log("serve-warm solve-time share per op: %s" % json.dumps(
        {k: round(v, 4) for k, v in shares.items()}))
    layers.update(registry_layers(os.path.join(trace_dir, "metrics.json")))
    # The store counters straight from the live exposition, scraped before
    # shutdown (the metrics verb's names: rsat_ prefix, dots as _).
    for name in ("store.promotions", "store.mem.evictions", "store.disk.hits",
                 "store.disk.bytes_written"):
        key = "rsat_" + name.replace(".", "_") + "_total"
        if key in live:
            layers[name] = live[key]
    layers["core.src.nodes"] = 0.0
    layers["trace.overhead_pct"] = (traced_cpu / untraced_cpu - 1) * 100
    layers.update(rsbench_layers("serve-warm", work, cache, SERVE_CACHE_MB))
    return layers


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its children and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload,
                                                      os.getpid()))
    try:
        gen(args.workload, args.seed, work)
        if args.workload == "serve-warm":
            res = run_serve(args, work)
        else:
            res = run_batch(args.workload, args, work)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
    e2e, summary, layers, attempted, failed, checks = res

    for k, v in summary.items():
        log("%s = %.6g" % (k, v))
    for note in checks.notes:
        log("check failed: " + note)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(e2e)
    values.update(summary)
    if layers:
        values.update(layers)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError("metric not measured: " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        log("%-40s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": checks.wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        stop_all()
        log("benchmark failed: %s" % e)
        sys.exit(1)
