#!/usr/bin/env python3
"""Benchmark for `rct batch` and `rct serve`, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_exact --seed 1 --seconds 10 --trace 0

It builds `rct` and the benchmark's tools from this checkout into
.bench_build/, generates the workload's inputs from the seed, drives the
program through its public interfaces (the `rct batch` CLI, the `rct serve`
socket), checks every output independently and prints the metrics; the
last line of stdout is one JSON object.  --trace 1 prints the per-layer
metrics instead (see README.md).
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time


ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RCT = os.path.join(CMAKE_DIR, "rct")
PBTOOL = os.path.join(CMAKE_DIR, "pbtool")
PBLAYERS = os.path.join(CMAKE_DIR, "pblayers")

# Fixed load: never derived from the machine at run time.
JOBS = 2          # --jobs of every rct invocation and of the daemon
CONNECTIONS = 4   # client connections of the serve load process
BUILD_JOBS = 4    # compiler processes for the one-time build
TRANSIENT_NETS = 3  # exact-path nets per check that get the transient check
PROC_TIMEOUT_S = 150  # hard stop for any one child process
TRACE_PASSES = 3  # passes of each kind in a traced run

WORKLOADS = {
    "batch_exact": {"exact_limit": 400},
    "batch_bounds": {"exact_limit": 0},
    "serve_mixed": {"exact_limit": 2000},
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date (a no-op when it is)."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                raise BenchError("cmake configure failed; see " + build_log)
        cmd = ["cmake", "--build", CMAKE_DIR, "-j", str(BUILD_JOBS)]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            raise BenchError("build failed; see " + build_log)


LIVE = set()  # Procs not yet waited for; killed and reaped on any exit


class Proc:
    """A child process whose CPU time and peak RSS come from wait4()."""

    def __init__(self, cmd, cwd, stdout, stderr=None, stdin=subprocess.DEVNULL):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr, stdin=stdin)
        LIVE.add(self)
        self.timer = threading.Timer(PROC_TIMEOUT_S, self.kill)
        self.timer.start()

    def kill(self):
        try:
            self.p.kill()
        except OSError:
            pass

    def wait(self):
        """Returns (exit code, wall s, user+sys CPU s, peak RSS MiB)."""
        _, status, ru = os.wait4(self.p.pid, 0)
        wall = time.perf_counter() - self.t0
        self.timer.cancel()
        LIVE.discard(self)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        return self.p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_tool(cmd, cwd, what):
    """Runs one benchmark tool; returns its last stdout line parsed as JSON."""
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=PROC_TIMEOUT_S, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing (exit %d): %s" % (what, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["_exit"] = p.returncode
    return result


def low(values, better):
    """The run's estimate: the best pass.  Whole-pass times on a shared host
    come in fast stretches and slow bursts; the fastest pass of a run
    repeats closely between runs, a mean or median of passes does not."""
    return min(values) if better == "lower" else max(values)


class Checks:
    def __init__(self):
        self.ok = True

    def require(self, cond, what):
        if not cond:
            self.ok = False
            log("CHECK FAILED: " + what)
        return cond


# --- batch -------------------------------------------------------------

def batch_cmd(work, exact_limit, extra=()):
    return [RCT, "batch", os.path.join(work, "deck.spef"), "--jobs", str(JOBS),
            "--exact-limit", str(exact_limit)] + list(extra)


def batch_pass(work, exact_limit, out_name, extra=()):
    with open(os.path.join(work, out_name), "wb") as out, \
            open(os.path.join(work, "batch.stderr"), "wb") as err:
        rc, wall, cpu, rss = Proc(batch_cmd(work, exact_limit, extra), work, out, err).wait()
    if rc != 0:
        raise BenchError("rct batch exited %d" % rc)
    return wall, cpu, rss


def file_digest(path):
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_batch_json(workload, seed, work, exact_limit, checks):
    """One --json invocation, checked independently, plus the checker's self-test."""
    batch_pass(work, exact_limit, "out.json", ["--json"])
    path = os.path.join(work, "out.json")
    r = run_tool([PBTOOL, "check-batch", workload, str(seed), path, str(TRANSIENT_NETS)], work,
                 "check-batch")
    checks.require(r["_exit"] == 0 and r["ok"], "batch output: %s" % r["errors"][:3])
    log("check: %d nets, %d rows, %d exact rows, transient on %d rows (worst %.2g, tolerance 1e-5)"
        % (r["nets"], r["rows"], r["exact_rows"], r["transient_rows"], r["transient_max_rel"]))
    s = run_tool([PBTOOL, "selftest-batch", workload, str(seed), path], work, "selftest-batch")
    checks.require(s["_exit"] == 0 and s["ok"], "checker self-test: %s" % s["cases"])
    os.remove(path)
    return r["nets"]


def run_batch(workload, seed, seconds, work, manifest, checks):
    exact_limit = WORKLOADS[workload]["exact_limit"]
    nets = manifest["nets"]
    # Set-up: the cold first invocation over the fresh deck.
    setup_s, _, _ = batch_pass(work, exact_limit, "out.txt")
    reference = file_digest(os.path.join(work, "out.txt"))
    walls, cpus, rsss = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(walls) < 3:
        wall, cpu, rss = batch_pass(work, exact_limit, "out.txt")
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        checks.require(file_digest(os.path.join(work, "out.txt")) == reference,
                       "rct batch stdout differs between passes")
    attempted = nets * (len(walls) + 2)
    check_batch_json(workload, seed, work, exact_limit, checks)
    log("batch: %d passes of %d nets; pass wall s min %.4f median %.4f max %.4f"
        % (len(walls), nets, min(walls), statistics.median(walls), max(walls)))
    best = low(walls, "lower")
    metrics = {
        "nets_per_s": (nets / best, "nets/s"),
        "req_per_s": (1.0 / best, "req/s"),
        "latency_p50_ms": (best * 1e3, "ms"),
        "cpu_s": (low(cpus, "lower"), "s"),
        "peak_rss_mib": (statistics.median(rsss), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, attempted


# --- serve -------------------------------------------------------------

SOCK = "serve.sock"  # relative to the work directory: unix paths are short


class Daemon:
    """One `rct serve` lifetime on the work directory's socket and store."""

    def __init__(self, work, store):
        sock = os.path.join(work, SOCK)
        if os.path.exists(sock):
            os.remove(sock)
        self.err = open(os.path.join(work, "serve.stderr"), "ab")
        # Unix socket paths are capped near 108 bytes; reach the socket
        # through a short /proc path to the work directory's descriptor.
        self.dirfd = os.open(work, os.O_RDONLY)
        self.sock = "/proc/self/fd/%d/%s" % (self.dirfd, SOCK)
        cmd = [RCT, "serve", "--listen", SOCK, "--store", store, "--preload", "deck.spef",
               "--jobs", str(JOBS)]
        self.proc = Proc(cmd, work, subprocess.PIPE, self.err)
        line = self.proc.p.stdout.readline().decode()
        if not line.startswith("listening on"):
            self.stop(force=True)
            raise BenchError("rct serve did not start: %r" % line)
        reply = self.call('{"id":0,"cmd":"ping"}')
        self.ready_s = time.perf_counter() - self.proc.t0
        if '"ok":true' not in reply:
            self.stop(force=True)
            raise BenchError("ping failed: " + reply)

    def call(self, line):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(self.sock)
            s.sendall(line.encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        return data.decode()

    def stop(self, force=False):
        """Shuts the daemon down; returns (exit code, CPU s, peak RSS MiB)."""
        if force:
            self.proc.kill()
        else:
            try:
                self.call('{"id":0,"cmd":"shutdown"}')
            except OSError:
                self.proc.kill()
        rc, _, cpu, rss = self.proc.wait()
        self.proc.p.stdout.close()
        self.err.close()
        os.close(self.dirfd)
        return rc, cpu, rss


def serve_phase(work, seed, phase, out_name, transient, checks):
    r = run_tool([PBTOOL, "serve-phase", str(seed), SOCK, phase, str(CONNECTIONS), out_name,
                  str(transient)], work, "serve-phase")
    c = r["check"]
    checks.require(r["_exit"] == 0 and c["ok"], "serve phase %s: %s" % (phase, c["errors"][:3]))
    return r


def serve_round(work, seed, rnd, checks, first_daemon=None):
    """One round: daemon A on an empty store serves phase a, then daemon B
    restarts on the warm store and serves phase b.  Returns per-round figures."""
    store = os.path.join(work, "store")
    if first_daemon is None:
        shutil.rmtree(store, ignore_errors=True)
    a = first_daemon or Daemon(work, store)
    transient = TRANSIENT_NETS if rnd == 0 else 0
    ra = serve_phase(work, seed, "a", "resp_a.ndjson", transient, checks)
    rc_a, cpu_a, rss_a = a.stop()
    b = Daemon(work, store)
    rb = serve_phase(work, seed, "b", "resp_b.ndjson", transient, checks)
    rc_b, cpu_b, rss_b = b.stop()
    checks.require(rc_a == 0 and rc_b == 0, "rct serve exit codes %d/%d" % (rc_a, rc_b))
    if rnd == 0:
        s = run_tool([PBTOOL, "selftest-serve", str(seed), "resp_a.ndjson"], work, "selftest-serve")
        checks.require(s["_exit"] == 0 and s["ok"], "checker self-test: %s" % s["cases"])
    latency_s = ra["latency_s"] + rb["latency_s"]
    n = len(latency_s)
    wall = ra["wall_s"] + rb["wall_s"]
    shutil.rmtree(store, ignore_errors=True)
    return {
        "requests": n,
        "failed": ra["check"]["failed"] + rb["check"]["failed"],
        "req_per_s": n / wall,
        "p50_ms": statistics.median(latency_s) * 1e3,
        "cpu_s": cpu_a + cpu_b,
        "rss_mib": max(rss_a, rss_b),
        "kinds": ra["kinds"] + rb["kinds"],
        "latency_s": latency_s,
    }


def run_serve(seed, seconds, work, checks):
    first = Daemon(work, os.path.join(work, "store"))
    setup_s = first.ready_s
    rounds = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(rounds) < 3:
        rounds.append(serve_round(work, seed, len(rounds), checks,
                                  first_daemon=first if not rounds else None))
    n = rounds[0]["requests"]
    failed = sum(r["failed"] for r in rounds)
    log("serve: %d rounds of %d requests (%d connections, --jobs %d); p50 from %d samples per round;"
        " %d answered from another cache level than designed"
        % (len(rounds), n, CONNECTIONS, JOBS, n, failed))
    log("serve: req/s per round min %.1f median %.1f max %.1f"
        % (min(r["req_per_s"] for r in rounds), statistics.median(r["req_per_s"] for r in rounds),
           max(r["req_per_s"] for r in rounds)))
    by_kind = {}
    for r in rounds:
        for kind, lat in zip(r["kinds"], r["latency_s"]):
            by_kind.setdefault(kind, []).append(lat * 1e3)
    log("serve: median ms by answer: " + ", ".join(
        "%s %.3f (%d)" % (k, statistics.median(v), len(v) // len(rounds))
        for k, v in sorted(by_kind.items())))
    best_rps = low([r["req_per_s"] for r in rounds], "higher")
    metrics = {
        "nets_per_s": (best_rps, "nets/s"),
        "req_per_s": (best_rps, "req/s"),
        "latency_p50_ms": (low([r["p50_ms"] for r in rounds], "lower"), "ms"),
        "cpu_s": (low([r["cpu_s"] for r in rounds], "lower"), "s"),
        "peak_rss_mib": (statistics.median(r["rss_mib"] for r in rounds), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, n * len(rounds), failed, rounds


# --- traced run: per-layer metrics, tracing overhead, cross-checks against
# the program's own --metrics-out snapshot ------------------------------

# Per-layer metrics pblayers prints, with their units (README.md maps each
# one to the end-to-end metric it should move).
LAYER_UNITS = {
    "rctree.index_s": "s", "rctree.parse_s": "s", "rctree.parse_mb_per_s": "MB/s",
    "analysis.context_s": "s", "moments.stats_s": "s",
    "sim.eigensolve_s": "s", "sim.crossing_s": "s", "sim.crossing_searches": "count",
    "sim.crossing_used_ratio": "ratio",
    "core.report_s": "s", "core.report_self_s": "s",
    "engine.analyze_s": "s", "engine.pool_busy_ratio": "ratio", "engine.cache_hit_ratio": "ratio",
    "engine.contexts_built": "count", "engine.cache_overhead_s": "s",
    "engine.render_text_s": "s", "engine.render_json_s": "s",
    "server.load_s": "s", "server.handle_report_cold_ms": "ms",
    "server.handle_report_memory_ms": "ms", "server.handle_report_store_ms": "ms",
    "server.handle_bounds_ms": "ms", "server.store_save_ms": "ms", "server.store_load_ms": "ms",
    "server.store_load_misses": "count",
    "server.protocol_us": "us", "server.socket_overhead_ms": "ms",
}


def cross_check(snapshot, workload, manifest, checks):
    """Totals reached by independent paths must agree."""
    c = snapshot["counters"]  # a counter never bumped is absent
    analyzed = c.get("engine.tasks.run", 0)
    exact = c.get("core.report.exact_path", 0)
    want_exact = manifest["exact_eligible"]
    checks.require(exact == want_exact,
                   "core.report.exact_path %d, generated nets at or under the exact limit %d"
                   % (exact, want_exact))
    checks.require(analyzed + c.get("engine.cache.hits", 0) == manifest["nets"],
                   "analyzed %d + cache hits %d != %d generated nets"
                   % (analyzed, c.get("engine.cache.hits", 0), manifest["nets"]))
    checks.require(analyzed >= manifest["distinct"],
                   "analyzed %d < %d distinct contents" % (analyzed, manifest["distinct"]))
    return analyzed


def run_trace(args, work, manifest, checks):
    limit = WORKLOADS[args.workload]["exact_limit"]
    nets = manifest["nets"]
    metrics_path = os.path.join(work, "metrics.json")
    trace_args = ["--trace-out", os.path.join(work, "trace.json"), "--metrics-out", metrics_path]
    plain, traced = [], []
    for _ in range(TRACE_PASSES):
        plain.append(batch_pass(work, limit, "out.txt")[0])
        traced.append(batch_pass(work, limit, "out.txt", trace_args)[0])
    with open(metrics_path) as f:
        analyzed = cross_check(json.load(f), args.workload, manifest, checks)
    attempted = nets * 2 * TRACE_PASSES
    failed = 0
    if args.workload == "serve_mixed":
        first = Daemon(work, os.path.join(work, "store"))
        r = serve_round(work, args.seed, 0, checks, first_daemon=first)
        attempted += r["requests"]
        failed += r["failed"]
    else:
        attempted += check_batch_json(args.workload, args.seed, work, limit, checks)

    spans = os.path.join(work, "spans.jsonl")
    layers = run_tool([PBLAYERS, os.path.join(work, "deck.spef"), str(JOBS),
                             str(limit), spans], work, "pblayers")
    checks.require(layers.pop("_exit") == 0, "pblayers failed")
    with open(spans) as f:
        log("trace: %d spans recorded" % sum(1 for _ in f))
    metrics = {k: (layers[k], u) for k, u in LAYER_UNITS.items()}
    metrics["engine.duplicate_analyses"] = (analyzed - manifest["distinct"], "count")
    metrics["trace.nets_per_s"] = (nets / min(traced), "nets/s")
    metrics["trace.overhead_ratio"] = (min(traced) / min(plain), "ratio")
    return metrics, attempted, failed


# --- main --------------------------------------------------------------

def emit(correct, attempted, failed, metrics):
    out = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for k, (v, u) in metrics.items():
        print("%-32s %14.6g %s" % (k, v, u))
    print(json.dumps(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_build = time.perf_counter()
    build()
    log("build: up to date in %.1f s" % (time.perf_counter() - t_build))

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    manifest = run_tool([PBTOOL, "gen", args.workload, str(args.seed), work], work, "gen")
    log("inputs: %s" % json.dumps({k: v for k, v in manifest.items() if k != "_exit"}))
    checks = Checks()
    failed = 0
    if args.trace:
        metrics, attempted, failed = run_trace(args, work, manifest, checks)
    elif args.workload == "serve_mixed":
        metrics, attempted, failed, _ = run_serve(args.seed, args.seconds, work, checks)
    else:
        metrics, attempted = run_batch(args.workload, args.seed, args.seconds, work, manifest,
                                       checks)
    shutil.rmtree(work, ignore_errors=True)
    emit(checks.ok, attempted, failed, metrics)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
    finally:
        for proc in list(LIVE):
            proc.kill()
            proc.wait()
