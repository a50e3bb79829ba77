#!/usr/bin/env python3
"""The repository benchmark: laca_serve under open-loop load, and the paper's
online clustering time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RECORDS.jsonl]

Run from the repository root. It builds laca_serve and the benchmark client
(perfbench/laca_bench.cpp) from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, checks every answer,
and prints the metrics listed in BENCHMARK.json: a table, a `RECORD {...}`
line carrying the host descriptor and per-rung details, and finally one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. --out
appends the record to a file that compare.py reads.

Workloads (inputs are generated from --seed; the server only sees request
lines):

  serve-local   laca_serve --gen=amazon2m-sim --eps=1e-5, 2 workers, every
                seed distinct: local diffusion, every cache probe misses.
  serve-zipf    laca_serve --gen=cora-sim, 1 worker, 4 MiB two-tier cache,
                Zipf-0.8 draws over seeds and size-only variants, a reload
                in the middle of each nominal segment: cache, coalescing and
                session costs, and the refill after a reload empties the
                cache.
  paper-online  in-process serial Laca::Cluster on pubmed-sim at the paper
                defaults (alpha 0.8, eps 1e-6, k 32), Fig. 7 protocol:
                whole-graph supports, no server.

A serving workload drives a ladder of fixed offered rates, each open loop
and timed from the scheduled send. The nominal (lowest) rung runs in
segments, each followed by a burst of requests sent at once. Latency
percentiles come from the nominal rung; slo_max_qps is the achieved rate of
the highest rung (with every rung below it) whose p99 meets the workload's
limit with no failure and no growing backlog; throughput_qps is the bursts'
completion rate, the server's capacity.
"""

import argparse
import hashlib
import json
import os
import queue
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = {
    "serve-local": {
        "kind": "serve",
        "gen": "amazon2m-sim",
        "eps": 1e-5,
        "server": ["--eps=1e-5", "--workers=2", "--threads=2"],
        "stream": "distinct",
        # Offered rates (req/s) and the share of --seconds each runs for.
        # Saturation measured 260-430 req/s on a shared 4-vCPU Xeon VM whose
        # speed drifts by ~30%; a rung between about half and 1.2x of it
        # would pass in some runs and fail in others, so there is none. The
        # top rung overloads even the fastest runs (a 450 rung of 0.9 s
        # passed when saturation reached 430).
        "ladder": [150, 1000],
        "ladder_share": [0.6, 0.02],
        "burst": 300,
        "warmup": 40,
        "setup_repeats": 3,
    },
    "serve-zipf": {
        "kind": "serve",
        "gen": "cora-sim",
        "eps": 1e-6,
        "server": ["--workers=1", "--threads=1", "--cache-bytes=4194304"],
        # 300 seeds x 3 sizes; their pi' vectors (~13 MB) overflow the
        # 2 MiB diffusion tier, so its LRU evicts. A reload in the middle
        # of each nominal segment empties the cache under traffic.
        "stream": "zipf",
        "ladder": [150, 600],
        "ladder_share": [0.55, 0.12],
        "burst": 1000,
        "warmup": 2000,
        "setup_repeats": 9,
    },
    "paper-online": {
        "kind": "paper",
        "gen": "pubmed-sim",
        "eps": 1e-6,
        "setup_repeats": 7,
    },
}

# The latency limit of every workload: a rung meets it when its p99 is at
# most this (for paper-online, when the p99 of its calls is).
LIMIT_MS = 100.0

# A serving run whose generator sent its p99 request later than this share
# of the latency limit is invalid. Generous, because the host (a shared VM)
# stalls a vCPU for a few ms now and then; a generator that cannot keep up
# falls behind by far more.
MAX_GEN_LAG_SHARE = 0.25
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and host description.


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")) / "perfbench"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "laca_serve", "laca_bench"])
    with open(logfile, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = logfile.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {"serve": out / "laca" / "laca_serve", "bench": out / "laca_bench"}


def host_descriptor(out, seed):
    cache = (out / "CMakeCache.txt").read_text()

    def cached(key):
        m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    compiler = cached("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    files = [p for d in ("src", "tools", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files + [ROOT / "CMakeLists.txt"]):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "build_type": cached("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# Processes.


class Server:
    """A laca_serve process on an ephemeral loopback port. Construction
    returns once a `health` request is answered; `ready_s` is the time from
    spawn to that answer."""

    def __init__(self, binary, gen, flags):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), f"--gen={gen}", "--port=0", *flags],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.lines = queue.Queue()
        self.log = []
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        try:
            self.port = self._await_port(start)
            with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
                s.sendall(b"health\n")
                reply = s.makefile().readline()
            if not reply.startswith("HEALTH status=ok"):
                raise BenchError(f"laca_serve unhealthy after boot: {reply!r}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _await_port(self, start):
        while True:
            try:
                line = self.lines.get(timeout=max(0.1, 60 - (time.perf_counter() - start)))
            except queue.Empty:
                line = None
            if line is None:
                raise BenchError("laca_serve did not start:\n" + "".join(self.log[-10:]))
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                return int(m.group(1))

    def _drain(self):
        for line in self.proc.stderr:
            self.log.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for laca_serve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)


def run_client(cmd, timeout=150):
    r = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                       timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"{Path(cmd[0]).name} {cmd[1]} failed:\n{r.stderr[-2000:]}")
    return r.stdout


# ---------------------------------------------------------------------------
# Metric helpers.


def median(values):
    return statistics.median(values) if values else 0.0


def percentiles(values):
    """p50 and the tail (p99 when the sample supports it) with counts."""
    p, value, n = stats.tail(values)
    return {"p50": stats.nearest_rank(values, 50), "tail": value,
            "tail_pct": p, "n": n}


def summarize_rung(rung, limit_ms):
    sched, recv, ok = rung["scheduled_us"], rung["recv_us"], rung["ok"]
    n = len(sched)
    latencies = [(r - s) / 1e3 if (k and r >= 0) else float("inf")
                 for s, r, k in zip(sched, recv, ok)]
    n_ok = sum(1 for k, r in zip(ok, recv) if k and r >= 0)
    lag = [(se - s) / 1e3 for s, se in zip(sched, rung["sent_us"])]
    # active_s: first scheduled send to last response, summed over segments.
    achieved = n_ok / rung["active_s"] if rung["active_s"] > 0 else 0.0
    # The backlog grows when queue waits at the end of the rung are well
    # above those at its start.
    quarter = max(1, n // 4)
    q_head = median(rung["queue_us"][:quarter])
    q_tail = median(rung["queue_us"][-quarter:])
    growing = q_tail > max(2 * q_head, 0.25 * limit_ms * 1e3)
    pct = percentiles(latencies)
    return {
        "rate": rung["rate"], "sent": n, "ok": n_ok, "failed": n - n_ok,
        "p50_ms": pct["p50"], "tail_ms": pct["tail"], "tail_pct": pct["tail_pct"],
        "achieved_qps": achieved, "gen_lag_p99_ms": stats.nearest_rank(lag, 99),
        "queue_us_head": q_head, "queue_us_tail": q_tail, "backlog_growing": growing,
        "meets_slo": n_ok == n and pct["tail"] <= limit_ms and not growing,
        "latencies": latencies,
    }


def nonneg(values):
    return [max(0.0, v) for v in values]


def sample_notes(n, names_p50=(), names_tail=()):
    """Table notes naming the percentile used and its sample count."""
    notes = {name: f"p50 of n={n}" for name in names_p50}
    notes.update({name: f"p{stats.tail_percentile(n):g} of n={n}" for name in names_tail})
    return notes


# ---------------------------------------------------------------------------
# Serving workloads.


def run_serve(wl, args, bins, out):
    boots, server = [], None
    try:
        for _ in range(wl["setup_repeats"]):
            if server is not None:
                server.stop()
            server = Server(bins["serve"], wl["gen"], wl["server"])
            boots.append(server.ready_s)
        raw_path = out / f"{args.workload}-s{args.seed}-t{args.trace}.json"
        cmd = [bins["bench"], "serve", f"--gen={wl['gen']}", f"--eps={wl['eps']}",
               f"--port={server.port}", f"--seed={args.seed}",
               "--rates=" + ",".join(str(r) for r in wl["ladder"]),
               "--rung-seconds=" + ",".join(f"{s * args.seconds:.3f}"
                                            for s in wl["ladder_share"]),
               f"--burst={wl['burst']}", f"--warmup={wl['warmup']}",
               f"--stream={wl['stream']}", f"--trace={args.trace}",
               f"--out={raw_path}", f"--spans={raw_path.with_suffix('.spans')}"]
        run_client(cmd)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    raw = json.loads(raw_path.read_text())
    return serve_metrics(wl, raw, boots, rss, args.trace)


def serve_metrics(wl, raw, boots, rss_mb, trace):
    limit = LIMIT_MS
    rungs = [summarize_rung(r, limit) for r in raw["rungs"]]
    nominal = rungs[0]  # the rung the latencies are reported from
    bursts = raw["bursts"]
    burst_sent = sum(len(b["ok"]) for b in bursts)
    burst_ok = sum(1 for b in bursts for k, r in zip(b["ok"], b["recv_us"]) if k and r >= 0)
    burst_span = sum((max(b["recv_us"]) - b["start_us"]) / 1e6 for b in bursts)
    # Capacity: completions per second over all bursts (requests sent at
    # once), pooled: the mean of three bursts varies less than their median.
    burst_rates = [sum(b["ok"]) / ((max(b["recv_us"]) - b["start_us"]) / 1e6)
                   for b in bursts]
    sent = sum(r["sent"] for r in rungs) + burst_sent
    ok = sum(r["ok"] for r in rungs) + burst_ok

    slo = 0.0
    for r in sorted(rungs, key=lambda r: r["rate"]):
        if not r["meets_slo"]:
            break
        slo = r["achieved_qps"]

    before, after = raw["stats_before"], raw["stats_after"]
    delta = {k: after[k] - before.get(k, 0) for k in after}
    residual = after["admitted"] - after["completed"] - after["queue"] - after["in_flight"]
    checks = {
        "clusters_match_oracle": raw["mismatches"] == 0,
        "all_responses_received": all(x >= 0 for r in raw["rungs"] + bursts
                                      for x in r["recv_us"]),
        "server_residual_zero": residual == 0,
        "alloc_delta_zero": delta["alloc_events"] == 0,
        "gen_lag_within_bound": nominal["gen_lag_p99_ms"] <= MAX_GEN_LAG_SHARE * limit,
    }
    if trace:
        checks["replay_bit_identical"] = raw["replay"]["mismatches"] == 0

    end_to_end = {
        "setup_s": median(boots),
        "latency_p50_ms": nominal["p50_ms"],
        "latency_p99_ms": nominal["tail_ms"],
        "slo_max_qps": slo,
        "throughput_qps": burst_ok / burst_span,
        "ok_ratio": ok / sent,
        "precision": raw["precision"],
        "peak_rss_mb": rss_mb,
    }
    details = {
        "latency_p50_ms": nominal["p50_ms"],  # in traced runs too (compare.py)
        "nominal_rate": nominal["rate"],
        "latency_n": len(nominal["latencies"]),
        "latency_tail_pct": nominal["tail_pct"],
        "limit_ms": limit,
        "ok_ratio_base": {"ok": ok, "sent": sent},
        "precision_n": raw["precision_n"],
        "setup_boots_s": boots,
        "rungs": [{k: v for k, v in r.items() if k != "latencies"} for r in rungs],
        "bursts": {"count": len(bursts), "sent": burst_sent, "ok": burst_ok,
                   "seconds": burst_span, "qps": burst_rates,
                   "idle_reload_ms": [b["idle_reload_ms"] for b in bursts]},
        "residual": residual,
        "err_codes": raw["err_codes"],
        "checks": checks,
        "notes": sample_notes(len(nominal["latencies"]), ["latency_p50_ms"],
                              ["latency_p99_ms"]),
    }
    per_layer = {}
    if trace:
        per_layer = serve_layers(wl, raw, nominal, delta, residual, boots)
        per_layer.update({"bench.sent": sent, "bench.ok": ok})
        n = len(nominal["latencies"])
        details["notes"] = sample_notes(
            n, ["server.wire_us_p50", "server.queue_us_p50", "server.compute_us_p50"],
            ["server.wire_us_p99", "server.queue_us_p99", "server.compute_us_p99"])
        details["notes"].update(sample_notes(len(raw["reload_ms"]), ["reload.ms_p50"]))
        details["notes"]["bench.gen_lag_p99_ms"] = f"p99 of n={n}"
        details["notes"]["trace.overhead_ms"] = f"p50 of 2 halves of n={n}"
    return end_to_end, per_layer, details, checks, sent, sent - ok


def serve_layers(wl, raw, nominal, delta, residual, boots):
    rung = raw["rungs"][0]
    wire = nonneg([rc - se - su for se, rc, su in
                   zip(rung["sent_us"], rung["recv_us"], rung["server_us"])])
    compute = nonneg([su - q for su, q in zip(rung["server_us"], rung["queue_us"])])
    all_compute = nonneg([su - q for r in raw["rungs"]
                          for su, q in zip(r["server_us"], r["queue_us"])])
    traced = [x for x, t in zip(nominal["latencies"], rung["traced"]) if t]
    untraced = [x for x, t in zip(nominal["latencies"], rung["traced"]) if not t]
    reloads = raw["reload_ms"]
    layers = {
        "server.wire_us_p50": stats.nearest_rank(wire, 50),
        "server.wire_us_p99": stats.tail(wire)[1],
        "server.parse_ns": raw["parse_ns"],
        "server.format_ns": raw["format_ns"],
        "server.queue_us_p50": stats.nearest_rank(rung["queue_us"], 50),
        "server.queue_us_p99": stats.tail(rung["queue_us"])[1],
        "server.compute_us_p50": stats.nearest_rank(compute, 50),
        "server.compute_us_p99": stats.tail(compute)[1],
        "server.admitted": delta["admitted"],
        "server.completed": delta["completed"],
        "server.rejected": delta["rejected"],
        "server.residual": residual,
        "server.alloc_events_delta": delta["alloc_events"],
        "cache.hit_ratio": stats.ratio(delta["cache_hits"],
                                       delta["cache_hits"] + delta["cache_misses"]),
        "cache.pi_hit_ratio": stats.ratio(delta["cache_pi_hits"],
                                          delta["cache_pi_hits"] + delta["cache_pi_misses"]),
        "cache.coalesced_ratio": stats.ratio(delta["coalesced"], delta["admitted"]),
        "cache.evictions": delta["cache_evictions"],
        "cache.bytes": raw["stats_after"]["cache_bytes"],
        "reload.ms_p50": median(reloads),
        "reload.count": len(reloads),
        "setup.dataset_s": raw["dataset_s"],
        "setup.tnam_s": raw["tnam_s"],
        "setup.ready_s": median(boots),
        "attr.tnam_build_s": raw["tnam_s"],
        "bench.gen_lag_p99_ms": nominal["gen_lag_p99_ms"],
        "trace.overhead_ms": median(traced) - median(untraced),
    }
    # With a cache most requests never run Algo. 4, so only the all-miss
    # workload's served compute is comparable with the replay's stages.
    layers.update(core_layers(raw["replay"], wl,
                              None if wl["stream"] == "zipf"
                              else statistics.fmean(all_compute)))
    return layers


def core_layers(replay, wl, served_compute_us):
    """Algo. 4 stage means from the replay; `served_compute_us` (if known) is
    the mean per-request compute the stages should account for."""
    n = max(1, replay["count"])
    us = {s: replay[f"{s}_s"] * 1e6 / n for s in ("step1", "step2", "step3", "extract")}
    step1_bound = 1.0 / ((1.0 - 0.8) * wl["eps"])
    layers = {
        "core.step1_us": us["step1"],
        "core.step2_us": us["step2"],
        "core.step3_us": us["step3"],
        "core.extract_us": us["extract"],
        "core.pad_ratio": stats.ratio(replay["padded"], replay["count"]),
        "diffusion.step1_push_work": replay["step1_push_work"] / n,
        "diffusion.step3_push_work": replay["step3_push_work"] / n,
        "diffusion.step1_ns_per_push":
            replay["step1_s"] * 1e9 / max(1.0, replay["step1_push_work"]),
        "diffusion.step3_ns_per_push":
            replay["step3_s"] * 1e9 / max(1.0, replay["step3_push_work"]),
        "diffusion.step1_greedy_rounds": replay["step1_greedy_rounds"] / n,
        "diffusion.step1_nongreedy_rounds": replay["step1_nongreedy_rounds"] / n,
        "diffusion.rwr_support": replay["rwr_support"] / n,
        "diffusion.bdd_support": replay["bdd_support"] / n,
        "diffusion.step1_bound_ratio":
            stats.ratio(replay["step1_push_work"] / n, step1_bound),
        "attr.step2_ns_per_cell":
            replay["step2_s"] * 1e9 / max(1.0, replay["step2_cells"]),
    }
    if served_compute_us is not None:
        layers["core.unaccounted_us"] = served_compute_us - sum(us.values())
    return layers


# ---------------------------------------------------------------------------
# The in-process paper workload.


def run_paper(wl, args, bins, out):
    boots = []
    for _ in range(wl["setup_repeats"]):
        start = time.perf_counter()
        proc = subprocess.Popen([str(bins["bench"]), "ready", f"--gen={wl['gen']}"],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            boots.append(time.perf_counter() - start)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if not line.startswith("ready") or proc.returncode:
            raise BenchError("laca_bench ready failed")
    raw_path = out / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    run_client([bins["bench"], "paper", f"--gen={wl['gen']}", f"--eps={wl['eps']}",
                f"--seed={args.seed}", f"--seconds={args.seconds}",
                f"--trace={args.trace}", f"--out={raw_path}",
                f"--spans={raw_path.with_suffix('.spans')}"])
    raw = json.loads(raw_path.read_text())
    latencies = raw["latencies_ms"]
    pct = percentiles(latencies)
    throughput = raw["completed"] / raw["elapsed_s"]
    checks = {"clusters_well_formed": not raw["errors"]}
    if args.trace:
        checks["replay_bit_identical"] = raw["replay"]["mismatches"] == 0
    failed = len([e for e in raw["errors"] if e.startswith("malformed")])
    end_to_end = {
        "setup_s": median(boots),
        "latency_p50_ms": pct["p50"],
        "latency_p99_ms": pct["tail"],
        # One closed-loop client has no queue: its own rate meets the limit
        # or nothing does.
        "slo_max_qps": throughput if pct["tail"] <= LIMIT_MS else 0.0,
        "throughput_qps": throughput,
        "ok_ratio": (raw["completed"] - failed) / raw["completed"],
        "precision": raw["precision"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    details = {
        "latency_p50_ms": pct["p50"],  # in traced runs too (compare.py)
        "latency_n": pct["n"],
        "latency_tail_pct": pct["tail_pct"],
        "limit_ms": LIMIT_MS,
        "precision_n": raw["precision_n"],
        "setup_boots_s": boots,
        "errors": raw["errors"][:5],
        "checks": checks,
        "notes": sample_notes(pct["n"], ["latency_p50_ms"], ["latency_p99_ms"]),
    }
    per_layer = {}
    if args.trace:
        per_layer = {
            "setup.dataset_s": raw["dataset_s"],
            "setup.tnam_s": raw["tnam_s"],
            "setup.ready_s": median(boots),
            "attr.tnam_build_s": raw["tnam_s"],
            "bench.sent": raw["completed"],
            "bench.ok": raw["completed"] - failed,
            "trace.overhead_ms": median(raw["replay_ms"]) - median(latencies),
        }
        details["notes"] = {"trace.overhead_ms": f"p50 of n={len(latencies)} pairs"}
        per_layer.update(core_layers(raw["replay"], wl,
                                     statistics.fmean(latencies) * 1e3))
    return end_to_end, per_layer, details, checks, raw["completed"], failed


# ---------------------------------------------------------------------------


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def format_metric(name, value, unit, note):
    if isinstance(value, dict):  # a ratio with its base
        note = f"{value['num']:g}/{value['den']:g}"
        value = value["value"]
    return f"  {name:34s} {value:>14.6g} {unit:6s} {f'({note})' if note else ''}".rstrip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run's record (one JSON line)")
    args = ap.parse_args()
    started = time.perf_counter()

    def on_deadline(signum, frame):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    def on_term(signum, frame):
        raise BenchError("terminated")

    # Raising from the handlers unwinds through the code that stops the
    # server and client processes.
    signal.signal(signal.SIGTERM, on_term)
    try:
        bench = load_benchmark()
        out = build_dir()
        bins = build(out)
        signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(RUN_DEADLINE_S)
        runs = out / "runs"
        runs.mkdir(exist_ok=True)
        wl = WORKLOADS[args.workload]
        runner = run_serve if wl["kind"] == "serve" else run_paper
        end_to_end, per_layer, details, checks, attempted, failed = \
            runner(wl, args, bins, runs)
        signal.alarm(0)
        host = host_descriptor(out, args.seed)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics, table = {}, []
    for m in wanted:
        # Per-layer metrics that do not apply to a workload (the server's on
        # paper-online) read 0 and are listed as not applicable.
        v = values.get(m["name"], 0.0)
        note = details.get("notes", {}).get(m["name"])
        table.append(format_metric(m["name"], v, m["unit"],
                                   note if m["name"] in values else "n/a"))
        metrics[m["name"]] = {"value": float(v["value"] if isinstance(v, dict) else v),
                              "unit": m["unit"]}
    missing = sorted(set(values) - {m["name"] for m in wanted})
    if missing:
        log(f"metrics computed but not declared in BENCHMARK.json: {missing}")
        return 2
    correct = all(checks.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "details": details,
        "wall_s": time.perf_counter() - started,
        "not_applicable": sorted(m["name"] for m in wanted if m["name"] not in values),
        "ratios": {k: v for k, v in values.items() if isinstance(v, dict)},
    }
    result = {"correct": correct, "attempted": int(attempted), "failed": int(failed),
              "metrics": metrics}
    record["result"] = result
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"host={host['cpu']} x{host['nproc']} {host['compiler']} {host['build_type']}")
    print("\n".join(table))
    if not correct:
        log("correctness gate failed: " +
            ", ".join(k for k, ok in checks.items() if not ok))
    print("RECORD " + json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
