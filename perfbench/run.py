"""pfinhier benchmark: one command for every workload, metric and answer check.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {ladder_cold,session_warm,cli_session}
                             [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it runs fresh worker processes, one pass of the workload's
query list each, for as many passes as fit in --seconds (at least one),
plus set-up-only workers until SETUP_SAMPLES set-ups were timed, and
reports the end-to-end metrics on each query's median time over the
passes, normalized for host speed (speed.py), and the median set-up. With --trace 1 it runs one
untraced and one traced pass (for cli_session also a pass without the
disk cache and one calling `pfinhier.cli.main` in-process) and reports
the per-layer metrics. Metric names and units come from BENCHMARK.json.

Every answer is checked against the frozen catalogue in expected.json.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files live under .perfbench_tmp/ and spans
under .perfbench_out/, both in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as W
from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
BUDGET_S = 170
SETUP_SAMPLES = 9
# After one full pass, ladder_cold passes stop before 41/100 (about 20 s on
# its own), so the cheap rungs get several samples within --seconds.
CHEAP_PREFIX = {"ladder_cold": 4}
TAIL_BEYOND = 10
W_XD = "minimal_sets.xd_minimal"
RUNG = "7/17"  # the tracer self-check rung of ladder_cold


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Launches workers for one benchmark run and keeps its deadline."""

    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.deadline = time.monotonic() + BUDGET_S
        self.count = 0

    def launch(self, mode: str = "pass", **extra) -> dict:
        self.count += 1
        cfg = {"workload": self.workload, "seed": self.seed, "mode": mode, "src": SRC,
               "files": os.path.join(self.tmp, f"files-{self.count}")}
        if self.workload == "cli_session" and extra.pop("cache", True):
            cfg["cache_dir"] = os.path.join(self.tmp, f"cache-{self.count}")
        cfg.update(extra)
        env = {k: v for k, v in os.environ.items() if k != "PFINHIER_CACHE_DIR"}
        # a fixed hash seed gives every worker the same dict layouts
        env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
        launched = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER, json.dumps(cfg)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish within the run budget") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{mode} worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report["ready_at"] - launched
        return report

    def remaining(self) -> float:
        return self.deadline - time.monotonic()


# ---- end-to-end metrics ----


def _tail(times: list[float]) -> tuple[float, str]:
    """The slowest value with at least TAIL_BEYOND samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} samples (fewer than {TAIL_BEYOND + 1})"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} samples, {TAIL_BEYOND} beyond it"


def _geomean(times: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in times))


def measure(run: Runner, seconds: int) -> tuple[dict, list, list[str]]:
    """Untraced passes filling the --seconds window, with set-ups around them.

    Each pass runs the same query list (or, for ladder_cold after the
    first pass, its cheap prefix) in a fresh worker, so query i of every
    pass does the same work. The metrics are computed on the typical
    pass: each query's median normalized time over the passes that ran it.
    """
    def normalized_setup(report):
        return report["setup_s"] / report["ready_slowdown"]

    setups = [normalized_setup(run.launch("setup")) for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    start = time.monotonic()
    limit = None
    while True:
        passes.append(run.launch(limit=limit))
        limit = CHEAP_PREFIX.get(run.workload)
        # the next pass should cost what this one spent on the queries it will run
        cost = passes[-1]["setup_s"] + sum(passes[-1]["query_s"][:limit])
        if run.remaining() < cost + 20 or time.monotonic() - start + cost > seconds:
            break
    setups += [normalized_setup(p) for p in passes]
    while len(setups) < SETUP_SAMPLES and run.remaining() > 10:
        setups.append(normalized_setup(run.launch("setup")))

    n = len(passes[0]["query_norm_s"])
    typical = [statistics.median(p["query_norm_s"][i] for p in passes if len(p["query_norm_s"]) > i)
               for i in range(n)]
    full = [p for p in passes if len(p["query_norm_s"]) == n]
    raw_wall = statistics.median(p["wall_s"] for p in full)
    notes = [f"raw pass wall {raw_wall:.4g} s (median of {len(full)}); normalized to a host "
             f"where one speed sample takes {REFERENCE_S * 1e6:.0f} us",
             "normalized pass walls: " + " ".join(f"{sum(p['query_norm_s']):.4g}" for p in passes)
             + " s; raw: " + " ".join(f"{p['wall_s']:.4g}" for p in passes) + " s"
             + ("" if len(full) == len(passes) else
                f"; passes after the first stop after query {CHEAP_PREFIX[run.workload]}")]
    tail, tail_note = _tail(typical)
    over = f"per-query medians over the {len(passes)} passes"
    values = {
        "wall_s": (sum(typical), f"{len(typical)} queries, {over}"),
        "query_p50_ms": (1000 * statistics.median(typical), over),
        "query_tail_ms": (1000 * tail, f"{tail_note}, {over}"),
        "rung_geomean_ms": (1000 * _geomean(typical), "geometric mean of the "
                            + ("cold rung" if run.workload == "ladder_cold" else "query")
                            + f" times, {over}"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} worker set-ups"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in full),
                        ("largest CLI child (RUSAGE_CHILDREN)" if run.workload == "cli_session"
                         else "worker ru_maxrss") + f", median of {len(full)} full passes"),
    }
    return values, passes, notes


# ---- per-layer metrics ----


def _layer_value(layers: dict, metric: str):
    if metric == "minimal_sets.max_depth":
        return layers[W_XD]["max_depth"], None
    layer, _, field = metric.rpartition(".")
    stats = layers.get(layer)
    if stats is None:
        return None, None
    calls = stats["calls"]
    note = None if calls else "layer not exercised on this workload"
    if field == "repeat_ratio":
        return (stats["repeats"] / calls if calls else 0.0), note
    if field == "useful_ratio":
        keys = stats["distinct_keys"]
        return (stats["distinct_results"] / keys if keys else 0.0), note
    return stats[field], note


def traced(run: Runner) -> tuple[dict, list, list[str]]:
    spans_out = os.path.join(OUT, f"spans-{run.workload}-seed{run.seed}.tsv.gz")
    plain = run.launch()
    traced_pass = run.launch(trace=True, spans_out=spans_out,
                             trace_dir=os.path.join(run.tmp, "children"))
    passes = [plain, traced_pass]
    snap = traced_pass["trace"]
    layers = snap["layers"]
    notes = [f"spans: {snap['spans']} written to {os.path.relpath(spans_out, ROOT)}"]
    notes += [f"{name}: not found in this pfinhier, reported as 0" for name in snap["absent"]]
    extra = {"trace.overhead_s": (traced_pass["wall_s"] - plain["wall_s"],
                                  f"traced wall {traced_pass['wall_s']:.3f} s minus untraced "
                                  f"{plain['wall_s']:.3f} s")}

    rung = {k: 0 for k in ("distinct_keys", "distinct_results", "empty_results")}
    if run.workload == "ladder_cold":
        per_query = traced_pass["per_query_xd"]
        for i, x in enumerate(W.LADDER):
            before = per_query[i - 1] if i else dict.fromkeys(per_query[i], 0)
            delta = {k: per_query[i][k] - before[k] for k in rung}
            notes.append(f"rung {x}: xd_minimal distinct keys {delta['distinct_keys']}, "
                         f"distinct results {delta['distinct_results']}, "
                         f"empty results {delta['empty_results']}")
            if x == RUNG:
                rung = delta
    rung_note = None if run.workload == "ladder_cold" else "ladder_cold only"
    for k, v in rung.items():
        extra[f"{W_XD}.rung_7_17.{k}"] = (v, rung_note)

    cli_names = ("cli.process_overhead_ms", "cli.cache_io_s", "cli.cache_bytes", "cli.cache_saved_s")
    if run.workload == "cli_session":
        no_cache = run.launch(cache=False)
        inproc = run.launch(inproc=True)
        passes += [no_cache, inproc]
        io_s = layers["cli.load_cache"]["total_s"] + layers["cli.save_cache"]["total_s"]
        sub_ms = 1000 * statistics.median(plain["query_norm_s"])
        in_ms = 1000 * statistics.median(inproc["query_norm_s"])
        with_cache, without = sum(plain["query_norm_s"]), sum(no_cache["query_norm_s"])
        extra.update({
            "cli.process_overhead_ms": (sub_ms - in_ms, f"median subprocess {sub_ms:.2f} ms minus "
                                                        f"median in-process main {in_ms:.2f} ms"),
            "cli.cache_io_s": (io_s, "inclusive time in the cache load and save, all children"),
            "cli.cache_bytes": (plain["cache_bytes"], "classify.json size after one pass"),
            "cli.cache_saved_s": (without - with_cache, f"normalized wall without cache "
                                  f"{without:.3f} s minus with {with_cache:.3f} s"),
        })
    else:
        extra.update({name: (0, "cli_session only") for name in cli_names})

    values = {}
    for metric in [m["name"] for m in _spec()["per_layer"]]:
        if metric in extra:
            values[metric] = extra[metric]
        else:
            value, note = _layer_value(layers, metric)
            if value is None:
                value, note = 0, "layer not found"
            values[metric] = (value, note)
    return values, passes, notes


# ---- entry point ----


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the finally blocks stop the worker and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "pfinhier", "__init__.py")):
        print(f"error: no pfinhier sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    run = Runner(args.workload, args.seed, tmp)
    try:
        if args.trace:
            values, passes, notes = traced(run)
            wanted = spec["per_layer"]
        else:
            values, passes, notes = measure(run, args.seconds)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {run.count} workers")
    for note in notes:
        print(f"  {note}")
    metrics = {}
    for m in wanted:
        value, detail = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']}" + (f"  ({detail})" if detail else ""))
    print(f"  failed_share = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} queries)")
    for i, query, msg in failures[:20]:
        print(f"  FAILED query {i} {query}: {msg}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
