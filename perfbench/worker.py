"""One pass of one workload, in a fresh process.

Started by run.py with a JSON config as its only argument. It imports
pfinhier from the checkout, generates the pass's inputs from the seed,
writes the files the CLI reads, and records the moment it is ready for
the first query (run.py turns that into setup time). A `setup` config
stops there. A `pass` config then runs every query once, timing each,
checks the answers outside the timed region and prints one JSON report
as its last stdout line. Untraced passes also report each query time
normalized by the speed probe (speed.py) running alongside.

CLI passes run each invocation as a child process (`python -m
pfinhier.cli`, or clichild.py under the tracer) one at a time, or, with
`inproc`, call `pfinhier.cli.main` in this process.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
CLICHILD = os.path.join(HERE, "clichild.py")
CLI_TIMEOUT_S = 120


def _import_kernel(src: str) -> None:
    import pfinhier

    if not os.path.abspath(pfinhier.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"pfinhier imported from {pfinhier.__file__}, not from {src}")


def _write_files(files: dict, where: str) -> None:
    os.makedirs(where, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
            fh.write(text)


class CliRunner:
    """Runs one pfinhier invocation and returns (exit code, stdout)."""

    def __init__(self, cfg: dict):
        self.cwd = cfg["files"]
        self.cache = cfg.get("cache_dir")
        self.inproc = cfg.get("inproc", False)
        self.trace_dir = cfg.get("trace_dir") if cfg.get("trace") else None
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "PFINHIER_CACHE_DIR"}
        if self.cache:
            env["PFINHIER_CACHE_DIR"] = self.cache
        self.env = env
        if self.inproc:
            from pfinhier import cli

            self.main = cli.main
            os.chdir(self.cwd)
            os.environ.clear()
            os.environ.update(env)

    def __call__(self, index: int, argv: tuple) -> tuple[int, str]:
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(list(argv))
            return code, out.getvalue()
        if self.trace_dir:
            report = os.path.join(self.trace_dir, f"child-{index}.json")
            cmd = [sys.executable, CLICHILD, report, *argv]
        else:
            cmd = [sys.executable, "-m", "pfinhier.cli", *argv]
        done = subprocess.run(cmd, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout

    def cache_bytes(self) -> int:
        path = os.path.join(self.cache, "classify.json") if self.cache else None
        return os.path.getsize(path) if path and os.path.exists(path) else 0


def _pin_to_current_cpu() -> None:
    """Keep this worker (and its CLI children) on the vCPU it started on,
    so the speed probe always samples the CPU the work runs on."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def main() -> int:
    cfg = json.loads(sys.argv[1])
    _pin_to_current_cpu()
    _import_kernel(cfg["src"])
    import workloads as W

    cat = W.load_catalogue()
    queries = W.build(cfg["workload"], cfg["seed"], cat)[:cfg.get("limit")]
    inputs = W.prepare(queries, cat)
    is_cli = cfg["workload"] == "cli_session"
    if is_cli:
        _write_files(cat["cli"]["files"], cfg["files"])
    ready_at = time.monotonic()
    probe = None if cfg.get("trace") else SpeedProbe()
    ready_slowdown = probe.burst() if probe else 1.0
    if cfg["mode"] == "setup":
        print(json.dumps({"ready_at": ready_at, "ready_slowdown": ready_slowdown}))
        return 0

    from pfinhier import Hierarchy

    if is_cli:
        runner = CliRunner(cfg)

        def run(i, q):
            return runner(i, q[1])
    else:
        shared = Hierarchy(floor_level=4)

        def run(i, q):
            return W.run_kernel_query(lambda: Hierarchy(floor_level=4), shared, q)

    tracer = None
    if cfg.get("trace") and not is_cli:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    per_query_xd = []
    times, spans, raws = [], [], []
    if probe is not None:
        probe.start()
    for i, q in enumerate(inputs):
        if tracer is not None:
            tracer.query = i
        spent = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        try:
            raw = run(i, q)
        except Exception as exc:  # a failed query is counted, never fatal
            raw = exc
        t1 = time.perf_counter()
        times.append(t1 - t0 - ((probe.spent - spent) if probe else 0.0))
        spans.append((t0, t1))
        raws.append(raw)
        if tracer is not None:
            per_query_xd.append(dict(tracer.xd))
    if probe is not None:
        probe.stop()
        normalized = [t / probe.slowdown(a, b) for t, (a, b) in zip(times, spans)]
    if tracer is not None:
        tracer.uninstall()

    failures = {}
    for i, (q, raw) in enumerate(zip(queries, raws)):
        if isinstance(raw, BaseException):
            failures[i] = f"raised {type(raw).__name__}: {raw}"
        elif W.answer(q, raw) != W.expected(q, cat):
            failures[i] = f"answer {W.answer(q, raw)!r} differs from the frozen one"
    for i, problem in W.extra_checks(inputs, raws).items():
        failures.setdefault(i, problem)

    who = resource.RUSAGE_CHILDREN if is_cli and not cfg.get("inproc") else resource.RUSAGE_SELF
    report = {
        "ready_at": ready_at,
        "ready_slowdown": ready_slowdown,
        "wall_s": sum(times),
        "query_s": times,
        "attempted": len(inputs),
        "failures": [[i, " ".join(queries[i][1]) if is_cli else repr(queries[i]), msg]
                     for i, msg in sorted(failures.items())],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if probe is not None:
        report["query_norm_s"] = normalized
        report["probe_samples"] = len(probe.slowdowns)
    if is_cli:
        report["cache_bytes"] = runner.cache_bytes()
    if tracer is not None:
        report["trace"] = tracer.snapshot()
        report["per_query_xd"] = per_query_xd
        _spans_out(cfg, [(0, *row) for row in tracer.spans()])
    elif is_cli and cfg.get("trace"):
        report["trace"] = _merge_children(cfg)
    print(json.dumps(report))
    return 0


def _merge_children(cfg: dict) -> dict:
    from tracer import merge

    merged, rows = {}, []
    names = sorted(os.listdir(cfg["trace_dir"]), key=lambda n: int(n.split("-")[1].split(".")[0]))
    for name in names:
        with open(os.path.join(cfg["trace_dir"], name), encoding="utf-8") as fh:
            child = json.load(fh)
        index = int(name.split("-")[1].split(".")[0])
        merged = merge(merged, child["snapshot"])
        rows += [(index + 1, index, *row[1:]) for row in child["spans"]]
    _spans_out(cfg, rows)
    return merged


def _spans_out(cfg: dict, rows) -> None:
    from tracer import write_spans

    os.makedirs(os.path.dirname(cfg["spans_out"]), exist_ok=True)
    write_spans(cfg["spans_out"], rows)


if __name__ == "__main__":
    sys.exit(main())
