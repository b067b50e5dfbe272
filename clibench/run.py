"""Cold-process benchmark of the collectiva command line.

usage: python3 clibench/run.py --workload {bitstream,structure,laws,all}
                               --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every operation is one fresh interpreter
(``python -m collectiva ...`` or a library script), timed from spawn to
exit, with its peak RSS taken from the child's own rusage (``os.wait4``,
in ``launcher.py``).
Load is a closed loop with one client: one operation process at a time.

A run repeats rounds of [two set-up probes, one pass over the workload's
operations] for about S seconds (at least MIN_ROUNDS rounds), checks every
operation's output, and prints as its last line one JSON object:

  --trace 0: setup_s, pass_s and peak_rss_mb, each a median over the run;
  --trace 1: the per-layer metrics of ``layers.py`` from traced passes,
             each a median over the run, and trace.overhead_s.

An operation fails on a non-zero exit or on a failed output check; a failed
check also makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1
SETUP_PROBES = 2       # fresh `import collectiva.cli` interpreters per round
OP_TIMEOUT_S = 60.0    # an operation still running then is killed and fails


class Launcher:
    """The small process that spawns and times every operation; see
    launcher.py for why run.py does not spawn them itself."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [PY, str(HERE / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, text=True,
        )

    def spawn(self, argv: list[str], stderr: Path | None = None) -> tuple[int, float, float]:
        """Run argv to its end; return (exit code, wall seconds, peak RSS MB)."""
        req = {"argv": argv, "stderr": stderr and str(stderr), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher exited with {self.proc.wait()}")
        reply = json.loads(line)
        return reply["rc"], reply["wall"], reply["rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills its running operation
        try:
            self.proc.stdin.close()  # end of input ends the launcher
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_probe(launcher: Launcher) -> float:
    rc, wall, _ = launcher.spawn([PY, "-c", "import collectiva.cli"])
    if rc != 0:
        raise RuntimeError(f"`import collectiva.cli` exited {rc}")
    return wall


def op_argv(op, trace_spans: Path | None) -> list[str]:
    if trace_spans is None:
        head = ["-m", "collectiva"] if op.kind == "cli" else []
        return [PY, *head, *op.args]
    return [PY, "-X", "importtime", str(HERE / "trace_op.py"), str(trace_spans), op.name,
            op.kind, *op.args]


def run_pass(launcher: Launcher, ops, work: Path, traced: bool) -> dict:
    """One pass over the operations, timed without the output checks."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        if op.out.exists():
            op.out.unlink()
        spans = work / f"spans-{op.name}.jsonl" if traced else None
        if spans is not None and spans.exists():
            spans.unlink()
        err_path = work / f"stderr-{op.name}.txt"
        rc, wall, rss = launcher.spawn(op_argv(op, spans), stderr=err_path)
        results.append({"op": op, "rc": rc, "wall": wall, "rss": rss, "spans": spans,
                        "stderr": err_path})
    return {"wall": time.perf_counter() - t0, "ops": results,
            "peak_rss": max(r["rss"] for r in results)}


def check_pass(p: dict) -> tuple[int, int, list[str]]:
    """(failed, wrong, messages): failed counts non-zero exits and failed
    checks, wrong only the failed checks."""
    failed = wrong = 0
    msgs = []
    for r in p["ops"]:
        op = r["op"]
        if r["rc"] != 0:
            failed += 1
            tail = r["stderr"].read_text(errors="replace").strip().splitlines()[-1:]
            msgs.append(f"{op.name}: exit {r['rc']} {' '.join(tail)}")
            continue
        try:
            problems = op.check(json.loads(op.out.read_text()))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += 1
            wrong += 1
            msgs.append(f"{op.name}: {'; '.join(problems)}")
    return failed, wrong, msgs


def traced_metrics(p: dict) -> dict:
    ops = []
    for r in p["ops"]:
        spans = []
        if r["spans"].exists():
            spans = [json.loads(line) for line in r["spans"].read_text().splitlines()]
        ops.append({"spans": spans, "importtime": r["stderr"].read_text(errors="replace")})
    return layers.per_pass(ops)


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool,
                 log) -> dict:
    work, ops = workloads.prepare(name, seed)
    setup_probe(launcher)  # compiles bytecode and warms the file cache; not timed
    t_start = time.perf_counter()
    attempted = failed = wrong = 0
    setups, passes, rss, layer_rows, traced_walls = [], [], [], [], []
    op_walls: dict[str, list[tuple[float, float]]] = {}
    round_s = 0.0
    min_rounds = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - t_start + round_s <= seconds:
        t_round = time.perf_counter()
        setups.extend(setup_probe(launcher) for _ in range(SETUP_PROBES))
        kinds = (False, True) if trace else (False,)
        for traced in kinds:
            p = run_pass(launcher, ops, work, traced)
            f, w, msgs = check_pass(p)
            attempted += len(ops)
            failed += f
            wrong += w
            for msg in msgs:
                log(f"  FAILED {msg}")
            if traced:
                traced_walls.append(p["wall"])
                layer_rows.append(traced_metrics(p))
            else:
                passes.append(p["wall"])
                rss.append(p["peak_rss"])
                for r in p["ops"]:
                    op_walls.setdefault(r["op"].name, []).append((r["wall"], r["rss"]))
        rounds += 1
        round_s = max(round_s, time.perf_counter() - t_round)

    if trace:
        metrics = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(passes)
        _write_spans(work, ops)
        units = layers.UNITS
    else:
        metrics = {"setup_s": statistics.median(setups), "pass_s": statistics.median(passes),
                   "peak_rss_mb": statistics.median(rss)}
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
    log(f"{name} seed {seed}: {rounds} rounds, {len(setups)} set-up probes, "
        f"{attempted} operations attempted, {failed} failed")
    log("  pass walls (s): " + " ".join(f"{w:.3f}" for w in passes + traced_walls))
    log("  operation medians (wall s / peak RSS MB): " + ", ".join(
        f"{k} {statistics.median(w for w, _ in v):.3f}/{statistics.median(m for _, m in v):.0f}"
        for k, v in op_walls.items()))
    for k, v in metrics.items():
        log(f"  {k:40s} {v:14.6f} {units[k]}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _write_spans(work: Path, ops):
    """Collect the last traced pass's per-operation span files into one."""
    with open(work / "spans.jsonl", "w", encoding="utf-8") as out:
        for op in ops:
            part = work / f"spans-{op.name}.jsonl"
            if part.exists():
                out.write(part.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description="Cold-process benchmark of the collectiva CLI.")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:  # the CLI's --seed range
        ap.error("--seed must lie in [0, 2^64)")
    if not (SRC / "collectiva" / "cli.py").is_file():
        print(f"error: no collectiva sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    def log(line):
        print(line, flush=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    with Launcher() as launcher:
        results = {n: run_workload(launcher, n, args.seed, args.seconds, bool(args.trace), log)
                   for n in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
