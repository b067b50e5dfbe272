"""Self-tests of the benchmark: its output checks accept the program's real
reports and flag altered ones, and its files agree with BENCHMARK.json.

    python3 -m pytest clibench/test_checks.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def _pass(ops, work) -> dict:
    with run.Launcher() as launcher:
        return run.run_pass(launcher, ops, work, traced=False)


def _ran(workload: str, op_name: str) -> dict:
    """Run one operation of a workload once and return its pass record."""
    work, ops = workloads.prepare(workload, SEED)
    p = _pass([next(o for o in ops if o.name == op_name)], work)
    assert run.check_pass(p) == (0, 0, []), "the unaltered report must pass its check"
    return p


def _alter(p: dict, edit):
    out = p["ops"][0]["op"].out
    rep = json.loads(out.read_text())
    edit(rep["payload"])
    out.write_text(json.dumps(rep))


def _next_fraction(s: str) -> str:
    q = Fraction(s)
    return f"{q.numerator + 1}/{q.denominator}"


def test_altered_frequency_fails_the_stabilize_check():
    p = _ran("bitstream", "stabilize")

    def edit(payload):
        payload["trace"]["1"][7] = _next_fraction(payload["trace"]["1"][7])

    _alter(p, edit)
    failed, wrong, msgs = run.check_pass(p)
    assert (failed, wrong) == (1, 1) and "popcount" in msgs[0]


def test_altered_witness_mass_fails_the_marginal_check():
    p = _ran("structure", "marginal-feasible")

    def edit(payload):
        mass = payload["feasibility"]["witness"]["mass"]
        a, b = sorted(mass, key=lambda k: Fraction(mass[k]))[-2:]
        delta = Fraction(1, 10**6)  # moved between two atoms, so the total stays 1
        mass[a] = str(Fraction(mass[a]) + delta)
        mass[b] = str(Fraction(mass[b]) - delta)

    _alter(p, edit)
    failed, wrong, msgs = run.check_pass(p)
    assert (failed, wrong) == (1, 1) and "witness" in msgs[0]


def test_altered_weak_law_row_fails_the_signed_check():
    p = _ran("laws", "signed-three-atom")

    def edit(payload):
        row = payload["weak_law"]["rows"][3]
        row["expectation"] = _next_fraction(row["expectation"])

    _alter(p, edit)
    failed, wrong, msgs = run.check_pass(p)
    assert (failed, wrong) == (1, 1) and "N=8" in msgs[0]


def test_a_crashing_operation_fails_without_a_wrong_answer():
    work, ops = workloads.prepare("laws", SEED)
    op = replace(ops[0], args=("signed", "no-such-space", "--out", str(ops[0].out)))
    p = _pass([op], work)
    failed, wrong, msgs = run.check_pass(p)
    assert (failed, wrong) == (1, 0) and "exit 2" in msgs[0]


def test_negative_event_count_of_sixteen_atom():
    from checks import SIGNED_SPACES, negative_subset_count

    assert negative_subset_count(list(SIGNED_SPACES["sixteen-atom"][0].values())) == 12689


def test_import_times_take_the_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     scipy.special._ufuncs",
        "import time:         7 |         12 |   scipy.special",
        "import time:       100 |        142 | collectiva.cli",
        "import time:        40 |         40 | scipy.optimize",
    ])
    assert layers.import_times(text) == (142e-6, 82e-6)


def test_cli_self_time_excludes_child_spans():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 1.0, "parent": None},
        {"name": "seqio.read_sequence", "start": 0.1, "end": 0.3, "parent": 0, "bytes_in": 9},
        {"name": "collectives.frequencies", "start": 0.3, "end": 0.6, "parent": 0},
        {"name": "collectives.frequencies", "start": 0.4, "end": 0.5, "parent": 2},
    ]
    m = layers.per_pass([{"spans": spans, "importtime": ""}])
    assert m["cli.self_s"] == pytest.approx(0.5)
    assert m["collectives.frequencies_s"] == pytest.approx(0.3)
    assert m["collectives.frequencies_calls"] == 2
    assert m["seqio.bytes_in"] == 9


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
