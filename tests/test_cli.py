"""End-to-end command-line checks: exit codes, report determinism, and one
payload smoke test per command."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import collectiva
from collectiva import marginals, signed_prob
from collectiva.cli import main
from collectiva.complexity import pack_bits
from collectiva.report import validate_report


def run(argv, tmp_path, name="r.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        validate_report(report)
    return code, report


def write_ascii(tmp_path, text, name="seq.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def frac(s):
    return Fraction(s)


# --- exit codes -----------------------------------------------------------------------

def test_success_exit_code_and_stdout_report(tmp_path, capsys):
    f = write_ascii(tmp_path, "01" * 5000)
    assert main(["stabilize", f]) == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["command"] == "stabilize"
    stab = report["payload"]["stabilization"]
    assert stab["stabilized"] is True
    assert abs(frac(stab["per_label"]["0"]["limit"]) - Fraction(1, 2)) < Fraction(1, 1000)


def test_empty_input_exits_two(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("")
    assert main(["stabilize", str(f)]) == 2
    assert "empty input" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["stabilize", str(tmp_path / "absent")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_rule_exits_two_and_lists_the_catalogue(tmp_path, capsys):
    f = write_ascii(tmp_path, "01" * 50)
    assert main(["randomness", f, "--rules", "fibonacci"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "primes" in err


def test_bad_tolerance_exits_two(tmp_path, capsys):
    f = write_ascii(tmp_path, "01" * 50)
    assert main(["stabilize", f, "--eps", "abc"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_out_of_range_seed_exits_two(tmp_path, capsys):
    f = write_ascii(tmp_path, "01" * 50)
    assert main(["select", f, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_capacity_limit_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "2048")
    assert main(["signed", "sixteen-atom", "--n", "64"]) == 3
    assert "capacity limit" in capsys.readouterr().err


def test_huge_signed_schedule_exits_zero_quickly(tmp_path):
    """Weak-law rows come from moments, so no N-fold law of 10^5 points is built."""
    start = time.monotonic()
    code, report = run(["signed", "two-point", "--n", "100000"], tmp_path)
    assert code == 0
    assert time.monotonic() - start < 2.0
    rows = report["payload"]["weak_law"]["rows"]
    assert [r["n"] for r in rows] == [2**i for i in range(17)]
    for r in rows:
        assert frac(r["expectation"]) == Fraction(9, 4) - Fraction(3, 4) / r["n"]


def test_ville_zero_eps_without_min_count_exits_two(capsys):
    assert main(["ville", "--eps", "0", "--n", "100"]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["stabilize", "seq.txt", "--eps", "-1"],
    ["mix", "seq.txt", "--labels", "0", "--eps", "-1"],
    ["padic", "r.csv", "--format", "csv", "--eps", "-1"],
    ["padic", "r.csv", "--format", "csv", "--padic-eps", "0"],
    ["randomness", "seq.txt", "--eps", "-1"],
    ["select", "seq.txt", "--eps", "-1"],
    ["ville", "--eps", "-1", "--min-count", "1"],
])
def test_non_positive_epsilon_exits_two(tmp_path, capsys, argv):
    files = {
        "seq.txt": write_ascii(tmp_path, "01" * 2000),
        "r.csv": write_ascii(tmp_path, "".join(f"{k}/{k + 1}\n" for k in range(1, 60)), "r.csv"),
    }
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err and len(err.strip().splitlines()) == 1


def test_coin_rule_with_a_non_integer_seed_exits_two(tmp_path, capsys):
    f = write_ascii(tmp_path, "01" * 50)
    assert main(["randomness", f, "--rules", "coin:abc"]) == 2
    err = capsys.readouterr().err
    assert "coin" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("level", ["nan", "0", "1", "1.5", "-0.01"])
def test_battery_significance_outside_the_unit_interval_exits_two(
    tmp_path, capsys, level
):
    f = write_ascii(tmp_path, "01" * 500)
    assert main(["battery", f, "--significance", level]) == 2
    err = capsys.readouterr().err
    assert "significance" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("blob, argv", [
    (b"\xff\xfe01", ["stabilize"]),
    (b"\xff\xfe1/2\n", ["padic", "--format", "csv"]),
    (b"\xff\xfe1/2\n", ["marginal", "--format", "csv"]),
    (b"\xff\xfe{}", ["marginal"]),
    (b"\xff\xfe{}", ["signed"]),
])
def test_undecodable_input_exits_two(tmp_path, capsys, blob, argv):
    f = tmp_path / "bad.bin"
    f.write_bytes(blob)
    assert main([argv[0], str(f), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err or "utf-8" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("doc", [
    {"e12": [1], "e23": 1, "e13": 1},
    {"e12": 0, "e23": 0, "e13": 0, "means": [0, None, 0]},
    {"e12": 0, "e23": 0, "e13": 0, "means": 5},
    {"e12": 0, "e23": 0, "e13": 0, "means": [0, 0]},
])
def test_marginal_non_numeric_correlation_exits_two(tmp_path, capsys, doc):
    f = tmp_path / "corr.json"
    f.write_text(json.dumps(doc))
    assert main(["marginal", str(f)]) == 2
    err = capsys.readouterr().err
    assert "number" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("variable", [
    {"a": "x", "b": 1}, {"a": [0], "b": 1}, {"a": True, "b": 1},
])
def test_signed_document_with_a_non_numeric_value_exits_two(tmp_path, capsys, variable):
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({"weights": {"a": "-1/2", "b": "3/2"}, "variable": variable}))
    assert main(["signed", str(doc)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_signed_document_with_boolean_weights_exits_two(tmp_path, capsys):
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({"weights": {"a": True, "b": False}}))
    assert main(["signed", str(doc)]) == 2
    assert "not a number" in capsys.readouterr().err


def test_window_without_two_checkpoints_exits_two(tmp_path, capsys):
    f = write_ascii(tmp_path, "01" * 500)
    assert main(["stabilize", f, "--window", "0"]) == 2
    assert "window" in capsys.readouterr().err


# --- determinism ----------------------------------------------------------------------

def nontimestamp_lines(path):
    return [ln for ln in path.read_text().splitlines() if "generated_at" not in ln]


def test_reports_are_identical_up_to_the_timestamp(tmp_path):
    f = write_ascii(tmp_path, "01" * 500)
    for name in ("a.json", "b.json"):
        assert main(["stabilize", f, "--out", str(tmp_path / name)]) == 0
    assert nontimestamp_lines(tmp_path / "a.json") == nontimestamp_lines(tmp_path / "b.json")


def test_generated_sequences_are_seed_deterministic(tmp_path):
    for name in ("a.json", "b.json"):
        code = main([
            "ville", "--n", "1024", "--eps", "1/16", "--out", str(tmp_path / name),
        ])
        assert code == 0
    assert nontimestamp_lines(tmp_path / "a.json") == nontimestamp_lines(tmp_path / "b.json")
    report = json.loads((tmp_path / "a.json").read_text())
    assert report["payload"]["constructed"] is True


def test_config_echo_excludes_the_output_path(tmp_path):
    f = write_ascii(tmp_path, "01" * 500)
    code, report = run(["stabilize", f, "--eps", "1/100"], tmp_path)
    assert code == 0
    cfg = report["config"]
    assert "out" not in cfg and "handler" not in cfg
    assert cfg["eps"] == "1/100" and cfg["input"] == f


# --- per-command payloads -------------------------------------------------------------

def test_select_reports_per_rule_deviations(tmp_path):
    f = write_ascii(tmp_path, "01" * 500)
    code, report = run(["select", f, "--rules", "evens,identity"], tmp_path)
    assert code == 0
    rows = {r["rule"]: r for r in report["payload"]["rules"]}
    assert rows["evens"]["status"] == "fail"
    assert frac(rows["evens"]["max_deviation"]) == Fraction(1, 2)
    assert rows["identity"]["status"] == "pass"
    assert report["payload"]["base_frequencies"] == {"0": "1/2", "1": "1/2"}


def test_mix_is_exactly_additive(tmp_path):
    f = write_ascii(tmp_path, "abc" * 4000)
    code, report = run(["mix", f, "--labels", "a,c"], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["additivity_exact"] is True
    assert frac(pl["mixed_frequency"][-1]) == Fraction(2, 3)
    assert pl["frequency_probability"]["verdict"] == "stabilized"
    assert abs(frac(pl["frequency_probability"]["value"]) - Fraction(2, 3)) < Fraction(1, 100)


def test_randomness_on_a_seeded_word_passes(tmp_path):
    bits = np.random.default_rng(1234).integers(0, 2, size=10**5)
    f = tmp_path / "w.bin"
    f.write_bytes(pack_bits(bits))
    code, report = run(["randomness", str(f), "--format", "raw"], tmp_path)
    assert code == 0
    assert report["payload"]["overall"] == "pass"
    assert len(report["payload"]["rules"]) == 3


def test_complexity_flags_a_compressible_word(tmp_path):
    f = tmp_path / "zeros.bin"
    f.write_bytes(bytes(4096))
    code, report = run(["complexity", str(f), "--format", "raw"], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["n_bits"] == 32768
    assert pl["estimate"]["rate"] < 0.1
    assert pl["dips"], "a constant word should dip below n - log2(n)"
    assert any("upper bound" in w for w in report["warnings"])


def test_battery_fails_an_alternating_word(tmp_path):
    f = write_ascii(tmp_path, "01" * 5000)
    code, report = run(["battery", str(f)], tmp_path)
    assert code == 0
    rows = {r["name"]: r for r in report["payload"]["results"]}
    assert rows["monobit"]["passed"] is True
    assert rows["runs"]["passed"] is False
    assert rows["runs"]["p_value"] < 1e-6
    assert report["payload"]["passed"] is False


def test_marginal_correlations_hit_a_facet(tmp_path):
    doc = tmp_path / "corr.json"
    doc.write_text(json.dumps({"e12": 1, "e23": 1, "e13": -1}))
    code, report = run(["marginal", str(doc)], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["facet_check"]["satisfied"] is False
    assert frac(pl["facet_check"]["max_functional"]) == 3
    assert pl["feasibility"]["feasible"] is False
    assert pl["no_signaling"]["consistent"] is True


def test_marginal_document_with_pmfs_is_feasible(tmp_path):
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps({
        "pmfs": [{
            "observables": ["a1", "a2"],
            "ranges": {"a1": [-1, 1], "a2": [-1, 1]},
            "mass": {"-1|-1": "1/4", "-1|1": "1/4", "1|-1": "1/4", "1|1": "1/4"},
        }],
    }))
    code, report = run(["marginal", str(doc)], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["feasibility"]["feasible"] is True
    assert pl["feasibility"]["method"] == "lp-certified"
    mass = pl["feasibility"]["witness"]["mass"]
    assert sum(frac(v) for v in mass.values()) == 1


def test_consistency_flags_a_projection_mismatch(tmp_path):
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps({
        "pmfs": [
            {
                "observables": ["a1"],
                "ranges": {"a1": [-1, 1]},
                "mass": {"1": "9/10", "-1": "1/10"},
            },
            {
                "observables": ["a1", "a2"],
                "ranges": {"a1": [-1, 1], "a2": [-1, 1]},
                "mass": {"-1|-1": "1/4", "-1|1": "1/4", "1|-1": "1/4", "1|1": "1/4"},
            },
        ],
    }))
    code, report = run(["consistency", str(doc)], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["consistent"] is False
    assert pl["no_signaling"]["consistent"] is False
    assert pl["projective"]["consistent"] is False


def test_consistency_accepts_a_projectively_consistent_csv(tmp_path):
    f = tmp_path / "fam.csv"
    f.write_text(
        "a1|a2,-1|-1,1/4\n"
        "a1|a2,-1|1,1/4\n"
        "a1|a2,1|-1,1/4\n"
        "a1|a2,1|1,1/4\n"
        "a1,-1,1/2\n"
        "a1,1,1/2\n"
    )
    code, report = run(["consistency", str(f), "--format", "csv"], tmp_path)
    assert code == 0
    assert report["payload"]["consistent"] is True


def test_padic_detects_the_two_metric_split(tmp_path):
    f = tmp_path / "sums.csv"
    f.write_text("\n".join(str(2 ** (k + 1) - 1) for k in range(61)) + "\n")
    code, report = run(["padic", str(f), "--format", "csv"], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["verdict"] == "p-adic-only"
    assert pl["padic"]["limit"]["digits"] == [1] * 20
    assert frac(pl["padic"]["limit"]["value"]) == 2**20 - 1


def test_padic_frequency_path_is_real_only(tmp_path):
    bits = np.random.default_rng(424242).integers(0, 2, size=4096)
    f = write_ascii(tmp_path, "".join(map(str, bits)))
    code, report = run(["padic", f, "--label", "1"], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["verdict"] == "real-only"
    assert "label '1'" in pl["source"]


def test_signed_bundled_space_payload(tmp_path):
    code, report = run(["signed", "three-atom", "--n", "256"], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["total"] == "1/1"
    assert pl["negative_atoms"] == ["w1"]
    assert frac(pl["total_variation"]) == 2
    neg = pl["negativity"]
    assert frac(neg["min_event_prob"]) == Fraction(-1, 2)
    assert neg["argmin_event"] == ["w1"]
    assert frac(neg["complement_prob"]) == Fraction(3, 2)
    assert neg["negative_event_count"] == 1
    rows = pl["weak_law"]["rows"]
    assert rows[0]["n"] == 1 and rows[-1]["n"] == 256
    assert frac(rows[-1]["gap"]) * 256 == frac(rows[0]["gap"])


def test_signed_space_from_a_file(tmp_path):
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({
        "weights": {"u": "-1/2", "v": "3/4", "w": "3/4"},
        "variable": {"u": 0, "v": 1, "w": 2},
    }))
    code, report = run(["signed", str(doc), "--n", "4"], tmp_path)
    assert code == 0
    assert report["payload"]["atoms"] == 3
    assert report["payload"]["weak_law"]["variable_mean"] == "9/4"


def test_signed_document_with_rational_string_values(tmp_path):
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({
        "weights": {"u": "-1/2", "v": "3/4", "w": "3/4"},
        "variable": {"u": "0", "v": "1/2", "w": "1"},
    }))
    code, report = run(["signed", str(doc), "--n", "8"], tmp_path)
    assert code == 0
    assert report["payload"]["weak_law"]["variable_mean"] == "9/8"


def test_signed_values_far_apart_on_their_lattice(tmp_path):
    """Values {0, 1, 10**6} at N = 64: a lattice range of 64 * 10**6 + 1
    points but only 2145 attainable means; every weak-law row is exact."""
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({
        "weights": {"u": "-1/2", "v": "3/4", "w": "3/4"},
        "variable": {"u": 0, "v": 1, "w": 10**6},
    }))
    code, report = run(["signed", str(doc), "--n", "64"], tmp_path)
    assert code == 0
    m = Fraction(3, 4) * (1 + 10**6)
    ex2 = Fraction(3, 4) * (1 + 10**12)
    rows = report["payload"]["weak_law"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    for r in rows:
        assert frac(r["expectation"]) == m * m + (ex2 - m * m) / r["n"]


def test_signed_float_values_with_long_decimals(tmp_path):
    doc = tmp_path / "float.json"
    doc.write_text(json.dumps({
        "weights": {"u": -0.5, "v": 0.75, "w": 0.75},
        "variable": {"u": 0, "v": 0.5, "w": 0.3333333333333333},
    }))
    code, report = run(["signed", str(doc), "--n", "8"], tmp_path)
    assert code == 0
    m = 0.75 * (0.5 + 0.3333333333333333)
    ex2 = 0.75 * (0.25 + 0.3333333333333333**2)
    for r in report["payload"]["weak_law"]["rows"]:
        assert r["expectation"] == pytest.approx(m * m + (ex2 - m * m) / r["n"], abs=1e-12)


def test_signed_float_masses_beyond_the_float_range_give_closed_form_rows(tmp_path):
    """Weights 2^52 and 1 - 2^52: the N = 32 law has masses past the float
    range, but its moments do not, and each row is rounded once."""
    doc = tmp_path / "float.json"
    doc.write_text(json.dumps({
        "weights": {"u": 2.0**52, "v": 1 - 2.0**52},
        "variable": {"u": 0, "v": 1},
    }))
    code, report = run(["signed", str(doc), "--n", "32"], tmp_path)
    assert code == 0
    m = mu2 = Fraction(1 - 2**52)
    rows = report["payload"]["weak_law"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 4, 8, 16, 32]
    for r in rows:
        assert r["expectation"] == float(m * m + (mu2 - m * m) / r["n"])
        assert r["gap"] == float(abs(mu2 - m * m) / r["n"])


def test_signed_rows_beyond_the_float_range_exit_three(tmp_path, capsys):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({
        "weights": {"u": "-1/2", "v": "3/4", "w": "3/4"},
        "variable": {"u": 0, "v": 1e200, "w": 2e200},
    }))
    assert main(["signed", str(doc), "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "float range" in err and len(err.strip().splitlines()) == 1


def test_signed_never_builds_a_mean_law(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mean_law_table called")

    monkeypatch.setattr(signed_prob, "mean_law_table", refuse)
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({
        "weights": {"u": "-1/2", "v": "3/4", "w": "3/4"},
        "variable": {"u": 0, "v": 1, "w": 10**6},
    }))
    for space in [*signed_prob.BUNDLED_SPACES, str(doc)]:
        code, report = run(["signed", space], tmp_path)
        assert code == 0 and report["payload"]["weak_law"]["rows"], space


@pytest.mark.parametrize("n", [4096, 2**30])
def test_signed_sixteen_atom_at_large_n_is_fast_and_exact(tmp_path, n):
    space = signed_prob.BUNDLED_SPACES["sixteen-atom"]
    var = signed_prob.BUNDLED_VARIABLES["sixteen-atom"]
    m = signed_prob.expectation_signed(space, var)
    mu2 = signed_prob.expectation_signed(space, {a: v * v for a, v in var.items()})
    start = time.monotonic()
    code, report = run(["signed", "sixteen-atom", "--n", str(n)], tmp_path)
    assert time.monotonic() - start < 1.0
    assert code == 0
    rows = report["payload"]["weak_law"]["rows"]
    assert rows[-1]["n"] == n
    for r in rows:
        assert frac(r["expectation"]) == m * m + (mu2 - m * m) / r["n"]


def test_signed_float_weights_at_n_2048_are_fast(tmp_path):
    """Float weights -0.5, 0.75, 0.75 on 0, 1, 2: the N = 2048 law has
    masses past the float range, found only after its whole exact power;
    the moments give every row at once."""
    doc = tmp_path / "float.json"
    doc.write_text(json.dumps({
        "weights": {"u": -0.5, "v": 0.75, "w": 0.75},
        "variable": {"u": 0, "v": 1, "w": 2},
    }))
    start = time.monotonic()
    code, report = run(["signed", str(doc), "--n", "2048"], tmp_path)
    assert time.monotonic() - start < 1.0
    assert code == 0
    m, mu2 = Fraction(9, 4), Fraction(15, 4)
    for r in report["payload"]["weak_law"]["rows"]:
        assert r["expectation"] == float(m * m + (mu2 - m * m) / r["n"])


def test_negativity_block_covers_up_to_32_atoms(tmp_path):
    """24 atoms, twelve of weight -1/12 and twelve of 2/12: the most negative
    event is the negative half, and an event with i negative and j positive
    atoms is negative iff i > 2j."""
    atoms = [f"n{i}" for i in range(12)] + [f"p{i}" for i in range(12)]
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({
        "weights": {a: "-1/12" if a[0] == "n" else "2/12" for a in atoms},
    }))
    code, report = run(["signed", str(doc)], tmp_path)
    assert code == 0
    neg = report["payload"]["negativity"]
    assert frac(neg["min_event_prob"]) == -1
    assert neg["argmin_event"] == atoms[:12]
    assert frac(neg["complement_prob"]) == 2
    assert neg["negative_event_count"] == sum(
        math.comb(12, i) * math.comb(12, j)
        for i in range(13)
        for j in range(13)
        if i > 2 * j
    )


def test_negativity_block_is_skipped_past_32_atoms(tmp_path):
    atoms = [f"a{i}" for i in range(33)]
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({"weights": {a: "1/33" for a in atoms}}))
    code, report = run(["signed", str(doc)], tmp_path)
    assert code == 0
    assert "negativity" not in report["payload"]
    assert any("more than 32 atoms" in w for w in report["warnings"])


def test_signed_unknown_name_exits_two(tmp_path, capsys):
    assert main(["signed", "no-such-space"]) == 2
    assert "bundled" in capsys.readouterr().err


def test_ville_constructs_a_balanced_sequence(tmp_path):
    code, report = run(["ville", "--n", "2048"], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert pl["constructed"] is True
    assert pl["never_below_half"] is True
    assert pl["min_twice_ones_minus_n"] >= 0
    assert len(pl["sequence"]) == 2048
    assert set(pl["sequence"]) == {"0", "1"}


def test_ville_reports_construction_failure_gracefully(tmp_path):
    code, report = run(
        ["ville", "--n", "3", "--eps", "0", "--min-count", "1"], tmp_path
    )
    assert code == 0
    assert report["payload"]["constructed"] is False
    assert report["payload"]["verdict"] == "construction-failed"
    assert report["warnings"]


def test_large_ville_run_omits_the_sequence(tmp_path):
    code, report = run(["ville", "--n", "8192"], tmp_path)
    assert code == 0
    assert "sequence" not in report["payload"]
    assert any("omitted" in w for w in report["warnings"])


def test_memory_budget_stops_raw_reads_and_ville_with_one_line(tmp_path, capsys, monkeypatch):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes(4096))
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "10000")
    for argv in (["stabilize", str(f), "--format", "raw"], ["ville", "--n", "1000"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity limit:") and "COLLECTIVA_MAX_MEM" in err
        assert len(err.splitlines()) == 1


# --- marginal feasibility at the float boundary ---------------------------------------

@pytest.mark.parametrize("e13", [0.99999999, 1 - 5e-9, 1 - 1e-7])
def test_near_boundary_float_family_ends_in_a_verdict_or_one_line(tmp_path, capsys, e13):
    doc = tmp_path / "corr.json"
    doc.write_text(json.dumps({"e12": 1.0, "e23": 1.0, "e13": e13}))
    code, report = run(["marginal", str(doc)], tmp_path)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code:
        assert len(err.splitlines()) == 1
        return
    feas = report["payload"]["feasibility"]
    if e13 < 1 - 5e-9:  # 1e-8 or more off the only feasible value, 1
        assert feas["feasible"] is False
    if feas["feasible"]:
        assert report["payload"]["no_signaling"]["consistent"] is True


def test_marginal_checks_no_signaling_once(tmp_path, monkeypatch):
    calls = []
    real = marginals.check_no_signaling
    monkeypatch.setattr(marginals, "check_no_signaling",
                        lambda family: calls.append(family) or real(family))
    doc = tmp_path / "corr.json"
    doc.write_text(json.dumps({"e12": "1/2", "e23": "1/2", "e13": "-1/2"}))
    code, report = run(["marginal", str(doc)], tmp_path)
    assert code == 0 and report["payload"]["no_signaling"]["consistent"] is True
    assert len(calls) == 1


# --- reports on byte-sized trials -----------------------------------------------------

# sha256 prefixes of [payload, warnings] on the inputs below, as recorded when
# trials were stored as int64 and counted by full-length running sums
PAYLOAD_DIGESTS = {
    "stabilize": "f072f77c20de8b02",
    "randomness": "3a7ac72cddc38e72",
    "padic": "1c3e99bc15b75fd4",
    "mix": "40ab8a9c9a1d8a02",
    "select": "184fc5754946a9b6",
    "ville": "4327353bec7e075c",
}


@pytest.fixture(scope="module")
def byte_trial_argv(tmp_path_factory):
    """Seeded inputs longer than two counting chunks: 2^19 raw bits, and
    300000 ternary trials with a non-ASCII label in CRLF lines of 100."""
    d = tmp_path_factory.mktemp("byte_trials")
    raw = d / "seq.raw"
    raw.write_bytes(np.random.default_rng(2014).integers(0, 256, size=1 << 16, dtype=np.uint8).tobytes())
    codes = np.frombuffer("aβc".encode("utf-32-le"), dtype="<u4")
    tern = codes[np.random.default_rng(2015).integers(0, 3, size=300_000)]
    lines = (tern[i:i + 100].tobytes().decode("utf-32-le") for i in range(0, tern.size, 100))
    asc = d / "seq.txt"
    asc.write_bytes("\r\n".join(lines).encode("utf-8"))
    return {
        "stabilize": ["stabilize", raw, "--format", "raw"],
        "randomness": ["randomness", raw, "--format", "raw",
                       "--rules", "identity,primes,after:10,coin", "--seed", "1"],
        "padic": ["padic", raw, "--format", "raw", "--label", "1"],
        "mix": ["mix", asc, "--labels", "a,c"],
        "select": ["select", asc, "--rules", "identity,evens,after:aβ,coin"],
        "ville": ["ville", "--n", "4096"],
    }


@pytest.mark.parametrize("name", sorted(PAYLOAD_DIGESTS))
def test_reports_match_those_of_int64_trials(tmp_path, byte_trial_argv, name):
    code, report = run([str(a) for a in byte_trial_argv[name]], tmp_path)
    assert code == 0
    body = json.dumps([report["payload"], report["warnings"]], sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest()[:16] == PAYLOAD_DIGESTS[name]


# --- entry points ---------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def subprocess_env():
    """The current environment with the absolute directory holding the
    `collectiva` package under test first on PYTHONPATH, so a child process
    imports the same code whatever its working directory."""
    src = str(Path(collectiva.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    f = write_ascii(tmp_path, "01" * 100)
    proc = subprocess.run(
        [sys.executable, "-m", "collectiva", "stabilize", f],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "stabilize"


def test_cli_import_loads_no_heavy_scipy_module(tmp_path):
    """Every command pays for what `import collectiva.cli` loads, so the
    scipy submodules stay behind the functions that call them."""
    heavy = ("scipy.special", "scipy.optimize", "scipy.sparse")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, collectiva.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script(tmp_path):
    """The `collectiva` script declared in pyproject.toml, run the way an
    installer's launcher runs it: import the callable, call it with no
    arguments so it parses sys.argv, and exit with its return value."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "collectiva" in scripts
    module, attr = scripts["collectiva"].split(":")
    launcher = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'collectiva'; sys.exit({attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0
    for name in ("stabilize", "battery", "marginal", "padic", "ville"):
        assert name in proc.stdout


@pytest.mark.skipif(shutil.which("collectiva") is None,
                    reason="collectiva console script not installed")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        ["collectiva", "--help"], capture_output=True, text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    for name in ("stabilize", "battery", "marginal", "padic", "ville"):
        assert name in proc.stdout
