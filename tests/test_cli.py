"""End-to-end command-line checks: exit codes, report determinism, and one
payload smoke test per command."""

import argparse
import hashlib
import itertools
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
from collectiva.cli import build_parser, main
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


def input_echo(path):
    """What a report's config says of an input file: its basename, size and SHA-256."""
    raw = Path(path).read_bytes()
    return {"name": Path(path).name, "bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}


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


@pytest.mark.parametrize("command", ["marginal", "consistency"])
def test_a_boolean_mass_in_a_marginal_document_exits_two(tmp_path, capsys, command):
    doc = tmp_path / "family.json"
    doc.write_text(json.dumps({"pmfs": [{
        "observables": ["a", "b"], "ranges": {"a": [0, 1], "b": [0, 1]},
        "mass": {"0|0": True, "0|1": 0, "1|0": 0, "1|1": 0}}]}))
    assert main([command, str(doc)]) == 2
    err = capsys.readouterr().err
    assert "not a number" in err and "(0, 0)" in err and len(err.strip().splitlines()) == 1


BIG_INT = "1" * 5000  # past the 4300-digit limit of int("...")
HOSTILE_DOCUMENTS = {
    "huge-int": '{"weights": {"a": %s}, "pmfs": [], "e12": %s, "e23": 0, "e13": 0}'
                % (BIG_INT, BIG_INT),
    "deep": "[" * 10**5 + "]" * 10**5,
    "mass-list": json.dumps(
        {"pmfs": [{"observables": ["a"], "ranges": {"a": [0, 1]}, "mass": [1]}]}),
    "huge-exponent": json.dumps({"weights": {"a": "1e20000000", "b": "-1e20000000", "c": "1"}}),
}


@pytest.mark.parametrize("name, command, code", [
    ("huge-int", "signed", 2), ("huge-int", "marginal", 2), ("huge-int", "consistency", 2),
    ("deep", "signed", 2), ("deep", "marginal", 2), ("deep", "consistency", 2),
    ("mass-list", "marginal", 2), ("mass-list", "consistency", 2),
    ("huge-exponent", "signed", 3),
])
def test_hostile_json_documents_exit_two_or_three_quickly(tmp_path, capsys, name, command, code):
    doc = tmp_path / "doc.json"
    doc.write_text(HOSTILE_DOCUMENTS[name])
    start = time.monotonic()
    assert main([command, str(doc)]) == code
    assert time.monotonic() - start < 5
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["stabilize", "--format", "csv"], ["padic", "--format", "csv"],
    ["marginal", "--format", "csv"], ["consistency", "--format", "csv"],
])
def test_a_csv_field_past_the_field_limit_exits_two(tmp_path, capsys, argv):
    f = tmp_path / "wide.csv"
    f.write_text("1" * 200_000 + "\n0\n")  # csv.field_size_limit() is 131072
    assert main([argv[0], str(f), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "field limit" in err and len(err.strip().splitlines()) == 1


OVERSIZED_INPUTS = {  # a 5000-character bad value in each place that echoes one
    "marginal": ("corr.json", json.dumps({"e12": "1/3", "e23": "1" * 5000, "e13": 0}), []),
    "padic": ("rows.csv", "1/2\n" + "x" * 5000 + "\n", ["--format", "csv"]),
    "stabilize": ("seq.txt", "01" * 50, ["--eps", "1x" * 2500]),
    "signed": ("space.json", json.dumps({"weights": {"a": "x" * 5000, "b": 1}}), []),
}


@pytest.mark.parametrize("command", sorted(OVERSIZED_INPUTS))
def test_an_oversized_bad_value_is_echoed_by_its_prefix_and_length(tmp_path, capsys, command):
    name, text, options = OVERSIZED_INPUTS[command]
    f = tmp_path / name
    f.write_text(text)
    assert main([command, str(f), *options]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and len(err.encode()) < 300, err
    assert "(5000 characters)" in err


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
    assert cfg["eps"] == "1/100" and cfg["input"] == input_echo(f)


@pytest.mark.parametrize("argv, name, text", [
    (["stabilize"], "seq.txt", "01" * 500),
    (["padic", "--format", "csv"], "r.csv", "".join(f"{k}/{k + 1}\n" for k in range(1, 60))),
    (["marginal"], "corr.json", '{"e12": "1/2", "e23": "1/2", "e13": "-1"}'),
])
def test_one_analysis_from_two_directories_gives_the_same_bytes(tmp_path, argv, name, text):
    reports = []
    for where in (tmp_path / "a", tmp_path / "checkout" / "b"):
        where.mkdir(parents=True)
        (where / name).write_text(text)
        assert main([argv[0], str(where / name), *argv[1:], "--out", str(where / "r.json")]) == 0
        reports.append(nontimestamp_lines(where / "r.json"))
    assert reports[0] == reports[1]


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


def test_mix_rejects_a_repeated_label(tmp_path, capsys):
    f = write_ascii(tmp_path, "abc" * 4000)
    assert main(["mix", f, "--labels", "a,c,a"]) == 2
    err = capsys.readouterr().err
    assert "'a' repeated" in err and len(err.strip().splitlines()) == 1


def test_randomness_on_a_seeded_word_passes(tmp_path):
    bits = np.random.default_rng(1234).integers(0, 2, size=10**5)
    f = tmp_path / "w.bin"
    f.write_bytes(pack_bits(bits))
    code, report = run(["randomness", str(f), "--format", "raw"], tmp_path)
    assert code == 0
    assert report["payload"]["overall"] == "pass"
    assert len(report["payload"]["rules"]) == 3


def test_after_names_labels_longer_than_one_character(tmp_path):
    trials = np.random.default_rng(7).choice(["heads", "tails"], size=3000).tolist()
    f = tmp_path / "coins.csv"
    f.write_text("".join(f"{t}\n" for t in trials))
    code, report = run(["randomness", str(f), "--format", "csv",
                        "--rules", "identity,after:heads,after:heads|tails"], tmp_path)
    assert code == 0
    rules = {r["rule"]: r for r in report["payload"]["rules"]}
    assert list(rules) == ["identity", "after:heads", "after:heads|tails"]
    assert rules["after:heads"]["selected"] == sum(
        a == "heads" for a in trials[:-1])
    assert rules["after:heads|tails"]["selected"] == sum(
        (a, b) == ("heads", "tails") for a, b in zip(trials, trials[1:-1]))


def test_after_a_bar_is_a_label_of_an_ascii_input_that_has_it(tmp_path):
    text = "".join(np.random.default_rng(8).choice(list("ab|"), size=3000))
    f = write_ascii(tmp_path, text)
    code, report = run(["randomness", f, "--rules", "after:|,after:a|"], tmp_path)
    assert code == 0
    rules = {r["rule"]: r for r in report["payload"]["rules"]}
    assert list(rules) == ["after:|", "after:a|"]
    assert rules["after:|"]["selected"] == text[:-1].count("|")
    assert rules["after:a|"]["selected"] == sum(
        text[i:i + 2] == "a|" for i in range(len(text) - 2))


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


# a over {0, 1} against (a, b) over a in {0, 1, 2}: the largest deviation, 2/5, is at a = 2
RANGE_GAP_PMFS = [
    {"observables": ["a"], "ranges": {"a": [0, 1]}, "mass": {"0": "4/5", "1": "1/5"}},
    {"observables": ["a", "b"], "ranges": {"a": [0, 1, 2], "b": [0]},
     "mass": {"0|0": "3/5", "2|0": "2/5"}},
]


@pytest.mark.parametrize("order", [1, -1])
def test_a_deviation_outside_one_pmfs_range_reads_the_same_in_either_order(tmp_path, order):
    doc = tmp_path / "fam.json"
    pmfs = RANGE_GAP_PMFS[::order]
    doc.write_text(json.dumps({"pmfs": pmfs}))
    code, report = run(["marginal", str(doc)], tmp_path)
    assert code == 0
    assert report["payload"]["feasibility"]["violated_facet"] == {
        "facet": "no-signaling", "value": "2/5"}
    code, report = run(["consistency", str(doc)], tmp_path)
    assert code == 0
    pl = report["payload"]
    ((a, b, common, ns_dev),) = pl["no_signaling"]["violations"]
    assert ns_dev == "2/5" and common == ["a"] and [a, b] == [p["observables"] for p in pmfs]
    assert pl["projective"]["violations"] == [["projection", ["a", "b"], ["a"], "2/5"]]
    assert pl["consistent"] is False


@pytest.mark.parametrize("command", ["marginal", "consistency"])
def test_each_pmf_is_marginalized_once_per_common_set(tmp_path, monkeypatch, command):
    """All pairs and singles of four observables, the marginals of one joint: the overlap
    pass, the labelled consistency check and the witness check share each marginal."""
    joint = marginals.JointPMF(("a", "b", "c", "d"), {o: (0, 1) for o in "abcd"}, {
        t: Fraction(1 + sum(t), 48) for t in itertools.product((0, 1), repeat=4)})
    pmfs = [marginals.marginalize(joint, s)
            for r in (1, 2) for s in itertools.combinations(joint.observables, r)]
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps({"pmfs": [{
        "observables": list(p.observables), "ranges": {o: [0, 1] for o in p.observables},
        "mass": {"|".join(map(str, t)): str(m) for t, m in p.mass.items()}} for p in pmfs]}))
    seen, real = [], marginals.marginalize
    monkeypatch.setattr(marginals, "marginalize",
                        lambda p, subset: seen.append((p, tuple(subset))) or real(p, subset))
    code, report = run([command, str(doc)], tmp_path)
    assert code == 0 and report["payload"]["no_signaling"]["consistent"] is True
    keys = [(id(p), subset) for p, subset in seen]
    assert len(keys) == len(set(keys)) > 0


REPEATED_ONE_PMF = ('{"pmfs": [{"observables": ["a"], "ranges": {"a": [0, 1]}, '
                    '"mass": {%s}}]}')
REPEATS = {  # name -> (input file, its text)
    "json-key": ("doc.json", REPEATED_ONE_PMF % '"0": "1/2", "1": "1/4", "1": "1/2"'),
    "cell": ("doc.json", REPEATED_ONE_PMF % '"0": "1/2", " 0": "1/2", "1": "1/2"'),
    "csv-row": ("doc.csv", "a,0,1/2\na,0,0\na,1,1/2\n"),
    "signed-key": ("doc.json", '{"weights": {"a": "-1/2", "b": "3/4", "b": "3/2"}}'),
}


@pytest.mark.parametrize("command, case", [
    *((c, r) for c in ("marginal", "consistency") for r in ("json-key", "cell", "csv-row")),
    ("signed", "signed-key"),
])
def test_a_repeated_key_or_cell_exits_two(tmp_path, capsys, command, case):
    name, text = REPEATS[case]
    doc = tmp_path / name
    doc.write_text(text)
    assert main([command, str(doc)]) == 2
    err = capsys.readouterr().err
    assert "repeats" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["marginal", "consistency"])
def test_observables_given_as_a_string_exit_two(tmp_path, capsys, command):
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps({"pmfs": [{
        "observables": "ab", "ranges": {"a": [0, 1], "b": [0, 1]},
        "mass": {"0|0": "1/2", "1|1": "1/2"}}]}))
    assert main([command, str(doc)]) == 2
    err = capsys.readouterr().err
    assert "observables" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["marginal", "consistency"])
@pytest.mark.parametrize("values", ["ab", {"a": 0, "b": 1}], ids=["string", "object"])
def test_a_range_that_is_not_a_list_exits_two(tmp_path, capsys, command, values):
    """Read as its characters or its keys, it ran `marginal` to a witness on a and b."""
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps({"pmfs": [{
        "observables": ["x"], "ranges": {"x": values}, "mass": {"a": "1/2", "b": "1/2"}}]}))
    assert main([command, str(doc)]) == 2
    err = capsys.readouterr().err
    assert "ranges" in err and len(err.strip().splitlines()) == 1


def one_pmf_over_thirty_binary_observables() -> dict:
    names = [f"x{i:02d}" for i in range(30)]
    return {"pmfs": [{"observables": names, "ranges": {o: [0, 1] for o in names},
                      "mass": {"|".join("0" * 30): "1"}}]}


def twenty_binary_singletons() -> dict:
    return {"pmfs": [{"observables": [o], "ranges": {o: [0, 1]}, "mass": {"0": "1/2", "1": "1/2"}}
                     for o in (f"s{i:02d}" for i in range(20))]}


@pytest.mark.parametrize("document", [one_pmf_over_thirty_binary_observables,
                                      twenty_binary_singletons])
def test_a_joint_support_past_the_cap_exits_three_at_once(tmp_path, capsys, document):
    """Neither the pmf's 2^30 tuples nor the family's 2^20 atoms are ever built."""
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps(document()))
    start = time.monotonic()
    assert main(["marginal", str(doc)]) == 3
    assert time.monotonic() - start < 2
    err = capsys.readouterr().err
    assert "joint support exceeds" in err and len(err.strip().splitlines()) == 1


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


def test_ville_rejects_a_pattern_off_the_alphabet_before_any_trial(capsys, monkeypatch):
    from collectiva import collectives

    def no_window(*args):
        raise AssertionError("a window of trials was decided")

    monkeypatch.setattr(collectives, "_window_mask", no_window)
    assert main(["ville", "--rules", "identity,after:12", "--n", "100"]) == 2
    err = capsys.readouterr().err
    assert "label '2' not in alphabet" in err and len(err.strip().splitlines()) == 1


def test_large_ville_run_omits_the_sequence(tmp_path):
    code, report = run(["ville", "--n", "8192"], tmp_path)
    assert code == 0
    assert "sequence" not in report["payload"]
    assert any("omitted" in w for w in report["warnings"])


def test_memory_budget_stops_raw_reads_and_ville_with_one_line(tmp_path, capsys, monkeypatch):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes(16384))  # held as it is read: 16384 bytes
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "10000")
    for argv in (["stabilize", str(f), "--format", "raw"], ["ville", "--n", "1000"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity limit:") and "COLLECTIVA_MAX_MEM" in err
        assert len(err.splitlines()) == 1


def test_a_raw_read_is_budgeted_at_one_bit_per_trial(tmp_path, monkeypatch):
    """A raw file is held as it is read, so a budget of twice its size is
    enough for a run over it."""
    f = tmp_path / "x.bin"
    f.write_bytes(np.random.default_rng(4).integers(0, 256, 4096, dtype=np.uint8).tobytes())
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(2 * 4096))
    code, report = run(["stabilize", str(f), "--format", "raw"], tmp_path)
    assert code == 0
    assert report["payload"]["length"] == 8 * 4096


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
    "padic": "228ab1ac85a80c2c",
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


def run_python(tmp_path, script: str) -> str:
    """stdout of `python -c script` in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def signed_document(tmp_path) -> str:
    doc = {"weights": {"a": "-1/2", "b": "3/4", "c": "3/4"},
           "variable": {"a": 0, "b": 1, "c": 2}}
    return write_ascii(tmp_path, json.dumps(doc), "space.json")


def rationals_file(tmp_path) -> str:
    return write_ascii(tmp_path, "".join(f"{2**k - 1}/{2**k + 1}\n" for k in range(1, 13)),
                       "path.csv")


@pytest.mark.parametrize("case", [
    "import collectiva",
    "import collectiva.cli",
    "signed three-atom",
    "signed FILE",
    "padic FILE --format csv",
    "stabilize FILE",
])
def test_numpy_is_loaded_only_by_commands_that_build_arrays(tmp_path, case):
    """A command's cold start pays for the modules it runs.  `signed` and a
    rational `padic` path build no array, so neither they nor the imports
    load numpy; `stabilize`, which reads trials, shows the probe sees it."""
    files = {"signed": signed_document, "padic": rationals_file,
             "stabilize": lambda d: write_ascii(d, "01" * 100)}
    if case.startswith("import"):
        code = case
    else:
        argv = case.split()
        argv = [files[argv[0]](tmp_path) if a == "FILE" else a for a in argv]
        code = f"from collectiva.cli import main; assert main({argv + ['--out', 'r.json']!r}) == 0"
    out = run_python(tmp_path, f"import sys\n{code}\nprint('numpy' in sys.modules)")
    assert out == str(case.startswith("stabilize"))


@pytest.mark.parametrize("command", ["battery", "complexity", "randomness", "select", "ville"])
def test_only_marginal_loads_scipy(tmp_path, command):
    """The battery's p-values come from `math`; of SciPy, only `marginal`'s
    HiGHS bindings are ever loaded."""
    f = write_ascii(tmp_path, "0110100110010110" * 64)
    argv = ["ville", "--n", "2000"] if command == "ville" else [command, f]
    script = (
        "import sys; from collectiva.cli import main; "
        f"code = main({argv + ['--out', 'r.json']!r}); "
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert run_python(tmp_path, script) == "0 []"


def test_complexity_compresses_each_prefix_once(tmp_path, monkeypatch):
    """The rate curve's bodies give the conditional estimate and the dips;
    only the whole word is round-tripped."""
    from collectiva import complexity

    calls = []
    for name in ("_deflate_compress", "_deflate_decompress"):
        fn = getattr(complexity, name)
        monkeypatch.setattr(complexity, name,
                            lambda data, fn=fn, name=name: calls.append(name) or fn(data))
    # sparse ones: the 64- and 128-bit prefixes dip only without the length header
    bits = (np.random.default_rng(2).random(4096) < 0.08).astype(np.uint8)
    f = tmp_path / "w.raw"
    f.write_bytes(pack_bits(bits))
    code, report = run(["complexity", str(f), "--format", "raw"], tmp_path)
    assert code == 0
    ns = complexity.default_prefix_lengths(bits.size)
    assert calls.count("_deflate_compress") == len(ns)
    assert calls.count("_deflate_decompress") == 1
    pl = report["payload"]
    assert pl["conditional"]["k_hat"] == complexity.estimate_K_conditional(bits, bits.size).k_hat
    assert pl["dips"] == complexity.martin_lof_dip_scan(bits)
    assert pl["dips"][:2] == [64, 128]


def test_complexity_of_a_one_bit_word(tmp_path):
    code, report = run(["complexity", write_ascii(tmp_path, "1")], tmp_path)
    assert code == 0
    pl = report["payload"]
    assert (pl["curve"], pl["dips"]) == ([], [])
    assert pl["estimate"]["k_hat"] - pl["conditional"]["k_hat"] == 4  # header_bits(1)


def test_star_import_binds_each_public_name_to_its_module_attribute(tmp_path):
    script = (
        "import collectiva\n"
        "from collectiva import *\n"
        "names = [n for names in collectiva._PUBLIC.values() for n in names]\n"
        "assert sorted(names) == collectiva.__all__, names\n"
        "print([n for m, names in collectiva._PUBLIC.items() for n in names\n"
        "       if globals()[n] is not getattr(getattr(collectiva, m), n)])"
    )
    assert run_python(tmp_path, script) == "[]"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        collectiva.no_such_name


CLIBENCH = Path(__file__).resolve().parents[1] / "clibench"


def test_cli_import_registers_every_module_the_benchmark_tracer_wraps(tmp_path):
    """clibench's tracer looks up each module of layers.WRAPPED in sys.modules
    right after `import collectiva.cli`, before any command runs."""
    script = (
        f"import sys; sys.path.insert(0, {str(CLIBENCH)!r})\n"
        "import layers, collectiva.cli\n"
        "print([m for m in layers.WRAPPED if f'collectiva.{m}' not in sys.modules])"
    )
    assert run_python(tmp_path, script) == "[]"
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(CLIBENCH / "trace_op.py"), str(spans), "signed", "cli",
         "signed", "three-atom", "--n", "8"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    names = [json.loads(line)["name"] for line in spans.read_text().splitlines()]
    assert "signed_prob.weak_lln_check" in names


@pytest.mark.parametrize("document, method", [
    ({"e12": "1/2", "e23": "1/2", "e13": "-1"}, "lp-certified"),
    ({"e12": 0.5, "e23": 0.5, "e13": -0.75}, "lp-highs"),
])
def test_marginal_solves_without_scipy_optimize_or_sparse(tmp_path, document, method):
    """HiGHS is reached through its bindings alone, not through linprog."""
    f = write_ascii(tmp_path, json.dumps(document), "corr.json")
    script = (
        "import sys; from collectiva.cli import main; "
        f"code = main(['marginal', {f!r}, '--out', 'r.json']); "
        "print(code, [m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert json.loads((tmp_path / "r.json").read_text())["payload"]["feasibility"]["method"] == method


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


# --- per-command options --------------------------------------------------------------

# the options each command declares among the seven that every command once took
DECLARED_SHARED = {
    "stabilize": {"--format", "--window", "--eps", "--out"},
    "select": {"--format", "--rules", "--seed", "--eps", "--out"},
    "mix": {"--format", "--window", "--eps", "--out"},
    "randomness": {"--format", "--rules", "--seed", "--eps", "--out"},
    "complexity": {"--format", "--out"},
    "battery": {"--format", "--out"},
    "marginal": {"--format", "--out"},
    "consistency": {"--format", "--out"},
    "padic": {"--format", "--window", "--eps", "--prime", "--out"},
    "signed": {"--out"},
    "ville": {"--rules", "--seed", "--eps", "--out"},
}
SHARED_VALUES = {"--format": "csv", "--rules": "identity", "--seed": "0", "--window": "2",
                 "--eps": "0.01", "--prime": "2", "--out": "r.json"}


def command_argv(command):
    return [command, *([] if command == "ville" else ["in.txt"]),
            *(["--labels", "0"] if command == "mix" else [])]


@pytest.mark.parametrize("command, flag", [
    (c, f) for c in sorted(DECLARED_SHARED) for f in sorted(SHARED_VALUES)
    if f not in DECLARED_SHARED[c]
])
def test_undeclared_shared_flag_exits_two(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command_argv(command), flag, SHARED_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (c, f) for c in sorted(DECLARED_SHARED) for f in sorted(DECLARED_SHARED[c])
])
def test_declared_shared_flag_is_parsed(command, flag):
    args = build_parser().parse_args([*command_argv(command), flag, SHARED_VALUES[flag]])
    assert str(getattr(args, flag[2:])) == SHARED_VALUES[flag]


def test_commands_declare_44_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    count = sum(
        1 for p in sub.choices.values() for a in p._actions
        if a.option_strings and "-h" not in a.option_strings
    )
    assert count == 44


def test_ignored_options_are_rejected_not_echoed(capsys):
    argv = ["signed", "three-atom", "--eps", "banana", "--prime", "9", "--rules", "nope",
            "--format", "raw", "--window", "-7", "--seed", "-4"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_echoes_only_the_options_that_ran(tmp_path):
    code, report = run(["signed", "three-atom", "--n", "4"], tmp_path)
    assert code == 0 and set(report["config"]) == {"input", "n"}
    f = write_ascii(tmp_path, '{"e12": 1, "e23": 1, "e13": -1}', "corr.json")
    code, report = run(["marginal", f], tmp_path)
    assert code == 0 and report["config"] == {"format": "json", "input": input_echo(f)}
    assert report["config"]["input"]["name"] == "corr.json"


@pytest.mark.parametrize("argv, reason", [
    (["ville", "--n", "3", "--min-count", "0", "--rules", "after:11"], "min_count"),
    (["ville", "--n", "10", "--eps", "1e-400"], "epsilon"),
    (["randomness", "seq.txt", "--min-count", "0", "--rules", "after:111"], "min_count"),
    (["padic", "r.csv", "--format", "csv", "--window", "0"], "window"),
    (["padic", "r.csv", "--format", "csv", "--window", "-3"], "window"),
])
def test_out_of_domain_counts_and_windows_exit_two(tmp_path, capsys, argv, reason):
    files = {
        "seq.txt": write_ascii(tmp_path, "01" * 200),
        "r.csv": write_ascii(tmp_path, "".join(f"{k}/{k + 1}\n" for k in range(1, 60)), "r.csv"),
    }
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert reason in err and len(err.strip().splitlines()) == 1


def test_ville_epsilon_past_the_float_range_checks_from_30_selections(tmp_path):
    code, report = run(["ville", "--n", "3", "--rules", "coin:5", "--eps", "1e999"], tmp_path)
    assert code == 0 and report["payload"]["constructed"] is True


@pytest.mark.parametrize("argv", [
    ["stabilize", "seq.txt", "--eps", "1e-10000000"],
    ["padic", "r.csv", "--format", "csv"],
])
def test_decimal_exponents_past_the_digit_limit_exit_three_at_once(tmp_path, capsys, argv):
    files = {
        "seq.txt": write_ascii(tmp_path, "01" * 200),
        "r.csv": write_ascii(tmp_path, "1/2\n1e-10000000\n1/3\n", "r.csv"),
    }
    start = time.monotonic()
    assert main([files.get(a, a) for a in argv]) == 3
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert f"{sys.get_int_max_str_digits()}-digit" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["stabilize", "select"])
def test_rationals_past_the_string_digit_limit_exit_three(tmp_path, capsys, command):
    f = write_ascii(tmp_path, "01" * 200)
    assert main([command, f, "--eps", "1e-5000"]) == 3
    err = capsys.readouterr().err
    assert f"{sys.get_int_max_str_digits()}-digit" in err
    assert len(err.strip().splitlines()) == 1
