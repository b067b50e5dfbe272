"""CLI fuzz gate: every command, fed random files and random values for the
options it declares, ends in exit 0 with a schema-valid report, or in exit 2
or 3 with one line on stderr -- never in a traceback."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva.cli import main
from collectiva.report import validate_report

# COLLECTIVA_FUZZ_EXAMPLES=500 runs the gate at ten times its tier-1 volume
FUZZ_EXAMPLES = int(os.environ.get("COLLECTIVA_FUZZ_EXAMPLES", "50"))
FUZZ_MEM = "268435456"  # COLLECTIVA_MAX_MEM for every example

SEQUENCE_FORMATS = ("raw", "ascii", "csv")
FAMILY_FORMATS = ("json", "csv")

# command -> (options it declares besides --out, whether it reads an input file)
COMMANDS = {
    "stabilize": (("--format", "--window", "--eps"), True),
    "select": (("--format", "--rules", "--seed", "--eps"), True),
    "mix": (("--format", "--window", "--eps", "--labels"), True),
    "randomness": (("--format", "--rules", "--seed", "--eps", "--min-count"), True),
    "complexity": (("--format",), True),
    "battery": (("--format", "--significance"), True),
    "marginal": (("--format",), True),
    "consistency": (("--format",), True),
    "padic": (("--format", "--window", "--eps", "--prime", "--label", "--padic-eps"), True),
    "signed": (("--n",), True),
    "ville": (("--rules", "--seed", "--eps", "--n", "--min-count"), False),
}
REQUIRED = {"--labels"}

TOLERANCES = ["abc", "nan", "inf", "1/0", "-1", "0", "0.01", "1/16", "1e999", "1e-400",
              "1e-5000"]
RULES = ["identity", "evens", "odds", "primes", "after:1", "after:10", "after:011",
         "coin", "coin:5", "coin:abc", "nope", ""]
LABELS = ["0", "1", "a", "b", "A", "zz", ""]
NUMBERS = ["0", "1", "-1", "1/2", "-1/2", "3/4", "0.25", "1e999", "1e-400", "nan",
           "abc", "1/0", "true", "1e20000000"]


def integers(hi=4096):
    return st.integers(-3, hi).map(str)


OPTION_VALUES = {
    "--window": integers(),
    "--seed": integers(),
    "--min-count": integers(),
    "--n": integers(),
    "--prime": integers(),
    "--eps": st.sampled_from(TOLERANCES),
    "--padic-eps": st.sampled_from(TOLERANCES),
    "--significance": st.sampled_from(TOLERANCES),
    "--rules": st.lists(st.sampled_from(RULES), max_size=3).map(",".join),
    "--label": st.sampled_from(LABELS),
    "--labels": st.lists(st.sampled_from(LABELS), max_size=3).map(",".join),
}

json_value = st.one_of(
    st.sampled_from(NUMBERS), st.integers(-3, 4096), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
any_json = st.recursive(
    json_value | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
observable = st.sampled_from(["x", "y", "z"])


@st.composite
def pmf_entry(draw):
    """A pmf entry whose fields are each well formed, or any JSON value."""
    obs = draw(st.lists(observable, min_size=1, max_size=3))
    ranges = {o: draw(st.lists(st.sampled_from(["0", "1", "2"]), min_size=1, max_size=3))
              for o in obs}
    keys = st.lists(st.sampled_from(["0", "1", "2"]), min_size=len(obs),
                    max_size=len(obs)).map("|".join)
    mass = draw(st.dictionaries(keys, json_value, max_size=6))
    return {"observables": draw(st.just(obs) | any_json),
            "ranges": draw(st.just(ranges) | any_json),
            "mass": draw(st.just(mass) | any_json)}


# well-formed documents, so that the analyses past the parsers are reached too
CELL_MASSES = [("1/4", "1/4", "1/4", "1/4"), ("1/2", "0", "0", "1/2"),
               ("0", "1/2", "1/2", "0"), (0.5, 0, 0, 0.5), ("1/3", "1/6", "1/6", "1/3")]
PAIRS = [("x", "y"), ("y", "z"), ("x", "z")]
CELLS = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


@st.composite
def binary_family(draw):
    """(observables, value tuple, mass) rows of pair pmfs on 0/1 observables."""
    rows = []
    for obs in draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=3,
                             unique=True)):
        masses = draw(st.sampled_from(CELL_MASSES))
        rows += [(obs, cell, m) for cell, m in zip(CELLS, masses)]
    return rows


def family_document(rows):
    pmfs = {}
    for obs, cell, m in rows:
        pmfs.setdefault(obs, {})["|".join(cell)] = m
    return {"pmfs": [{"observables": list(obs), "ranges": {o: ["0", "1"] for o in obs},
                      "mass": mass} for obs, mass in pmfs.items()]}


nice_value = st.sampled_from(["1", "-1", "0", "1/2", "-1/3", "3/4", 0.5, 1, -1, 0.25])
atom = st.sampled_from(["u", "v", "w", "t"])
json_doc = st.one_of(
    st.fixed_dictionaries({"e12": nice_value, "e23": nice_value, "e13": nice_value}),
    binary_family().map(family_document),
    st.sampled_from([{"u": "-1/2", "v": "3/4", "w": "3/4"}, {"u": 2, "v": -1},
                     {"u": 0.25, "v": 0.75}]).flatmap(lambda w: st.fixed_dictionaries(
                         {"weights": st.just(w)},
                         optional={"variable": st.fixed_dictionaries(
                             {a: nice_value for a in w})})),
    st.fixed_dictionaries({"e12": json_value, "e23": json_value, "e13": json_value},
                          optional={"means": st.lists(json_value, max_size=4)}),
    st.fixed_dictionaries({"pmfs": st.lists(pmf_entry(), max_size=3)}),
    st.fixed_dictionaries(
        {"weights": st.dictionaries(atom, json_value, max_size=4) | any_json},
        optional={"variable": st.dictionaries(atom, json_value, max_size=4) | any_json}),
    any_json,
)
# raw JSON text that json.dumps cannot write: an int past the 4300-digit
# limit of int("..."), and nesting past the recursion limit
BIG_INT = "1" * 5000
HOSTILE_JSON = [
    '{"weights": {"u": %s}, "e12": %s, "e23": 0, "e13": 0, "pmfs": [{"observables": ["x"], '
    '"ranges": {"x": [0, 1]}, "mass": {"0": %s}}]}' % (BIG_INT, BIG_INT, BIG_INT),
    "[" * 10**5 + "]" * 10**5,
]
csv_cell = st.sampled_from([*NUMBERS, *LABELS, "x|y", "0|1", "x|y|z", "1|0|1"])
csv_text = st.lists(st.lists(csv_cell, min_size=1, max_size=3), max_size=12).map(
    lambda rows: "".join(",".join(r) + "\n" for r in rows))
family_csv = binary_family().map(
    lambda rows: "".join(f"{'|'.join(o)},{'|'.join(c)},{m}\n" for o, c, m in rows))
rationals_csv = st.lists(nice_value | st.sampled_from(NUMBERS), min_size=1, max_size=40).map(
    lambda vals: "".join(f"{v}\n" for v in vals))
input_bytes = st.one_of(
    st.binary(max_size=256),
    st.text(alphabet="01ab\n ,", max_size=300).map(str.encode),
    json_doc.map(lambda d: json.dumps(d).encode()),
    st.sampled_from(HOSTILE_JSON).map(str.encode),
    st.one_of(csv_text, family_csv, rationals_csv).map(str.encode),
)


def run_cli(argv) -> tuple[int, str | None]:
    """Exit code and stderr; stderr is None when argparse rejected the argv."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), mock.patch.dict(
        os.environ, {"COLLECTIVA_MAX_MEM": FUZZ_MEM}
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            return exc.code, None
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_every_command_ends_in_exit_zero_two_or_three(workdir, command, data):
    flags, reads_input = COMMANDS[command]
    argv = [command]
    if reads_input:
        suffix = data.draw(st.sampled_from([".txt", ".csv", ".json", ".bin"]))
        path = Path(workdir) / f"input{suffix}"
        path.write_bytes(data.draw(input_bytes))
        if command == "signed":
            path = data.draw(st.sampled_from([str(path), "three-atom", "two-point"]))
        argv.append(str(path))
    for flag in flags:
        if flag in REQUIRED or data.draw(st.booleans()):
            if flag == "--format":
                formats = FAMILY_FORMATS if command in ("marginal", "consistency") \
                    else SEQUENCE_FORMATS
                value = data.draw(st.sampled_from(formats))
            else:
                value = data.draw(OPTION_VALUES[flag])
            argv += [flag, value]
    out = Path(workdir) / "report.json"
    out.unlink(missing_ok=True)
    code, err = run_cli([*argv, "--out", str(out)])
    assert code in (0, 2, 3), argv
    if code == 0:
        report = json.loads(out.read_text())
        validate_report(report)
        declared = {f[2:].replace("-", "_") for f in flags}
        assert set(report["config"]) <= declared | {"input"}
        if reads_input and Path(argv[1]).is_file():
            raw = Path(argv[1]).read_bytes()
            assert report["config"]["input"] == {
                "name": Path(argv[1]).name, "bytes": len(raw),
                "sha256": hashlib.sha256(raw).hexdigest()}
        elif reads_input:  # a bundled space, echoed by name
            assert report["config"]["input"] == argv[1]
    elif err is not None:
        assert len(err.strip().splitlines()) == 1, err
