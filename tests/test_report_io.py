"""Sequence file ingestion (raw/ascii/csv), rational lists, and the JSON
run-report schema with its deterministic rendering."""

import csv
import dataclasses
import io
import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva.collectives import BINARY, LabelAlphabet, store_bytes
from collectiva import seqio
from collectiva.complexity import pack_bits
from collectiva.errors import CapacityError, InputError
from collectiva.report import (
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    ReportSchemaError,
    jsonable,
    make_report,
    render_report,
    validate_report,
    write_report,
)
from collectiva.seqio import FORMATS, read_rationals, read_sequence

from _oracles import per_character_parse


# --- raw format -----------------------------------------------------------------------

def test_raw_unpacks_most_significant_bit_first(tmp_path):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes([0xA0]))
    x = read_sequence(f, "raw")
    assert x.alphabet.labels == BINARY.labels
    assert list(x.data) == [1, 0, 1, 0, 0, 0, 0, 0]


def test_raw_round_trips_with_the_bit_packer(tmp_path):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=64)
    f = tmp_path / "x.bin"
    f.write_bytes(pack_bits(bits))
    assert list(read_sequence(f, "raw").data) == list(bits)


def test_raw_trials_are_held_as_the_file_bytes(tmp_path):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes([0x5A, 0xFF]))
    x = read_sequence(f, "raw")
    assert x.trials(0, 3).dtype == np.uint8
    assert bytes(x.packed()) == bytes([0x5A, 0xFF])
    store = np.frombuffer(x.packed(), dtype=np.uint8)
    assert np.shares_memory(store, np.frombuffer(x.packed(16), dtype=np.uint8))
    assert not store.flags.writeable


def test_raw_read_checks_the_memory_budget(tmp_path, monkeypatch):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes(100))
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "100")
    assert len(read_sequence(f, "raw")) == 800
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "99")
    with pytest.raises(CapacityError, match="holding 100 raw bytes"):
        read_sequence(f, "raw")


@pytest.mark.parametrize("text, alphabet, nbytes", [
    ("01\n" * 500, None, 125),  # binary: one bit per trial
    ("abc" * 333 + "a", None, 1000),  # one byte per trial
    ("01" * 500, LabelAlphabet(tuple("01") + tuple(range(300))), 8000),  # int64 indices
])
def test_text_reads_check_the_memory_budget_of_their_store(tmp_path, monkeypatch,
                                                           text, alphabet, nbytes):
    f = tmp_path / "x.txt"
    f.write_text(text)
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(nbytes))
    assert len(read_sequence(f, "ascii", alphabet)) == 1000
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(nbytes - 1))
    with pytest.raises(CapacityError, match=f"holding 1000 trials in {nbytes} bytes"):
        read_sequence(f, "ascii", alphabet)


def test_raw_empty_file_is_rejected(tmp_path):
    f = tmp_path / "x.bin"
    f.write_bytes(b"")
    with pytest.raises(InputError, match="empty input"):
        read_sequence(f, "raw")


# --- ascii format ---------------------------------------------------------------------

def test_ascii_ignores_newlines_and_infers_a_sorted_alphabet(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("ba\nab\r\nb")
    x = read_sequence(f, "ascii")
    assert x.alphabet.labels == ("a", "b")
    assert x.labels() == ["b", "a", "a", "b", "b"]


def test_ascii_respects_an_explicit_alphabet(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("0110")
    x = read_sequence(f, "ascii", alphabet=LabelAlphabet(("1", "0")))
    assert list(x.data) == [1, 0, 0, 1]


def test_ascii_constant_input_gets_a_padded_alphabet(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("aaa")
    x = read_sequence(f, "ascii")
    assert len(x.alphabet.labels) == 2
    assert x.labels() == ["a", "a", "a"]


def test_ascii_label_outside_the_alphabet_is_rejected(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("012")
    with pytest.raises(InputError, match="not in alphabet"):
        read_sequence(f, "ascii", alphabet=BINARY)


TEXT_CHARS = st.sampled_from(["a", "b", "0", "1", "\x00", "\x01", "ß", "β", "€", "😀", "\n", "\r"])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_ascii_parse_matches_the_per_character_parse(tmp_path_factory, data):
    chars = st.one_of(TEXT_CHARS, st.characters(codec="utf-8"))
    text = data.draw(st.text(chars, min_size=1, max_size=300), label="text")
    if not text.replace("\n", "").replace("\r", ""):
        text += "a"
    if data.draw(st.booleans(), label="constant"):
        text = text.replace("\n", "").replace("\r", "")[0] * len(text) + "\r\n"
    labels = None
    if data.draw(st.booleans(), label="explicit alphabet"):
        pool = [*sorted(set(text.replace("\n", "").replace("\r", "")) | {"x", "yz"}), 7]
        labels = tuple(data.draw(st.permutations(pool), label="order"))
        labels = labels[:data.draw(st.integers(2, len(labels)), label="kept")]
    f = tmp_path_factory.mktemp("ascii") / "x.txt"
    f.write_bytes(text.encode("utf-8"))
    try:
        want = per_character_parse(text, labels)
    except KeyError as exc:
        alphabet = LabelAlphabet(labels)
        with pytest.raises(InputError) as err:
            read_sequence(f, "ascii", alphabet=alphabet)
        assert str(err.value) == f"label {exc.args[0]!r} not in alphabet {alphabet.labels!r}"
        return
    x = read_sequence(f, "ascii", alphabet=None if labels is None else LabelAlphabet(labels))
    assert (x.alphabet.labels, x.data.tolist()) == want
    assert x.data.dtype == (np.uint8 if len(want[0]) <= 256 else np.int64)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_text_read_in_steps_that_cut_characters_matches_the_whole_decode(tmp_path_factory, data):
    """Steps of 1 to 9 bytes cut 2- to 4-byte characters and invalid
    sequences apart; the trials, and the offset an error names, are those
    of the text decoded whole."""
    text = data.draw(st.text(st.one_of(TEXT_CHARS, st.characters(codec="utf-8")),
                             min_size=1, max_size=60), label="text")
    blob = bytearray(text.encode("utf-8"))
    if data.draw(st.booleans(), label="corrupt"):
        at = data.draw(st.integers(0, len(blob)), label="at")
        blob[at:at] = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80",
                                                  b"\xf0\x9f\x98", b"\xed\xa0\x80"]),
                                label="bad bytes")
    f = tmp_path_factory.mktemp("steps") / "x.txt"
    f.write_bytes(bytes(blob))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "TEXT_STEP", data.draw(st.integers(1, 9), label="step"))
        try:
            whole = bytes(blob).decode("utf-8")
        except UnicodeDecodeError as exc:
            with pytest.raises(InputError) as err:
                read_sequence(f, "ascii")
            assert str(err.value) == f"{f}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            return
        if not whole.replace("\n", "").replace("\r", ""):
            with pytest.raises(InputError, match="empty input"):
                read_sequence(f, "ascii")
            return
        x = read_sequence(f, "ascii")
    assert (x.alphabet.labels, x.data.tolist()) == per_character_parse(whole)


def test_ascii_over_256_distinct_characters_stores_int64(tmp_path):
    f = tmp_path / "x.txt"
    text = "".join(chr(0x400 + i) for i in range(300)) * 2 + "\n"
    f.write_text(text, encoding="utf-8")
    x = read_sequence(f, "ascii")
    assert x.data.dtype == np.int64
    assert (x.alphabet.labels, x.data.tolist()) == per_character_parse(text)


# --- csv format -----------------------------------------------------------------------

def test_csv_reads_one_label_per_row(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("up\ndown\n\nup\n")
    x = read_sequence(f, "csv")
    assert x.alphabet.labels == ("down", "up")
    assert x.labels() == ["up", "down", "up"]


# multi-character labels, fields csv.writer quotes, and characters that
# str.splitlines() breaks a line at but a csv row does not end at
CSV_LABELS = st.sampled_from(["up", "down", "a", "", " b ", "x,y", "two\nlines", "cr\rlf",
                              'say "hi"', "a\x85b", "c\u2028d", "e\x0cf", "g\x1eh", "\u2029",
                              "ß€😀"])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_csv_read_in_steps_matches_the_csv_module(tmp_path_factory, data):
    """Whatever TEXT_STEP is, the trials are the stripped first fields of the
    non-empty rows that csv.reader finds in the whole text."""
    rows = data.draw(st.lists(st.lists(CSV_LABELS, max_size=3), max_size=30), label="rows")
    buf = io.StringIO(newline="")
    line_end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    csv.writer(buf, lineterminator=line_end).writerows(rows)
    text = buf.getvalue()
    want = [r[0].strip() for r in csv.reader(io.StringIO(text, newline="")) if r]
    labels = None
    if data.draw(st.booleans(), label="explicit alphabet"):
        labels = tuple(data.draw(st.permutations(sorted(set(want) | {"x", "yz"})), label="order"))
        labels = labels[:data.draw(st.integers(2, len(labels)), label="kept")]
    missing = [lab for lab in want if labels is not None and lab not in labels]
    f = tmp_path_factory.mktemp("csv") / "x.csv"
    f.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "TEXT_STEP", data.draw(st.integers(1, 9), label="step"))
        alphabet = None if labels is None else LabelAlphabet(labels)
        if not want or missing:
            with pytest.raises(InputError) as err:
                read_sequence(f, "csv", alphabet)
            assert str(err.value) == (f"label {missing[0]!r} not in alphabet {labels!r}"
                                      if missing else f"{f}: empty input")
            return
        x = read_sequence(f, "csv", alphabet)
    assert x.labels() == want
    if labels is None:
        uniq = tuple(sorted(set(want)))
        assert x.alphabet.labels[:len(uniq)] == uniq and x.alphabet.size == max(2, len(uniq))


def test_a_csv_read_holds_its_store_and_a_few_steps_of_labels(tmp_path):
    """The rows stream through two passes, so the peak is the store plus a
    few lists of TEXT_STEP labels; holding the file's lines and rows took
    41 MB here."""
    f = tmp_path / "x.csv"
    coins = np.array(["heads", "tails", "edge"])[np.random.default_rng(6).integers(0, 3, 200_000)]
    f.write_text("".join(f"{lab}\n" for lab in coins))
    tracemalloc.start()
    try:
        x = read_sequence(f, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.labels() == coins.tolist()
    step = seqio.TEXT_STEP * (sys.getsizeof("heads") + 8)  # one list of TEXT_STEP labels
    assert peak < store_bytes(3, len(x)) + 3 * step


def test_csv_readers_name_the_file_offset_of_a_byte_that_is_not_utf8(tmp_path):
    f = tmp_path / "x.csv"
    f.write_bytes(b"1/2\n" * 5000 + b"\xff\n")  # past the first blocks the reader decodes
    for read in (lambda: read_sequence(f, "csv"), lambda: read_rationals(f),
                 lambda: list(seqio.csv_rows(f))):
        with pytest.raises(InputError) as err:
            read()
        assert str(err.value) == f"{f}: not UTF-8 text (invalid start byte at byte 20000)"


def test_unknown_format_lists_the_choices(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("01")
    with pytest.raises(InputError, match="raw"):
        read_sequence(f, "nope")
    assert FORMATS == ("raw", "ascii", "csv")


def test_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_sequence(tmp_path / "absent.bin", "raw")


# --- rationals ------------------------------------------------------------------------

def test_rationals_accept_fractions_integers_and_decimals(tmp_path):
    f = tmp_path / "q.csv"
    f.write_text("1/3\n2\n\n0.5\n-7/4\n")
    assert read_rationals(f) == [
        Fraction(1, 3), Fraction(2), Fraction(1, 2), Fraction(-7, 4),
    ]


def test_rationals_reject_garbage_with_the_row_number(tmp_path):
    f = tmp_path / "q.csv"
    f.write_text("1/3\nx/y\n")
    with pytest.raises(InputError, match="row 2"):
        read_rationals(f)
    f.write_text("1/0\n")
    with pytest.raises(InputError, match="bad rational"):
        read_rationals(f)
    f.write_text("\n\n")
    with pytest.raises(InputError, match="empty input"):
        read_rationals(f)


def test_a_rational_row_holding_a_line_separator_is_one_bad_row(tmp_path):
    f = tmp_path / "q.csv"
    f.write_text("1/2\u20281/4\n", encoding="utf-8")
    with pytest.raises(InputError, match="row 1: bad rational"):
        read_rationals(f)


# --- json conversion ------------------------------------------------------------------

def test_jsonable_fractions_are_lossless_strings():
    assert jsonable(Fraction(-3, 8)) == "-3/8"
    assert jsonable({Fraction(1, 2): Fraction(1, 4)}) == {"1/2": "1/4"}


def test_jsonable_numpy_and_containers():
    assert jsonable(np.int64(5)) == 5 and isinstance(jsonable(np.int64(5)), int)
    assert jsonable(np.float64(0.5)) == 0.5
    assert jsonable(np.arange(3)) == [0, 1, 2]
    assert jsonable({("a", 1): 2}) == {"a|1": 2}
    assert jsonable({3, 1, 2}) == [1, 2, 3]
    assert jsonable((1, [2, {3}])) == [1, [2, [3]]]


def test_jsonable_dataclasses_and_nonfinite_floats():
    @dataclasses.dataclass
    class Row:
        name: str
        value: Fraction

    assert jsonable(Row("a", Fraction(1, 3))) == {"name": "a", "value": "1/3"}
    assert jsonable(float("nan")) == "nan"
    assert jsonable(math.inf) == "inf"


# --- report schema and rendering ------------------------------------------------------

def sample_report():
    return make_report(
        "stabilize",
        {"seed": 1, "epsilon": Fraction(1, 100)},
        {"limit": {"0": Fraction(1, 2)}, "checkpoints": np.array([1, 2, 4])},
        warnings=["w"],
    )


def test_report_structure_and_schema():
    r = sample_report()
    assert set(r) == set(REPORT_SCHEMA["required"])
    assert r["schema_version"] == SCHEMA_VERSION
    assert r["config"]["epsilon"] == "1/100"
    assert r["payload"]["checkpoints"] == [1, 2, 4]
    validate_report(r)


def test_schema_rejects_missing_and_extra_fields():
    r = sample_report()
    del r["warnings"]
    with pytest.raises(ReportSchemaError):
        validate_report(r)
    r = sample_report()
    r["extra"] = 1
    with pytest.raises(ReportSchemaError):
        validate_report(r)


DROP = object()
ENVELOPE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=3),
    st.lists(st.one_of(st.text(max_size=2), st.integers(0, 1)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
)
ENVELOPE_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(REPORT_SCHEMA["required"]), st.just(DROP)),
    st.tuples(st.sampled_from(REPORT_SCHEMA["required"]), ENVELOPE_VALUES),
    st.tuples(st.text(max_size=3), ENVELOPE_VALUES),
    st.tuples(st.just("schema_version"), st.sampled_from(["1", "2", "", 1, 1.0])),
    st.tuples(st.just("command"), st.sampled_from(["", " ", "x"])),
    st.tuples(st.just("warnings"),
              st.lists(st.one_of(st.text(max_size=2), st.integers(0, 1), st.none()), max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENVELOPE_MUTATIONS, max_size=3))
def test_validator_rejects_exactly_what_the_json_schema_rejects(mutations):
    """Dropped, extra and retyped keys, versions, commands and warnings."""
    r = sample_report()
    for key, value in mutations:
        if value is DROP:
            r.pop(key, None)
        else:
            r[key] = value
    try:
        jsonschema.validate(r, REPORT_SCHEMA)
        schema_rejects = False
    except jsonschema.ValidationError:
        schema_rejects = True
    try:
        validate_report(r)
        hand_rejects = False
    except ReportSchemaError:
        hand_rejects = True
    assert hand_rejects == schema_rejects


def test_identical_runs_differ_only_in_the_timestamp_line():
    a = render_report(sample_report())
    b = render_report(sample_report())
    diff = [
        (la, lb) for la, lb in zip(a.splitlines(), b.splitlines(), strict=True)
        if la != lb
    ]
    assert len(diff) <= 1
    assert all("generated_at" in la for la, _ in diff)


def test_render_is_sorted_and_newline_terminated():
    text = render_report(sample_report())
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert render_report(parsed) == text


def test_write_report_is_atomic_and_round_trips(tmp_path):
    r = sample_report()
    out = tmp_path / "report.json"
    write_report(r, out)
    assert json.loads(out.read_text()) == json.loads(render_report(r))
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    write_report(r, out)  # overwrite in place
    assert os.path.exists(out)


def test_write_report_to_stdout(capsys):
    write_report(sample_report())
    seen = capsys.readouterr().out
    assert json.loads(seen)["command"] == "stabilize"


def test_write_report_validates_first(tmp_path):
    bad = sample_report()
    bad["payload"] = "not an object"
    with pytest.raises(ReportSchemaError):
        write_report(bad, tmp_path / "r.json")
    assert list(tmp_path.iterdir()) == []


def test_rationals_past_the_string_digit_limit_are_a_capacity_error():
    huge = Fraction(1, 10**5000)
    with pytest.raises(CapacityError, match="digit"):
        jsonable({"eps": huge})
    with pytest.raises(CapacityError, match="digit"):
        jsonable({huge: 1})
    assert jsonable(Fraction(1, 10**4000)) == "1/1" + "0" * 4000
