"""Input text to values: raw, ASCII and CSV trial sequences, rationals, JSON documents."""

from __future__ import annotations

import codecs
import csv
import itertools
import json
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from . import collectives
from .errors import CapacityError, InputError, check_mem, echo, echoed

FORMATS = ("raw", "ascii", "csv")
# bytes of UTF-8 text decoded per step of the ascii reader, whose code-point
# lookup holds about 18 bytes per character, and labels per step of the csv reader
TEXT_STEP = 1 << 15
# what a *_from_document reader reports as a malformed document
MALFORMED = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)
# a decimal in Fraction's grammar with an exponent; group 1 is its magnitude
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                       r"[eE][-+]?(\d+(?:_\d+)*)\s*")


def read_sequence(path, fmt: str, alphabet: collectives.LabelAlphabet | None = None
                  ) -> collectives.TrialSequence:
    """Load a trial sequence.

    raw: each byte is 8 trials, most-significant bit first, alphabet 0/1;
    the file's bytes are the sequence's store.
    ascii: one character per trial, newlines ignored, TEXT_STEP bytes a step.
    csv: one label per non-empty row of csv_rows, its first field stripped,
    TEXT_STEP labels a step.  Both are read in two passes by _from_steps,
    which holds only the store.  Each reader declares its store to check_mem.
    """
    if fmt == "ascii":
        try:
            with open(path, "rb") as fh:
                return _from_steps(lambda: _text_steps(fh, path), path, alphabet)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    if fmt == "csv":
        return _from_steps(lambda: _csv_steps(path), path, alphabet)
    if fmt == "raw":
        blob = _read_bytes(path)
        if not blob:
            raise InputError(f"{path}: empty input")
        check_mem(len(blob), f"{path}: holding {len(blob)} raw bytes of trials")
        return collectives.TrialSequence.from_packed(blob, 8 * len(blob))
    raise InputError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    """The whole file as UTF-8 text; unreadable or undecodable input is an
    InputError."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def csv_rows(path) -> Iterator[list[str]]:
    """The csv rows of the file's UTF-8 text, streamed as they are read; a
    row ends only at a \\n, \\r or \\r\\n outside quotes.  Unreadable or
    undecodable input, or a field past csv.field_size_limit(), is an
    InputError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from csv.reader(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        read_text(path)  # raises the error that names the byte's offset in the file
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: invalid csv: {exc}") from exc


def read_json(path):
    """The file's JSON document; invalid JSON, an integer past the digit limit
    (ValueError), nesting past the recursion limit or a key repeated in one
    object is an InputError."""
    text = read_text(path)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key it repeats is an InputError, where json keeps the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"JSON object repeats the key {echo(key)}")
        out[key] = value
    return out


def _text_steps(fh, path) -> Iterator[str]:
    """The UTF-8 text of the file without its newlines and carriage returns,
    read and decoded TEXT_STEP bytes at a time from its start; an invalid
    byte is an InputError that names its offset, as read_text does."""
    fh.seek(0)
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # of the step in the file
    while True:
        step = fh.read(TEXT_STEP)
        pending = len(decoder.getstate()[0])  # bytes of a character cut by the last step
        try:
            text = decoder.decode(step, final=not step)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                             f"{offset - pending + exc.start})") from exc
        yield text.replace("\n", "").replace("\r", "")
        if not step:
            return
        offset += len(step)


def _csv_steps(path) -> Iterator[list[str]]:
    """The stripped first fields of the file's non-empty csv rows, TEXT_STEP
    at a time."""
    labels = (row[0].strip() for row in csv_rows(path) if row)
    while step := list(itertools.islice(labels, TEXT_STEP)):
        yield step


def _from_steps(steps, path, alphabet: collectives.LabelAlphabet | None
                ) -> collectives.TrialSequence:
    """One trial per label of the steps that each call of steps() yields: a
    str of one-character labels, or a list of labels.  The first pass counts
    the trials and, without an alphabet, collects the distinct labels,
    sorted into one.  The second maps each step to label indices and stores
    them as they come: a str by looking its code points up among the sorted
    codes of the single-character labels, a list label by label."""
    import numpy as np

    n, seen = 0, set()
    for step in steps():
        n += len(step)
        if alphabet is None:
            seen.update(step)
    if not n:
        raise InputError(f"{path}: empty input")
    alphabet = alphabet or _inferred(seen)
    nbytes = collectives.store_bytes(alphabet.size, n)
    check_mem(nbytes, f"{path}: holding {n} trials in {nbytes} bytes")
    chars = sorted((ord(lab), j) for j, lab in enumerate(alphabet.labels)
                   if isinstance(lab, str) and len(lab) == 1)
    # a sentinel past every code point keeps each lookup in bounds
    keys = np.array([*(c for c, _ in chars), 0x110000], dtype=np.uint32)
    index = np.array([*(j for _, j in chars), 0], dtype=collectives.index_dtype(alphabet.size))

    def indices(step) -> np.ndarray:
        if not isinstance(step, str):
            return np.fromiter(map(alphabet.index, step), dtype=index.dtype, count=len(step))
        codes = np.frombuffer(step.encode("utf-32-le"), dtype="<u4")
        pos = np.searchsorted(keys, codes)
        miss = np.flatnonzero(keys[pos] != codes)
        if miss.size:
            alphabet.index(chr(codes[miss[0]]))  # raises: label not in alphabet
        return index[pos]

    return collectives.TrialSequence.from_windows(alphabet, n, map(indices, steps()))


def _inferred(values) -> collectives.LabelAlphabet:
    """The sorted distinct values; a constant input still needs a 2-letter
    alphabet, so its one value is padded with a sentinel."""
    uniq = tuple(sorted(set(values)))
    if len(uniq) == 1:
        uniq += ("\x00" if "\x00" not in uniq else "\x01",)
    return collectives.LabelAlphabet(uniq)


def parse_rational(text: str) -> Fraction:
    """Fraction(text), but a decimal exponent whose magnitude exceeds
    sys.get_int_max_str_digits() (the limit the report's rationals obey)
    is a CapacityError before Fraction multiplies out 10^|exponent|.
    ValueError and ZeroDivisionError pass through as Fraction raises them,
    its echo of the text cut by errors.echo."""
    limit = sys.get_int_max_str_digits()
    m = _EXPONENT.fullmatch(text)
    if limit and m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise CapacityError(
                f"a decimal exponent past the {limit}-digit limit of integer string conversion"
            )
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ValueError(echoed(exc, text)) from None


def read_rationals(path) -> list[Fraction]:
    """One rational per row: "n/d", integer, or decimal."""
    out = []
    for i, row in enumerate(csv_rows(path)):
        s = row[0].strip() if row else ""
        if not s:
            continue
        try:
            out.append(parse_rational(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path} row {i + 1}: bad rational {echo(s)}: {exc}") from exc
    if not out:
        raise InputError(f"{path}: empty input")
    return out
