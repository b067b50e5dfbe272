"""Input text to values: raw, ASCII and CSV trial sequences, rationals, JSON documents."""

from __future__ import annotations

import csv
import json
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from . import collectives
from .errors import CapacityError, InputError, check_mem, echo, echoed

FORMATS = ("raw", "ascii", "csv")
# what a *_from_document reader reports as a malformed document
MALFORMED = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)
# a decimal in Fraction's grammar with an exponent; group 1 is its magnitude
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                       r"[eE][-+]?(\d+(?:_\d+)*)\s*")


def read_sequence(path, fmt: str, alphabet: collectives.LabelAlphabet | None = None
                  ) -> collectives.TrialSequence:
    """Load a trial sequence.

    raw: each byte is 8 trials, most-significant bit first, alphabet 0/1.
    ascii: one character per trial, newlines ignored.
    csv: one label per row.
    """
    import numpy as np

    blob = _read_bytes(path)
    if fmt == "raw":
        if not blob:
            raise InputError(f"{path}: empty input")
        check_mem(8 * len(blob), f"{path}: unpacking {len(blob)} raw bytes into trials")
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
        return collectives.TrialSequence(collectives.BINARY, bits)
    if fmt == "ascii":
        codes = np.frombuffer(_decode_text(blob, path).encode("utf-32-le"), dtype="<u4")
        codes = codes[(codes != ord("\n")) & (codes != ord("\r"))]
        if not codes.size:
            raise InputError(f"{path}: empty input")
        return _from_code_points(codes, alphabet)
    if fmt == "csv":
        rows = [r for r in csv_rows(_decode_text(blob, path).splitlines(), path) if r]
        if not rows:
            raise InputError(f"{path}: empty input")
        vals = [r[0].strip() for r in rows]
        return collectives.TrialSequence.from_labels(alphabet or _inferred(vals), vals)
    raise InputError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _decode_text(blob: bytes, path) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_text(path) -> str:
    """The whole file as UTF-8 text; unreadable or undecodable input is an
    InputError."""
    return _decode_text(_read_bytes(path), path)


def csv_rows(lines, path) -> Iterator[list[str]]:
    """The csv rows of the lines; a field past csv.field_size_limit() is an InputError."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise InputError(f"{path}: invalid csv: {exc}") from exc


def read_json(path):
    """The file's JSON document; invalid JSON, an integer past the digit limit
    (ValueError) or nesting past the recursion limit is an InputError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _from_code_points(codes: np.ndarray, alphabet: collectives.LabelAlphabet | None
                      ) -> collectives.TrialSequence:
    """One trial per character code.  Without an alphabet it is the sorted
    distinct characters; each code is looked up among the sorted codes of the
    single-character labels, CHUNK codes at a time."""
    import numpy as np

    if alphabet is None:
        keys = np.unique(codes)
        alphabet, index = _inferred(chr(c) for c in keys), range(len(keys))
    else:
        chars = sorted((ord(lab), j) for j, lab in enumerate(alphabet.labels)
                       if isinstance(lab, str) and len(lab) == 1)
        keys, index = [c for c, _ in chars], [j for _, j in chars]
    # a sentinel past every code point keeps each lookup in bounds
    keys = np.array([*keys, 0x110000], dtype=np.uint32)
    index = np.array([*index, 0], dtype=collectives.index_dtype(alphabet.size))
    data = np.empty(codes.size, dtype=index.dtype)
    chunk = collectives.CHUNK
    for a in range(0, codes.size, chunk):
        part = codes[a:a + chunk]
        pos = np.searchsorted(keys, part)
        miss = np.flatnonzero(keys[pos] != part)
        if miss.size:
            alphabet.index(chr(part[miss[0]]))  # raises: label not in alphabet
        data[a:a + chunk] = index[pos]
    return collectives.TrialSequence(alphabet, data)


def _inferred(values) -> collectives.LabelAlphabet:
    uniq = tuple(sorted(set(values)))
    return collectives.LabelAlphabet(uniq) if len(uniq) >= 2 else _padded(uniq)


def _padded(labels: tuple) -> collectives.LabelAlphabet:
    """A constant input still needs a 2-letter alphabet; pad with a sentinel."""
    pad = "\x00" if "\x00" not in labels else "\x01"
    return collectives.LabelAlphabet(tuple(labels) + (pad,))


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
    for i, row in enumerate(csv_rows(read_text(path).splitlines(), path)):
        if not row:
            continue
        s = row[0].strip()
        if not s:
            continue
        try:
            out.append(parse_rational(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path} row {i + 1}: bad rational {echo(s)}: {exc}") from exc
    if not out:
        raise InputError(f"{path}: empty input")
    return out
