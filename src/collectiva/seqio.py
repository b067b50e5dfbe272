"""Input text to values: raw, ASCII and CSV trial sequences, rationals, JSON documents."""

from __future__ import annotations

import codecs
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
# bytes of UTF-8 text decoded per step of the ascii reader: the step's code-point
# lookup holds about 18 bytes per character
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
    ascii: one character per trial, newlines ignored; the text is read
    TEXT_STEP bytes at a time, and only the store is held.
    csv: one label per row.
    Each reader declares to check_mem the bytes it holds: the store's, and
    the file's where it holds the whole file.
    """
    if fmt == "ascii":
        try:
            with open(path, "rb") as fh:
                return _from_text(fh, path, alphabet)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    blob = _read_bytes(path)
    if fmt == "raw":
        if not blob:
            raise InputError(f"{path}: empty input")
        check_mem(len(blob), f"{path}: holding {len(blob)} raw bytes of trials")
        return collectives.TrialSequence.from_packed(blob, 8 * len(blob))
    if fmt == "csv":
        rows = [r for r in csv_rows(_decode_text(blob, path).splitlines(), path) if r]
        if not rows:
            raise InputError(f"{path}: empty input")
        vals = [r[0].strip() for r in rows]
        alphabet = alphabet or _inferred(vals)
        _check_store(path, alphabet, len(vals), len(blob))
        return collectives.TrialSequence.from_labels(alphabet, vals)
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


def _check_store(path, alphabet: collectives.LabelAlphabet, n: int, held: int = 0):
    """check_mem of the store of n trials over the alphabet, beside `held`
    bytes of the file."""
    nbytes = held + collectives.store_bytes(alphabet.size, n)
    check_mem(nbytes, f"{path}: holding {n} trials in {nbytes} bytes")


def _text_steps(fh, path) -> Iterator[str]:
    """The UTF-8 text of the file without its newlines and carriage returns,
    read and decoded TEXT_STEP bytes at a time from its start; an invalid
    byte is an InputError that names its offset, as _decode_text does."""
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


def _from_text(fh, path, alphabet: collectives.LabelAlphabet | None
               ) -> collectives.TrialSequence:
    """One trial per character of the open file's text, in two passes over
    it.  The first counts the trials and, without an alphabet, collects the
    distinct characters, sorted into one.  The second looks each step's code
    points up among the sorted codes of the single-character labels and
    stores their indices as they come."""
    import numpy as np

    n, seen = 0, set()
    for text in _text_steps(fh, path):
        n += len(text)
        if alphabet is None:
            seen.update(text)
    if not n:
        raise InputError(f"{path}: empty input")
    alphabet = alphabet or _inferred(seen)
    _check_store(path, alphabet, n)
    chars = sorted((ord(lab), j) for j, lab in enumerate(alphabet.labels)
                   if isinstance(lab, str) and len(lab) == 1)
    # a sentinel past every code point keeps each lookup in bounds
    keys = np.array([*(c for c, _ in chars), 0x110000], dtype=np.uint32)
    index = np.array([*(j for _, j in chars), 0],
                     dtype=collectives.index_dtype(alphabet.size))

    def indices(text: str) -> np.ndarray:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        pos = np.searchsorted(keys, codes)
        miss = np.flatnonzero(keys[pos] != codes)
        if miss.size:
            alphabet.index(chr(codes[miss[0]]))  # raises: label not in alphabet
        return index[pos]

    return collectives.TrialSequence.from_windows(
        alphabet, n, (indices(text) for text in _text_steps(fh, path)))


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
