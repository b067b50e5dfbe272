"""Compression-based complexity estimates and a finite randomness battery.

K-hat(x) is the compressed size of x in bits plus a self-delimiting length
header; it is an UPPER BOUND proxy for program-length complexity (the true
quantity is uncomputable), and every report says so.  The conditional
variant K-hat(x; n) omits the header because the length arrives out of
band, which makes K-hat(x; n) <= K-hat(x) an identity of the construction
rather than a hope.

Two codecs ship: raw-DEFLATE (dictionary/LZ family, the default) and an
adaptive order-0 binary arithmetic coder.  Comparing them exhibits the
machine-invariance constant: estimates differ by a bounded, measurable
amount over a corpus.

The battery is a finite stand-in for algorithmic typicality testing — four
classical bit-level tests with documented null distributions.  A universal
test cannot be constructed, and the battery is a plugin surface, not a
canon.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CodecIntegrityError, InputError


def as_bits(x) -> np.ndarray:
    """Normalize a binary word (TrialSequence, array, list, 0/1 string) to uint8."""
    from .collectives import TrialSequence

    if isinstance(x, TrialSequence):
        if x.alphabet.size != 2:
            raise InputError("complexity estimates need a binary sequence")
        bits = x.data.astype(np.uint8, copy=False)
    elif isinstance(x, str):
        bits = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        bits = np.asarray(x, dtype=np.uint8)
    if bits.ndim != 1 or bits.size == 0:
        raise InputError("binary word must be a nonempty 1-d bit vector")
    if bits.max(initial=0) > 1:
        raise InputError("binary word may contain only 0s and 1s")
    return bits


def pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(bits).tobytes()  # MSB-first, zero-padded tail


@dataclass(frozen=True)
class Codec:
    """Deterministic lossless bytes->bytes compressor with inverse."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]

    def compressed(self, data: bytes, verify: bool = True) -> bytes:
        """compress(data); with verify, checked to decompress back to data."""
        blob = self.compress(data)
        if verify and self.decompress(blob) != data:
            raise CodecIntegrityError(f"codec {self.name} failed round-trip")
        return blob


def _deflate_compress(data: bytes) -> bytes:
    co = zlib.compressobj(9, zlib.DEFLATED, -15)
    return co.compress(data) + co.flush()


def _deflate_decompress(blob: bytes) -> bytes:
    return zlib.decompressobj(-15).decompress(blob)


def deflate_codec() -> Codec:
    return Codec("deflate-raw-9", _deflate_compress, _deflate_decompress)


# --- adaptive order-0 binary arithmetic coder --------------------------------

_AC_BITS = 32
_AC_TOP = (1 << _AC_BITS) - 1
_AC_QTR = 1 << (_AC_BITS - 2)
_AC_HALF = 2 * _AC_QTR
_AC_3QTR = 3 * _AC_QTR
_AC_RESCALE = 1 << 16


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nacc = 0

    def put(self, bit: int):
        self.acc = (self.acc << 1) | bit
        self.nacc += 1
        if self.nacc == 8:
            self.buf.append(self.acc)
            self.acc = self.nacc = 0

    def flush(self) -> bytes:
        if self.nacc:
            self.buf.append(self.acc << (8 - self.nacc))
        return bytes(self.buf)


class _BitReader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def get(self) -> int:
        byte = self.blob[self.pos >> 3] if (self.pos >> 3) < len(self.blob) else 0
        bit = (byte >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit


def _arith_compress(data: bytes) -> bytes:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    out = _BitWriter()
    low, high = 0, _AC_TOP
    pending = 0
    c0 = c1 = 1

    def emit(bit):
        nonlocal pending
        out.put(bit)
        while pending:
            out.put(1 - bit)
            pending -= 1

    for b in bits:
        total = c0 + c1
        span = high - low + 1
        split = low + span * c0 // total - 1
        if b:
            low = split + 1
            c1 += 1
        else:
            high = split
            c0 += 1
        if c0 + c1 >= _AC_RESCALE:
            c0, c1 = max(1, c0 >> 1), max(1, c1 >> 1)
        while True:
            if high < _AC_HALF:
                emit(0)
            elif low >= _AC_HALF:
                emit(1)
                low -= _AC_HALF
                high -= _AC_HALF
            elif low >= _AC_QTR and high < _AC_3QTR:
                pending += 1
                low -= _AC_QTR
                high -= _AC_QTR
            else:
                break
            low <<= 1
            high = (high << 1) | 1
    pending += 1
    emit(0 if low < _AC_QTR else 1)
    body = out.flush()
    return len(data).to_bytes(8, "big") + body


def _arith_decompress(blob: bytes) -> bytes:
    nbytes = int.from_bytes(blob[:8], "big")
    nbits = nbytes * 8
    rd = _BitReader(blob[8:])
    low, high = 0, _AC_TOP
    code = 0
    for _ in range(_AC_BITS):
        code = (code << 1) | rd.get()
    c0 = c1 = 1
    bits = np.empty(nbits, dtype=np.uint8)
    for i in range(nbits):
        total = c0 + c1
        span = high - low + 1
        split = low + span * c0 // total - 1
        if code <= split:
            bits[i] = 0
            high = split
            c0 += 1
        else:
            bits[i] = 1
            low = split + 1
            c1 += 1
        if c0 + c1 >= _AC_RESCALE:
            c0, c1 = max(1, c0 >> 1), max(1, c1 >> 1)
        while True:
            if high < _AC_HALF:
                pass
            elif low >= _AC_HALF:
                low -= _AC_HALF
                high -= _AC_HALF
                code -= _AC_HALF
            elif low >= _AC_QTR and high < _AC_3QTR:
                low -= _AC_QTR
                high -= _AC_QTR
                code -= _AC_QTR
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code = (code << 1) | rd.get()
    return np.packbits(bits).tobytes()


def arith_codec() -> Codec:
    return Codec("arith-order0", _arith_compress, _arith_decompress)


DEFAULT_CODEC = deflate_codec
SHIPPED_CODECS = (deflate_codec, arith_codec)


def header_bits(n: int) -> int:
    """Self-delimiting length-field overhead: ceil(log2(n+1)) payload bits
    plus a doubly-logarithmic delimiter. A fixed, documented constant."""
    if n < 1:
        raise InputError("length must be >= 1")
    k = max(1, math.ceil(math.log2(n + 1)))
    kk = max(1, math.ceil(math.log2(k + 1)))
    return k + 2 * kk + 1


@dataclass(frozen=True)
class ComplexityEstimate:
    n_bits: int
    k_hat: int
    codec: str
    conditional: bool = False
    note: str = "upper bound via compression; true complexity is uncomputable"

    @property
    def rate(self) -> float:
        return self.k_hat / self.n_bits


def estimate_K(x, codec: Codec | None = None, verify: bool = True) -> ComplexityEstimate:
    """Compressed size in bits plus the length header (an upper-bound proxy)."""
    bits = as_bits(x)
    codec = codec or DEFAULT_CODEC()
    packed = pack_bits(bits)
    body = 8 * len(codec.compressed(packed, verify))
    return ComplexityEstimate(bits.size, body + header_bits(bits.size), codec.name)


def estimate_K_conditional(x, n: int, codec: Codec | None = None,
                           verify: bool = True) -> ComplexityEstimate:
    """Same body, no header: the length n is supplied out of band, so
    K-hat(x; n) <= K-hat(x) holds by construction."""
    bits = as_bits(x)
    if bits.size != n:
        raise InputError(f"declared length {n} != actual {bits.size}")
    codec = codec or DEFAULT_CODEC()
    packed = pack_bits(bits)
    body = 8 * len(codec.compressed(packed, verify))
    return ComplexityEstimate(n, body, codec.name, conditional=True)


def default_prefix_lengths(n: int, start: int = 64) -> tuple[int, ...]:
    pts = []
    c = start
    while c < n:
        pts.append(c)
        c *= 2
    pts.append(n)
    return tuple(p for p in pts if p >= 2)


def complexity_rate_curve(x, prefix_lengths: Sequence[int] | None = None,
                          codec: Codec | None = None) -> list[ComplexityEstimate]:
    """Per-prefix estimates with one codec (rates plot the structure)."""
    bits = as_bits(x)
    codec = codec or DEFAULT_CODEC()
    ns = tuple(prefix_lengths) if prefix_lengths is not None else default_prefix_lengths(bits.size)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InputError("prefix lengths must be strictly increasing")
    if ns and ns[-1] > bits.size:
        raise InputError("prefix length beyond the word")
    return [estimate_K(bits[:n], codec, verify=False) for n in ns]


def martin_lof_dip_scan(x, prefix_lengths: Sequence[int] | None = None,
                        codec: Codec | None = None) -> list[int]:
    """All scanned n with K-hat(x_1..n; n) < n - log2(n).

    K-hat is an upper bound, so every reported dip is genuine; an empty
    result is inconclusive, not evidence of randomness.
    """
    bits = as_bits(x)
    codec = codec or DEFAULT_CODEC()
    ns = tuple(prefix_lengths) if prefix_lengths is not None else default_prefix_lengths(bits.size)
    if any(n < 2 for n in ns):
        raise InputError("dip scan needs prefix lengths >= 2")
    dips = []
    for n in ns:
        est = estimate_K_conditional(bits[:n], n, codec, verify=False)
        if est.k_hat < n - math.log2(n):
            dips.append(n)
    return dips


# --- battery ------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float | None
    passed: bool | None
    skipped: bool = False
    note: str = ""


def monobit_test(bits: np.ndarray) -> TestResult:
    n = bits.size
    if n < 100:
        return TestResult("monobit", math.nan, None, None, True, "needs n >= 100")
    s = abs(int(2 * int(bits.sum()) - n))
    from scipy.special import erfc

    p = float(erfc(s / math.sqrt(2 * n)))
    return TestResult("monobit", float(s), p, None)


def block_frequency_test(bits: np.ndarray, block: int = 128) -> TestResult:
    n = bits.size
    if n < block:
        return TestResult("block-frequency", math.nan, None, None, True,
                          f"needs n >= {block}")
    nblocks = n // block
    pi = bits[: nblocks * block].reshape(nblocks, block).mean(axis=1)
    chi2 = 4.0 * block * float(((pi - 0.5) ** 2).sum())
    from scipy.special import gammaincc

    p = float(gammaincc(nblocks / 2.0, chi2 / 2.0))
    return TestResult("block-frequency", chi2, p, None)


def runs_test(bits: np.ndarray) -> TestResult:
    n = bits.size
    if n < 100:
        return TestResult("runs", math.nan, None, None, True, "needs n >= 100")
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult("runs", math.nan, 0.0, None,
                          note="frequency prerequisite failed")
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    from scipy.special import erfc

    p = float(erfc(num / den))
    return TestResult("runs", float(v), p, None)


_LONGEST_RUN_TABLES = (
    # (min n, block M, categories lo..hi, null category probabilities)
    (750000, 10**4, 10, 16,
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 4, 9,
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, 4, (0.2148, 0.3672, 0.2305, 0.1875)),
)


def longest_run_test(bits: np.ndarray) -> TestResult:
    n = bits.size
    if n < 128:
        return TestResult("longest-run", math.nan, None, None, True, "needs n >= 128")
    for min_n, m, lo, hi, pis in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m
    blocks = bits[: nblocks * m].reshape(nblocks, m)
    run = np.zeros(nblocks, dtype=np.int64)
    longest = np.zeros(nblocks, dtype=np.int64)
    for j in range(m):
        run = (run + 1) * blocks[:, j]
        np.maximum(longest, run, out=longest)
    cats = np.clip(longest, lo, hi) - lo
    counts = np.bincount(cats, minlength=hi - lo + 1).astype(float)
    expected = nblocks * np.asarray(pis)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    k = hi - lo
    from scipy.special import gammaincc

    p = float(gammaincc(k / 2.0, chi2 / 2.0))
    return TestResult("longest-run", chi2, p, None)


DEFAULT_BATTERY: tuple[Callable[[np.ndarray], TestResult], ...] = (
    monobit_test,
    block_frequency_test,
    runs_test,
    longest_run_test,
)


def run_battery(x, tests: Sequence[Callable] | None = None,
                significance: float = 0.01) -> list[TestResult]:
    """Run the configured tests; a word too short for a test yields a
    'skipped' row, and the overall verdict is the AND of the executed ones."""
    if not 0 < significance < 1:
        raise InputError(f"significance must lie in (0, 1), got {significance}")
    bits = as_bits(x)
    out = []
    for test in (tests if tests is not None else DEFAULT_BATTERY):
        r = test(bits)
        if not r.skipped:
            r = TestResult(r.name, r.statistic, r.p_value,
                           bool(r.p_value >= significance), False, r.note)
        out.append(r)
    return out


def battery_passed(results: Sequence[TestResult]) -> bool:
    executed = [r for r in results if not r.skipped]
    return all(r.passed for r in executed)


# --- measured codec constants --------------------------------------------------

def codec_invariance_constant(words, codec_a: Codec, codec_b: Codec) -> int:
    """max |K-hat_A - K-hat_B| over the corpus, in bits (measured, finite)."""
    worst = 0
    for w in words:
        ka = estimate_K(w, codec_a, verify=False).k_hat
        kb = estimate_K(w, codec_b, verify=False).k_hat
        worst = max(worst, abs(ka - kb))
    return worst


def subadditivity_constant(words, codec: Codec | None = None) -> int:
    """max over corpus pairs of K-hat(xy) - K-hat(x) - K-hat(y)."""
    codec = codec or DEFAULT_CODEC()
    worst = -(10**9)
    words = [as_bits(w) for w in words]
    for a in words:
        for b in words:
            joint = estimate_K(np.concatenate([a, b]), codec, verify=False).k_hat
            worst = max(worst, joint
                        - estimate_K(a, codec, verify=False).k_hat
                        - estimate_K(b, codec, verify=False).k_hat)
    return worst
