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
classical bit-level tests of NIST SP 800-22 (Rukhin et al., 2010): the
frequency (monobit), block-frequency, runs and longest-run-of-ones tests.
Their p-values have closed forms computed with `math` alone.  Monobit and
runs are erfc tails.  Block frequency and longest run are chi-square tails
Q(nu/2, chi2/2) of integer or half-integer shape, which are finite sums
(DLMF 8.4.10 and 8.4.11): e^-h sum_{k<m} h^k/k! for nu = 2m, and
erfc(sqrt h) plus e^-h sum_{k<m} h^(k+1/2)/Gamma(k+3/2) for nu = 2m+1.
A universal test cannot be constructed, and the battery is a plugin surface,
not a canon.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .collectives import BINARY, CHUNK, TrialSequence, label_counts
from .errors import CodecIntegrityError, InputError


def as_word(x) -> TrialSequence:
    """A binary word (TrialSequence, array, list, 0/1 string) as a binary
    TrialSequence, one bit per trial; a binary TrialSequence is itself."""
    if not isinstance(x, TrialSequence):
        return TrialSequence(BINARY, as_bits(x))
    if x.alphabet.size != 2:
        raise InputError("complexity estimates need a binary sequence")
    if not len(x):
        raise InputError("binary word must be a nonempty 1-d bit vector")
    return x


def as_bits(x) -> np.ndarray:
    """Normalize a binary word (TrialSequence, array, list, 0/1 string) to
    uint8, one byte per bit."""
    if isinstance(x, TrialSequence):
        bits = as_word(x).data
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
    """Deterministic lossless bytes->bytes compressor with inverse.  pieces,
    when given, yields the inverse's output in consecutive pieces, so that a
    round trip is checked without a whole second copy of the data."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]
    pieces: Callable[[bytes], Iterable[bytes]] | None = None

    def compressed(self, data: bytes, verify: bool = True) -> bytes:
        """compress(data); with verify, checked to decompress back to data."""
        blob = self.compress(data)
        if verify and not self._restores(blob, data):
            raise CodecIntegrityError(f"codec {self.name} failed round-trip")
        return blob

    def _restores(self, blob: bytes, data: bytes) -> bool:
        pos = 0
        for piece in self.pieces(blob) if self.pieces else (self.decompress(blob),):
            if piece != data[pos:pos + len(piece)]:
                return False
            pos += len(piece)
        return pos == len(data)


def _deflate_compress(data: bytes) -> bytearray:
    """The raw-DEFLATE stream of data, fed CHUNK bytes at a time into one buffer."""
    co, view, out = zlib.compressobj(9, zlib.DEFLATED, -15), memoryview(data), bytearray()
    for a in range(0, len(view), CHUNK):
        out += co.compress(view[a:a + CHUNK])
    out += co.flush()
    return out


def _deflate_decompress(blob: bytes) -> Iterator[bytes]:
    """The raw-DEFLATE stream's output, at most CHUNK bytes a piece."""
    d = zlib.decompressobj(-15)
    while piece := d.decompress(blob, CHUNK):
        yield piece
        blob = d.unconsumed_tail
    yield d.flush()


def deflate_codec() -> Codec:
    return Codec("deflate-raw-9", _deflate_compress,
                 lambda blob: b"".join(_deflate_decompress(blob)), _deflate_decompress)


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
    word = as_word(x)
    return _prefix_estimate(word, len(word), codec or DEFAULT_CODEC(), verify)


def _prefix_estimate(word: TrialSequence, n: int, codec: Codec,
                     verify: bool) -> ComplexityEstimate:
    """estimate_K of the word's first n bits, compressed from its packed store."""
    body = 8 * len(codec.compressed(word.packed(n), verify))
    return ComplexityEstimate(n, body + header_bits(n), codec.name)


def estimate_K_conditional(x, n: int, codec: Codec | None = None,
                           verify: bool = True) -> ComplexityEstimate:
    """Same body, no header: the length n is supplied out of band, so
    K-hat(x; n) <= K-hat(x) holds by construction."""
    word = as_word(x)
    if len(word) != n:
        raise InputError(f"declared length {n} != actual {len(word)}")
    return without_header(estimate_K(word, codec, verify))


def without_header(est: ComplexityEstimate) -> ComplexityEstimate:
    """K-hat(x; n) from K-hat(x): the same compressed body, less the header."""
    return ComplexityEstimate(est.n_bits, est.k_hat - header_bits(est.n_bits), est.codec,
                              conditional=True)


def is_dip(cond: ComplexityEstimate) -> bool:
    """The dip rule on a conditional estimate: K-hat(x_1..n; n) < n - log2(n)."""
    return cond.k_hat < cond.n_bits - math.log2(cond.n_bits)


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
    """Per-prefix estimates with one codec (rates plot the structure).  The
    compression of the whole word, when it is one of the prefixes, is checked
    to decompress back; the shorter prefixes' are not."""
    word = as_word(x)
    codec = codec or DEFAULT_CODEC()
    ns = tuple(prefix_lengths) if prefix_lengths is not None else default_prefix_lengths(len(word))
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InputError("prefix lengths must be strictly increasing")
    if ns and ns[0] < 1:
        raise InputError("prefix lengths must be >= 1")
    if ns and ns[-1] > len(word):
        raise InputError("prefix length beyond the word")
    return [_prefix_estimate(word, n, codec, verify=n == len(word)) for n in ns]


def martin_lof_dip_scan(x, prefix_lengths: Sequence[int] | None = None,
                        codec: Codec | None = None) -> list[int]:
    """All scanned n with K-hat(x_1..n; n) < n - log2(n).

    K-hat is an upper bound, so every reported dip is genuine; an empty
    result is inconclusive, not evidence of randomness.
    """
    word = as_word(x)
    codec = codec or DEFAULT_CODEC()
    ns = tuple(prefix_lengths) if prefix_lengths is not None else default_prefix_lengths(len(word))
    if any(n < 2 for n in ns):
        raise InputError("dip scan needs prefix lengths >= 2")
    for n in ns:
        if n > len(word):
            raise InputError(f"declared length {n} != actual {len(word)}")
    return [n for n in ns if is_dip(without_header(_prefix_estimate(word, n, codec, False)))]


# --- battery ------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float | None
    passed: bool | None
    skipped: bool = False
    note: str = ""


_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)  # lgamma series, odd powers of 1/j


def _log_term(j: float, h: float) -> float:
    """log(e^-h h^j / Gamma(j + 1)) for j >= 0 and h > 0.  From j = 16 on,
    Stirling's series with the deviance j*log(h/j) - (h - j) taken as
    j*(log1p(d) - d): j*log(h), h and lgamma(j + 1) are each near j*log(j),
    and their difference through lgamma is ~1e-10 off at j = 1e5."""
    if j < 16:
        return j * math.log(h) - h - math.lgamma(j + 1)
    d = (h - j) / j
    inv2 = 1 / (j * j)
    stirlerr = math.fsum(c * inv2**i for i, c in enumerate(_STIRLING)) / j
    return j * (math.log1p(d) - d) - 0.5 * math.log(2 * math.pi * j) - stirlerr


def chi2_sf(chi2: float, dof: int) -> float:
    """P(X > chi2) for X chi-square with dof >= 1 degrees of freedom, the
    regularized upper incomplete gamma Q(dof/2, chi2/2).

    With h = chi2/2 and m = dof // 2 this is the finite sum of the terms
    e^-h h^j / Gamma(j + 1) over j = j0, j0 + 1, ..., j0 + m - 1, where
    j0 = 0 for even dof and j0 = 1/2 for odd dof, plus erfc(sqrt h) for odd
    dof (DLMF 8.4.10, 8.4.11).  The terms rise while j < h and fall after,
    so the sum starts at the largest one, steps outward by the ratio h/j
    until the terms drop below 2^-60 of it, and adds them with math.fsum."""
    if dof < 1:
        raise InputError(f"chi-square needs dof >= 1, got {dof}")
    h = chi2 / 2
    if h <= 0:
        return 1.0
    j0 = dof % 2 / 2
    base = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    if dof < 2:
        return base
    jmax = j0 + dof // 2 - 1
    peak = min(j0 + max(0, math.floor(h - j0)), jmax)
    terms = [1.0]
    t, j = 1.0, peak
    while j > j0 and t > 2**-60:
        t *= j / h
        j -= 1
        terms.append(t)
    t, j = 1.0, peak
    while j < jmax and t > 2**-60:
        j += 1
        t *= h / j
        terms.append(t)
    return base + math.exp(_log_term(peak, h)) * math.fsum(terms)


def _ones(word: TrialSequence) -> int:
    return int(label_counts(word, [len(word)])[0, 0, 1])


def monobit_test(x) -> TestResult:
    word = as_word(x)
    n = len(word)
    if n < 100:
        return TestResult("monobit", math.nan, None, None, True, "needs n >= 100")
    s = abs(2 * _ones(word) - n)
    p = math.erfc(s / math.sqrt(2 * n))
    return TestResult("monobit", float(s), p, None)


def block_frequency_test(x, block: int = 128) -> TestResult:
    word = as_word(x)
    n = len(word)
    if n < block:
        return TestResult("block-frequency", math.nan, None, None, True,
                          f"needs n >= {block}")
    nblocks = n // block
    # each block's mean is exact (an integer count over block), and the
    # chi-square sums the whole array of them, as one full-length mean would
    pi = np.empty(nblocks)
    step = max(1, CHUNK // block)
    for a in range(0, nblocks, step):
        b = min(a + step, nblocks)
        pi[a:b] = word.trials(a * block, b * block).reshape(b - a, block).mean(axis=1)
    chi2 = 4.0 * block * float(((pi - 0.5) ** 2).sum())
    return TestResult("block-frequency", chi2, chi2_sf(chi2, nblocks), None)


def runs_test(x) -> TestResult:
    word = as_word(x)
    n = len(word)
    if n < 100:
        return TestResult("runs", math.nan, None, None, True, "needs n >= 100")
    pi = _ones(word) / n  # the mean of the bits, whose float sum is exact
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult("runs", math.nan, 0.0, None,
                          note="frequency prerequisite failed")
    v = 1
    for a in range(0, n - 1, CHUNK):  # transitions between bits a..b and a+1..b+1
        bits = word.trials(a, min(a + CHUNK, n - 1) + 1)
        v += int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    return TestResult("runs", float(v), math.erfc(num / den), None)


_LONGEST_RUN_TABLES = (
    # (min n, block M, categories lo..hi, null category probabilities)
    (750000, 10**4, 10, 16,
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 4, 9,
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, 4, (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_runs(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 2-d 0/1 array, as int64.

    Each row is padded with a 0 on both sides, so in the flattened rows a
    run starts where the difference is 1 and ends where it is -1, and the
    k-th start pairs with the k-th end."""
    rows, m = blocks.shape
    padded = np.zeros((rows, m + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    edges = np.diff(padded.ravel())
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    longest = np.zeros(rows, dtype=np.int64)
    if lengths.size:
        row = starts // (m + 2)
        first = np.flatnonzero(np.diff(row, prepend=-1))  # each row's first run
        longest[row[first]] = np.maximum.reduceat(lengths, first)
    return longest


def longest_run_test(x) -> TestResult:
    word = as_word(x)
    n = len(word)
    if n < 128:
        return TestResult("longest-run", math.nan, None, None, True, "needs n >= 128")
    for min_n, m, lo, hi, pis in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m
    # blocks per step, so each step reads about CHUNK/4 bits: _longest_runs
    # holds about 8 bytes per bit of them
    step = max(1, CHUNK // (4 * m))
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for a in range(0, nblocks, step):
        b = min(a + step, nblocks)
        longest = _longest_runs(word.trials(a * m, b * m).reshape(b - a, m))
        counts += np.bincount(np.clip(longest, lo, hi) - lo, minlength=hi - lo + 1)
    expected = nblocks * np.asarray(pis)
    chi2 = float(((counts.astype(float) - expected) ** 2 / expected).sum())
    return TestResult("longest-run", chi2, chi2_sf(chi2, hi - lo), None)


DEFAULT_BATTERY: tuple[Callable[[TrialSequence], TestResult], ...] = (
    monobit_test,
    block_frequency_test,
    runs_test,
    longest_run_test,
)


def run_battery(x, tests: Sequence[Callable] | None = None,
                significance: float = 0.01) -> list[TestResult]:
    """Run the configured tests, each handed the word as a binary
    TrialSequence; a word too short for a test yields a 'skipped' row, and
    the overall verdict is the AND of the executed ones."""
    if not 0 < significance < 1:
        raise InputError(f"significance must lie in (0, 1), got {significance}")
    word = as_word(x)
    out = []
    for test in (tests if tests is not None else DEFAULT_BATTERY):
        r = test(word)
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
