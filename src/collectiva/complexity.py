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

import copy
import math
import zlib
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .collectives import BINARY, CHUNK, TrialSequence, label_count_rows
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


def as_bits(x):
    """Normalize a binary word (TrialSequence, array, list, 0/1 string) to a
    uint8 numpy array, one byte per bit."""
    import numpy as np

    if isinstance(x, TrialSequence):
        bits = as_word(x).data
    elif isinstance(x, str):
        bits = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        bits = np.asarray(x)
    if bits.ndim != 1 or bits.size == 0:
        raise InputError("binary word must be a nonempty 1-d bit vector")
    if not (bits.max() <= 1 if bits.dtype == np.uint8 else ((bits == 0) | (bits == 1)).all()):
        raise InputError("binary word may contain only 0s and 1s")
    return bits.astype(np.uint8, copy=False)


def pack_bits(bits) -> bytes:
    import numpy as np

    return np.packbits(bits).tobytes()  # MSB-first, zero-padded tail


@dataclass(frozen=True)
class Codec:
    """Deterministic lossless bytes->bytes compressor with inverse.  stream()
    starts a compressor with compress, copy and flush (as zlib.compressobj);
    pieces(blob) yields the inverse's output in consecutive pieces, so that a
    round trip is checked without a whole second copy of the data."""

    name: str
    stream: Callable[[], object]
    pieces: Callable[[bytes], Iterable[bytes]]

    def compress(self, data) -> bytearray:
        """The stream fed data CHUNK bytes at a time, then flushed, into one buffer."""
        co, out = self.stream(), bytearray()
        _feed(co, memoryview(data), out)
        out += co.flush()
        return out

    def decompress(self, blob) -> bytes:
        return b"".join(self.pieces(blob))

    def _restores(self, blob: bytes, data: bytes) -> bool:
        pos = 0
        for piece in self.pieces(blob):
            if piece != data[pos:pos + len(piece)]:
                return False
            pos += len(piece)
        return pos == len(data)


def _feed(co, view: memoryview, out: bytearray) -> None:
    for a in range(0, len(view), CHUNK):
        out += co.compress(view[a:a + CHUNK])


def _deflate_compress():
    """A raw-DEFLATE compressor at level 9."""
    return zlib.compressobj(9, zlib.DEFLATED, -15)


def _deflate_decompress(blob: bytes) -> Iterator[bytes]:
    """The raw-DEFLATE stream's output, at most CHUNK bytes a piece."""
    d = zlib.decompressobj(-15)
    while piece := d.decompress(blob, CHUNK):
        yield piece
        blob = d.unconsumed_tail
    yield d.flush()


def deflate_codec() -> Codec:
    return Codec("deflate-raw-9", _deflate_compress, _deflate_decompress)


# --- adaptive order-0 binary arithmetic coder --------------------------------

_AC_BITS = 32
_AC_TOP = (1 << _AC_BITS) - 1
_AC_QTR = 1 << (_AC_BITS - 2)
_AC_HALF = 2 * _AC_QTR
_AC_3QTR = 3 * _AC_QTR
_AC_RESCALE = 1 << 16


class _ArithStream:
    """The coder between pieces of input: range, pending bits, counts of 0s
    and 1s, the bits so far and the input byte count.  flush writes it all:
    the byte count as an 8-byte header, then the packed bits."""

    def __init__(self):
        self.low, self.high, self.pending, self.c0, self.c1 = 0, _AC_TOP, 0, 1, 1
        self.bits, self.nbytes = bytearray(), 0

    def copy(self) -> _ArithStream:
        twin = copy.copy(self)
        twin.bits = bytearray(self.bits)
        return twin

    def _emit(self, bit: int):
        self.bits.append(bit)
        self.bits += bytes((1 - bit,)) * self.pending
        self.pending = 0

    def compress(self, data) -> bytes:
        import numpy as np

        low, high, c0, c1 = self.low, self.high, self.c0, self.c1
        for b in np.unpackbits(np.frombuffer(data, dtype=np.uint8)):
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
                    self._emit(0)
                elif low >= _AC_HALF:
                    self._emit(1)
                    low -= _AC_HALF
                    high -= _AC_HALF
                elif low >= _AC_QTR and high < _AC_3QTR:
                    self.pending += 1
                    low -= _AC_QTR
                    high -= _AC_QTR
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
        self.low, self.high, self.c0, self.c1 = low, high, c0, c1
        self.nbytes += len(data)
        return b""

    def flush(self) -> bytes:
        self.pending += 1
        self._emit(0 if self.low < _AC_QTR else 1)
        return self.nbytes.to_bytes(8, "big") + pack_bits(self.bits)


def _arith_compress() -> _ArithStream:
    return _ArithStream()


def _arith_decompress(blob: bytes) -> Iterator[bytes]:
    import numpy as np

    nbytes = int.from_bytes(blob[:8], "big")
    nbits = nbytes * 8
    rd = chain((byte >> k & 1 for byte in memoryview(blob)[8:] for k in range(7, -1, -1)),
               repeat(0))  # the body's bits, then 0s
    low, high = 0, _AC_TOP
    code = 0
    for _ in range(_AC_BITS):
        code = (code << 1) | next(rd)
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
            code = (code << 1) | next(rd)
    yield np.packbits(bits).tobytes()


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
    return _curve(word, (len(word),), codec or DEFAULT_CODEC(), verify)[0]


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


def _curve(word: TrialSequence, ns: Sequence[int], codec: Codec,
           verify: bool) -> list[ComplexityEstimate]:
    """Estimates of the word's first n bits for n in ns (increasing, none past
    the word) from one stream fed the packed word once.  A prefix inside the
    word is a copy, fed its zero-padded last byte and flushed; the whole word
    flushes the stream itself, and with verify its output is round-tripped."""
    data, co, out, fed, curve = word.packed(), codec.stream(), bytearray(), 0, []
    for n in ns:
        _feed(co, data[fed:n >> 3], out)
        fed = n >> 3
        if n == len(word):
            out += co.compress(data[fed:])
            out += co.flush()
            if verify and not codec._restores(out, data):
                raise CodecIntegrityError(f"codec {codec.name} failed round-trip")
            body = len(out)
        else:
            tail = co.copy()
            last = bytes([data[fed] & (0xFF00 >> n % 8) & 0xFF]) if n % 8 else b""
            body = len(out) + len(tail.compress(last)) + len(tail.flush())
        curve.append(ComplexityEstimate(n, 8 * body + header_bits(n), codec.name))
    return curve


def complexity_rate_curve(x, prefix_lengths: Sequence[int] | None = None,
                          codec: Codec | None = None) -> list[ComplexityEstimate]:
    """Per-prefix estimates with one codec (rates plot the structure).  The
    compression of the whole word, when it is one of the prefixes, is checked
    to decompress back; the shorter prefixes' are not."""
    word = as_word(x)
    ns = tuple(prefix_lengths) if prefix_lengths is not None else default_prefix_lengths(len(word))
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InputError("prefix lengths must be strictly increasing")
    if ns and ns[0] < 1:
        raise InputError("prefix lengths must be >= 1")
    if ns and ns[-1] > len(word):
        raise InputError("prefix length beyond the word")
    return _curve(word, ns, codec or DEFAULT_CODEC(), verify=True)


def martin_lof_dip_scan(x, prefix_lengths: Sequence[int] | None = None,
                        codec: Codec | None = None) -> list[int]:
    """All scanned n with K-hat(x_1..n; n) < n - log2(n).

    K-hat is an upper bound, so every reported dip is genuine; an empty
    result is inconclusive, not evidence of randomness.
    """
    if prefix_lengths is not None and any(n < 2 for n in prefix_lengths):
        raise InputError("dip scan needs prefix lengths >= 2")
    return [e.n_bits for e in complexity_rate_curve(x, prefix_lengths, codec)
            if is_dip(without_header(e))]


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
    return label_count_rows(word, [len(word)])[0][0][1]


def _bit_blocks(word: TrialSequence, m: int) -> Iterator[int]:
    """The bits of each whole block of m trials of a binary word as an int,
    the block's first trial its most-significant bit: the bytes that hold
    the block, shifted and masked to it."""
    data, mask = word.packed(), (1 << m) - 1
    for b in range(m, len(word) + 1, m):
        hi = (b + 7) >> 3
        yield int.from_bytes(data[(b - m) >> 3:hi], "big") >> (8 * hi - b) & mask


def _transitions(word: TrialSequence) -> int:
    """The positions i < n - 1 of a binary word where trial i + 1 differs
    from trial i: over windows of CHUNK trials, the popcount of the window's
    bits XORed with themselves shifted one bit, the last bit of the window
    before carried in above the first."""
    data, n, step = word.packed(), len(word), max(1, CHUNK >> 3)
    v = last = 0
    for lo in range(0, len(data), step):
        hi = min(lo + step, len(data))
        b = min(8 * hi, n)
        width = b - 8 * lo
        bits = int.from_bytes(data[lo:hi], "big") >> (8 * hi - b)
        if lo:
            bits |= last << width
            width += 1
        v += ((bits ^ bits >> 1) & ((1 << (width - 1)) - 1)).bit_count()
        last = bits & 1
    return v


def monobit_test(x) -> TestResult:
    word = as_word(x)
    n = len(word)
    if n < 100:
        return TestResult("monobit", math.nan, None, None, True, "needs n >= 100")
    s = abs(2 * _ones(word) - n)
    p = math.erfc(s / math.sqrt(2 * n))
    return TestResult("monobit", float(s), p, None)


def block_frequency_test(x, block: int = 128) -> TestResult:
    """NIST SP 800-22's frequency test within blocks.  Each block's ones are
    counted in a Python step of its own, so the cost is O(n / block) steps:
    about 40 ms at the default block on an 8 Mbit word, and seconds at a
    block of a few bits, below the test's recommended minimum of 20."""
    word = as_word(x)
    n = len(word)
    if n < block:
        return TestResult("block-frequency", math.nan, None, None, True,
                          f"needs n >= {block}")
    nblocks = n // block
    # 4 * block * sum((c / block - 1/2)^2) over the blocks' counts c of ones,
    # as the exact integer sum of (2c - block)^2 over block, rounded once
    chi2 = sum((2 * bits.bit_count() - block) ** 2 for bits in _bit_blocks(word, block)) / block
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
    v = 1 + _transitions(word)
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


def longest_run_test(x) -> TestResult:
    word = as_word(x)
    n = len(word)
    if n < 128:
        return TestResult("longest-run", math.nan, None, None, True, "needs n >= 128")
    for min_n, m, lo, hi, pis in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m
    counts = [0] * (hi - lo + 1)
    for bits in _bit_blocks(word, m):
        # each step shortens every run of ones by one; the longest is clipped to lo..hi
        run = 0
        while bits and run < hi:
            bits &= bits << 1
            run += 1
        counts[max(run, lo) - lo] += 1
    chi2 = 0.0
    for c, p in zip(counts, pis):  # in order, as numpy sums fewer than 8 terms
        expected = nblocks * p
        chi2 += (c - expected) * (c - expected) / expected
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
    import numpy as np

    codec = codec or DEFAULT_CODEC()
    words = [as_bits(w) for w in words]
    if not words:
        raise InputError("subadditivity needs a nonempty corpus")
    ks = [estimate_K(w, codec, verify=False).k_hat for w in words]
    return max(estimate_K(np.concatenate([a, b]), codec, verify=False).k_hat - ka - kb
               for a, ka in zip(words, ks) for b, kb in zip(words, ks))
