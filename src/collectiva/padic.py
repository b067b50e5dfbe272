"""p-adic valuation, metric, digit expansions, and frequency-limit detection.

Relative frequencies are rational, and a rational sequence can converge
under the metric |q|_p = p^(-v_p(q)) while oscillating hopelessly on the
real line (and vice versa).  This module detects stabilization in either
metric and never merges the verdicts.  The striking consequence is kept
constructive: genuine frequency sequences inside [0, 1] whose 2-adic limit
is -1 — a negative number as a limiting "probability".

All values are exact rationals; expansions are truncated digit streams
produced by modular inversion, never floating approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import collectives
from .errors import InputError
from .stability import window_stability

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the 12 smallest prime witnesses: deterministic for
    n < 3.3e24, overwhelmingly reliable beyond."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PAdicContext:
    p: int
    precision: int = 64

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.precision < 1:
            raise InputError("precision must be >= 1")


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(q, ctx: PAdicContext):
    """v_p(q) as an integer; +infinity for 0."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _int_valuation(abs(q.numerator), ctx.p) - _int_valuation(q.denominator, ctx.p)


def padic_abs(q, ctx: PAdicContext) -> Fraction:
    v = padic_valuation(q, ctx)
    if v is math.inf:
        return Fraction(0)
    return Fraction(1, ctx.p**v) if v >= 0 else Fraction(ctx.p ** (-v))


def padic_distance(a, b, ctx: PAdicContext) -> Fraction:
    """Ultrametric distance p^(-v_p(a-b)), exact."""
    return padic_abs(Fraction(a) - Fraction(b), ctx)


@dataclass(frozen=True)
class PAdicExpansion:
    """Truncated digit stream: value = sum digits[j] * p^(valuation + j).

    valuation is None only for the zero value.  The leading digit of a
    nonzero value is nonzero.
    """

    p: int
    valuation: int | None
    digits: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= d < self.p for d in self.digits):
            raise InputError("digit outside 0..p-1")
        if self.valuation is not None and self.digits and self.digits[0] == 0:
            raise InputError("leading digit of a nonzero value must be nonzero")

    def evaluate(self) -> Fraction:
        if self.valuation is None:
            return Fraction(0)
        return sum(
            (Fraction(d) * Fraction(self.p) ** (self.valuation + j)
             for j, d in enumerate(self.digits)),
            Fraction(0),
        )


def padic_expand(q, ctx: PAdicContext) -> PAdicExpansion:
    """Digits via modular inversion of the unit part mod p^precision.

    The truncation satisfies v_p(value - q) >= valuation + precision, i.e.
    re-evaluating the digits reproduces q to the stated precision.
    """
    q = Fraction(q)
    if q == 0:
        return PAdicExpansion(ctx.p, None, ())
    k = padic_valuation(q, ctx)
    unit = q / Fraction(ctx.p) ** k
    mod = ctx.p**ctx.precision
    num = unit.numerator % mod
    den = unit.denominator % mod
    r = num * pow(den, -1, mod) % mod
    digits = []
    for _ in range(ctx.precision):
        digits.append(r % ctx.p)
        r //= ctx.p
    return PAdicExpansion(ctx.p, int(k), tuple(digits))


@dataclass(frozen=True)
class MetricVerdict:
    metric: str
    stabilized: bool
    limit: object | None
    oscillation: object
    window: int
    epsilon: object


@dataclass(frozen=True)
class ConvergenceReport:
    real: MetricVerdict | None
    padic: MetricVerdict | None

    @property
    def verdict(self) -> str:
        r = self.real.stabilized if self.real else False
        p = self.padic.stabilized if self.padic else False
        return {(True, True): "both", (True, False): "real-only",
                (False, True): "p-adic-only", (False, False): "neither"}[(r, p)]


def _eps_to_digit_precision(epsilon: Fraction, p: int) -> int:
    """max(1, the least m >= 0 with p^-m <= epsilon), refusing m > 10^6.
    m is ceil(log_p(den/num)), estimated from bit lengths to within one
    (two near a float rounding) and settled by exact comparisons
    p^m * num >= den."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon too small")
    num, den = eps.numerator, eps.denominator
    m = max(0, math.ceil((den.bit_length() - num.bit_length()) / math.log2(p)))
    if m > 10**6 + 2:
        raise InputError("epsilon too small")
    while m > 0 and p ** (m - 1) * num >= den:
        m -= 1
    while p**m * num < den:
        m += 1
    if m > 10**6:
        raise InputError("epsilon too small")
    return max(m, 1)


def _checked_window(window: int | None, n: int) -> int:
    """The window (default max(2, n // 10)): at least two values, fewer than n."""
    if window is None:
        window = max(2, n // 10)
    if window < 2:
        raise InputError(f"window must be >= 2, got {window}")
    if n <= window:
        raise InputError("sequence must be longer than the window")
    return window


def detect_padic_stabilization(
    seq: Sequence, ctx: PAdicContext, window: int | None = None,
    epsilon: Fraction = Fraction(1, 2**20),
) -> ConvergenceReport:
    """Stabilized iff the max pairwise distance over the final window is
    <= epsilon; by the ultrametric inequality that max is attained on a
    consecutive pair, so only consecutive gaps are evaluated.

    The limit estimate is the last element's expansion truncated to the
    digit precision implied by epsilon.
    """
    vals = [Fraction(v) for v in seq]
    window = _checked_window(window, len(vals))
    epsilon = Fraction(epsilon)
    if not epsilon > 0:
        raise InputError(f"epsilon must be > 0, got {epsilon}")
    tail = vals[-window:]
    gaps = [padic_distance(a, b, ctx) for a, b in zip(tail, tail[1:])]
    osc = max(gaps) if gaps else Fraction(0)
    ok = osc <= epsilon
    limit = None
    if ok:
        prec = _eps_to_digit_precision(epsilon, ctx.p)
        trunc_ctx = PAdicContext(ctx.p, prec)
        limit = padic_expand(tail[-1], trunc_ctx)
    pv = MetricVerdict("p-adic", bool(ok), limit, osc, window, epsilon)
    return ConvergenceReport(real=None, padic=pv)


def compare_convergence(
    seq: Sequence, ctx: PAdicContext, window: int | None = None,
    eps_real: Fraction = Fraction(1, 100),
    eps_padic: Fraction = Fraction(1, 2**20),
) -> ConvergenceReport:
    """Both metrics on one sequence; the four-way verdict is in .verdict.
    The two verdicts are reported side by side, never merged."""
    vals = [Fraction(v) for v in seq]
    window = _checked_window(window, len(vals))
    eps_real = Fraction(eps_real)
    s = window_stability(vals[-window:], eps_real)
    rv = MetricVerdict("real", s.stabilized, s.limit, s.oscillation, window, eps_real)
    pv = detect_padic_stabilization(vals, ctx, window, Fraction(eps_padic)).padic
    return ConvergenceReport(real=rv, padic=pv)


def frequency_path_realizer(checkpoints: Sequence[tuple[int, int]]) -> collectives.TrialSequence:
    """A binary sequence hitting exactly the (N_k, n_k) count checkpoints.

    Between checkpoints the target label's occurrences are emitted first.
    Infeasible deltas raise with the first violating checkpoint named.
    """
    if not checkpoints:
        raise InputError("need at least one checkpoint")
    prev_n, prev_c = 0, 0
    runs = []  # lengths of alternating runs of label 0 and label 1
    for k, (n_k, c_k) in enumerate(checkpoints):
        if n_k <= prev_n:
            raise InputError(f"checkpoint {k}: N={n_k} does not increase (prev {prev_n})")
        if c_k < prev_c:
            raise InputError(f"checkpoint {k}: count {c_k} decreases (prev {prev_c})")
        if c_k > n_k:
            raise InputError(f"checkpoint {k}: count {c_k} exceeds N={n_k}")
        dn, dc = n_k - prev_n, c_k - prev_c
        if dc > dn:
            raise InputError(
                f"checkpoint {k}: needs {dc} occurrences in {dn} new trials"
            )
        runs += [dc, dn - dc]
        prev_n, prev_c = n_k, c_k
    import numpy as np

    labels = np.tile(np.array([0, 1], dtype=np.uint8), len(runs) // 2)
    alphabet = collectives.LabelAlphabet(("A", "not-A"))
    return collectives.TrialSequence(alphabet, np.repeat(labels, runs))


def realized_trace(x: collectives.TrialSequence, checkpoints: Sequence[int],
                   label="A") -> list[Fraction]:
    """Rational frequency of the label at the given positions."""
    j, checkpoints = x.alphabet.index(label), tuple(checkpoints)
    for n in checkpoints:
        if not 1 <= n <= len(x):
            raise InputError(f"checkpoint {n} out of range")
    rows = collectives.label_count_rows(x, checkpoints)
    return [Fraction(counts[0][j], n) for counts, n in zip(rows, checkpoints)]
