"""Finite probability spaces whose weights may be negative.

Weights of any sign summing to exactly 1: additivity and the Bayes quotient
survive, nonnegativity does not — a set of negative probability forces its
complement above 1.  Almost-sure convergence of empirical means can fail
outright, but the weak form E f(mean of N copies) -> f(m) still holds for
polynomial f.  Sampling from a signed law is ill-defined, so no Monte-Carlo
is attempted: the weak law is checked on exact moments, at any N, and the
N-fold law, where wanted, is an exact integer polynomial power.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import CapacityError, InputError, NullConditioningError, check_mem, max_mem_bytes
from .finite_prob import is_exact, values_equal
from .seqio import MALFORMED, parse_rational, read_json

# per subset sum of the negativity count (tracemalloc: 13-31 bytes at 12-24 atoms)
NEGATIVITY_BYTES_PER_SUM = 64
LAW_BYTE_BUDGET = 128 * 10**6  # bytes of the largest requested law
# per mean-law point besides two coefficients (tracemalloc, bundled laws, N <= 2048)
LAW_POINT_BYTES = 320


@dataclass(frozen=True)
class SignedProbabilitySpace:
    atoms: tuple
    weight: Mapping  # atom -> value, any sign

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise InputError("need at least one atom")
        if len(set(atoms)) != len(atoms):
            raise InputError("atoms must be distinct")
        w = dict(self.weight)
        object.__setattr__(self, "weight", w)
        if set(w) != set(atoms):
            raise InputError("weight map must cover the atoms exactly")

    @property
    def exact(self) -> bool:
        return is_exact(*self.weight.values())

    def total(self):
        return sum(self.weight.values())

    def prob(self, subset) -> object:
        members = set(subset)
        for a in members:
            if a not in self.weight:
                raise InputError(f"unknown atom {a!r}")
        vals = [self.weight[a] for a in self.atoms if a in members]
        return sum(vals) if vals else (Fraction(0) if self.exact else 0.0)


@dataclass(frozen=True)
class SignedDiagnostics:
    total: object
    negative_atoms: tuple
    total_variation: object


def validate(space: SignedProbabilitySpace) -> SignedDiagnostics:
    """Normalization check plus the negativity inventory."""
    total = space.total()
    one = Fraction(1) if space.exact else 1.0
    if not values_equal(total, one, space.exact):
        raise InputError(f"weights sum to {total}, not 1")
    neg = tuple(a for a in space.atoms if space.weight[a] < 0)
    tv = sum(abs(v) for v in space.weight.values())
    return SignedDiagnostics(total, neg, tv)


@dataclass(frozen=True)
class JordanDecomposition:
    positive: dict  # atom -> nonnegative weight
    negative: dict  # atom -> nonnegative weight, support disjoint from positive


def jordan(space: SignedProbabilitySpace) -> JordanDecomposition:
    pos = {a: w for a, w in space.weight.items() if w > 0}
    neg = {a: -w for a, w in space.weight.items() if w < 0}
    return JordanDecomposition(pos, neg)


def complement_excess(space: SignedProbabilitySpace, subset) -> tuple:
    """(P(A), P(complement)); they sum to 1, so P(A) < 0 forces P(comp) > 1."""
    members = set(subset)
    pa = space.prob(members)
    pc = space.prob(a for a in space.atoms if a not in members)
    if not values_equal(pa + pc, Fraction(1) if space.exact else 1.0, space.exact):
        raise AssertionError("complement law failed (space not normalized?)")
    if pa < 0 and not pc > 1:
        raise AssertionError("negative P(A) without excess complement")
    return pa, pc


def conditional_signed(space: SignedProbabilitySpace, b, c) -> object:
    """Bayes quotient P(B & C) / P(C); P(C) may be negative (flagged upstream,
    not forbidden), only P(C) = 0 is an error."""
    members_c = set(c)
    pc = space.prob(members_c)
    if pc == 0:
        raise NullConditioningError("conditioning on an event of signed mass 0")
    return space.prob(set(b) & members_c) / pc


def expectation_signed(space: SignedProbabilitySpace, a: Mapping) -> object:
    """sum a(atom) * w(atom), cross-checked against the Jordan difference."""
    if set(a) != set(space.atoms):
        raise InputError("variable must assign a value to every atom")
    direct = sum(a[atom] * space.weight[atom] for atom in space.atoms)
    jd = jordan(space)
    via_jordan = sum(a[atom] * w for atom, w in jd.positive.items()) - sum(
        a[atom] * w for atom, w in jd.negative.items()
    )
    if not values_equal(direct, via_jordan, space.exact):
        raise AssertionError("Jordan-difference expectation mismatch")
    return direct


def negative_event_count(space: SignedProbabilitySpace) -> int:
    """Number of events of negative signed mass, by meet in the middle: the
    2^(k/2) subset sums of each half of the atoms, one half sorted and
    bisected for every sum of the other, instead of all 2^k events.  The
    sorted half and its unsorted copy, 2 * 2^ceil(k/2) sums, are checked
    against COLLECTIVA_MAX_MEM first."""
    weights = [_rational(space.weight[a]) for a in space.atoms]
    den = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (den // w.denominator) for w in weights]
    half = len(ints) // 2
    per_sum = NEGATIVITY_BYTES_PER_SUM + sum(map(abs, ints)).bit_length() // 8
    sums = 2 << (len(ints) - half)
    check_mem(sums * per_sum, f"the negativity count's {sums} subset sums")
    right = sorted(_subset_sums(ints[half:]))
    return sum(bisect.bisect_left(right, -s) for s in _subset_sums(ints[:half]))


def _subset_sums(values) -> list:
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def independent_signed(space: SignedProbabilitySpace, a, b) -> bool:
    pa, pb = space.prob(a), space.prob(b)
    pab = space.prob(set(a) & set(b))
    return values_equal(pab, pa * pb, space.exact)


def product_space(s1: SignedProbabilitySpace, s2: SignedProbabilitySpace) -> SignedProbabilitySpace:
    atoms = tuple((x, y) for x in s1.atoms for y in s2.atoms)
    w = {(x, y): s1.weight[x] * s2.weight[y] for x, y in atoms}
    return SignedProbabilitySpace(atoms, w)


def law_of(space: SignedProbabilitySpace, a: Mapping) -> dict:
    """Signed pmf of the variable: value -> total weight of its preimage."""
    if set(a) != set(space.atoms):
        raise InputError("variable must assign a value to every atom")
    law: dict = {}
    zero = Fraction(0) if space.exact else 0.0
    for atom in space.atoms:
        v = a[atom]
        law[v] = law.get(v, zero) + space.weight[atom]
    return law


@dataclass(frozen=True)
class SumDistribution:
    """Signed pmf of the empirical mean of N iid copies, with exact rational
    means and masses.  The masses grow like the total variation to the
    power N while their sums stay small, so a law from float input (exact
    False) sums them exactly and rounds only the result to float; one
    beyond the float range is a CapacityError."""

    n: int
    mass: dict  # mean value -> signed mass
    exact: bool = True

    def total(self):
        total = sum(self.mass.values())
        return total if self.exact else _finite(total, f"the total mass at N={self.n}")

    def expect(self, f: Callable) -> object:
        if self.exact:
            return sum(f(v) * m for v, m in self.mass.items())
        return _finite(sum(Fraction(f(v)) * m for v, m in self.mass.items()), f"E f at N={self.n}")


@dataclass(frozen=True)
class Polynomial:
    """The test function sum_k coeffs[k] x^k, lowest degree first, evaluated
    by Horner's rule (so x^2 is x*x)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise InputError("a polynomial needs at least one coefficient")

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


def _rational(v) -> Fraction:
    """Exact rational of a numeric value; a float by its shortest repr, so
    0.1 is 1/10 rather than its 55-bit binary expansion."""
    if isinstance(v, str):
        raise InputError(f"value {v!r} is not a number")
    try:
        return Fraction(repr(float(v))) if isinstance(v, float) else Fraction(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"value {v!r} is not a finite number: {exc}") from exc


def _checked_ns(ns: Sequence[int]) -> list[int]:
    want = sorted({int(n) for n in ns})
    if not want:
        raise InputError("need at least one N")
    if want[0] < 1:
        raise InputError("n must be >= 1")
    return want


def _rational_pairs(space: SignedProbabilitySpace, a: Mapping) -> list[tuple[Fraction, Fraction]]:
    """(value, weight) of every atom, as exact rationals."""
    if set(a) != set(space.atoms):
        raise InputError("variable must assign a value to every atom")
    return [(_rational(a[atom]), _rational(space.weight[atom])) for atom in space.atoms]


@dataclass(frozen=True)
class _LatticeLaw:
    """A variable's law on an integer lattice: the value at position p is
    (base + step * p) / scale and its weight is coeffs[p] / denom."""

    coeffs: dict  # position -> int, for every position some value lands on
    span: int  # largest position
    denom: int
    base: int
    step: int
    scale: int


def _lattice_law(space: SignedProbabilitySpace, a: Mapping) -> _LatticeLaw:
    weights: dict[Fraction, Fraction] = {}
    for v, w in _rational_pairs(space, a):
        weights[v] = weights.get(v, 0) + w
    scale = math.lcm(*(v.denominator for v in weights))
    denom = math.lcm(*(w.denominator for w in weights.values()))
    ints = {v: v.numerator * (scale // v.denominator) for v in weights}
    base = min(ints.values())
    step = math.gcd(*(u - base for u in ints.values())) or 1
    coeffs = {
        (ints[v] - base) // step: w.numerator * (denom // w.denominator)
        for v, w in weights.items()
    }
    return _LatticeLaw(coeffs, max(coeffs), denom, base, step, scale)


def _sparse_powers(lat: _LatticeLaw, want: Sequence[int]):
    """(N, position -> coefficient of P(z)^N) for each N in `want`, by one
    step-by-step sweep of integer dicts; every reached position keeps its
    key, even when its coefficient cancels to 0.  Before the first step the
    largest law is bounded by its points, at most the lattice range and at
    most the multisets of N occupied positions, times their bytes: each
    coefficient is at most (sum |c|)^N, plus a sign bit."""
    n, k = want[-1], len(lat.coeffs)
    points = min(n * lat.span + 1, math.comb(n + k - 1, k - 1))
    coeff_bytes = (n * sum(map(abs, lat.coeffs.values())).bit_length() + 8) // 8
    size = points * (2 * coeff_bytes + LAW_POINT_BYTES)
    mem = max_mem_bytes()
    budget = LAW_BYTE_BUDGET if mem is None else min(LAW_BYTE_BUDGET, mem)
    if size > budget:
        raise CapacityError(
            f"convolution support exceeded: the N={n} law may take {size} "
            f"bytes, over the budget of {budget}"
        )
    marks = set(want)
    sums = {0: 1}
    for step in range(1, want[-1] + 1):
        nxt: dict[int, int] = {}
        for s, ms in sums.items():
            for p, c in lat.coeffs.items():
                nxt[s + p] = nxt.get(s + p, 0) + ms * c
        sums = nxt
        if step in marks:
            yield step, sums


def mean_law_table(
    space: SignedProbabilitySpace, a: Mapping, ns: Sequence[int]
) -> dict[int, SumDistribution]:
    """Mean laws at each requested N, from exact integer polynomial powers.

    On the integer lattice of the variable's values its law is P(z) / W with
    integer coefficients, so the law of the sum of N copies is P(z)^N / W^N,
    and one sparse sweep snapshots every requested N.  The support is the
    N-fold sumset of the occupied positions, so a mean whose mass cancels
    to 0 keeps its key.  Means and masses are exact rationals on every
    input, a float by its shortest repr; when any value or weight is a
    float, the law's expectations are rounded to float once (see
    SumDistribution).  Every law's total signed mass is checked to be
    exactly 1 (within float tolerance for float weights), and the sweep's
    bytes against the byte budget before it starts.
    """
    want = _checked_ns(ns)
    lat = _lattice_law(space, a)
    exact = space.exact and is_exact(*a.values())
    out: dict[int, SumDistribution] = {}
    for n, coeffs in _sparse_powers(lat, want):
        wn = lat.denom**n
        total = sum(coeffs.values())
        if not (total == wn if space.exact else values_equal(total / wn, 1.0, False)):
            raise AssertionError(f"signed mass of the mean law is {Fraction(total, wn)}, not 1")
        key_den = n * lat.scale
        mass = {Fraction(n * lat.base + lat.step * p, key_den): Fraction(c, wn)
                for p, c in coeffs.items()}
        out[n] = SumDistribution(n, mass, exact)
    return out


def sum_distribution(space: SignedProbabilitySpace, a: Mapping, n: int) -> SumDistribution:
    """Exact N-fold signed convolution of the variable's law, as a law of the
    mean; total signed mass is checked to be exactly 1."""
    return mean_law_table(space, a, [n])[n]


def weak_lln_check(
    space: SignedProbabilitySpace,
    a: Mapping,
    f: Polynomial,
    schedule: Sequence[int],
) -> list[tuple[int, object, object]]:
    """Rows (N, E f(mean_N), |E f(mean_N) - f(m)|) over the schedule, where m
    is the signed expectation of the variable — the weak-convergence table.

    No law is built: with a_j = E[X^j] / j!, the sum S_N of N copies has
    E[S_N^k] = k! [t^k] (sum_j a_j t^j)^N, whose coefficients J. C. P.
    Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7) gives in O(deg^2) exact
    steps at any N.  Weights summing to 1 within float tolerance are rescaled
    to exactly 1.  Rows are exact when every weight and value is; otherwise
    each is rounded to float once, and one beyond the float range is a
    CapacityError."""
    if not isinstance(f, Polynomial):
        raise TypeError(f"f must be a Polynomial, not {type(f).__name__}")
    _checked_ns(schedule)
    pairs = _rational_pairs(space, a)
    exact = space.exact and is_exact(*a.values(), *f.coeffs)
    deg = len(f.coeffs) - 1
    mu = [sum(w * x**j for x, w in pairs) for j in range(max(deg, 1) + 1)]
    if not values_equal(mu[0], 1, space.exact):
        raise InputError(f"weights sum to {mu[0]}, not 1")
    fact = [math.factorial(j) for j in range(deg + 1)]
    aj = [mu[j] / (mu[0] * fact[j]) for j in range(deg + 1)]
    g = Polynomial(tuple(map(_rational, f.coeffs)))
    fm = g(mu[1] / mu[0])
    if not exact:
        _finite(fm, "f(m)")
    rows = []
    for n in map(int, schedule):
        b = [Fraction(1)]  # b_k = (1/k) sum_j ((N + 1) j - k) a_j b_{k-j}
        for k in range(1, deg + 1):
            b.append(sum(((n + 1) * j - k) * aj[j] * b[k - j] for j in range(1, k + 1)) / k)
        ef = sum(c * fact[k] * b[k] / Fraction(n) ** k for k, c in enumerate(g.coeffs))
        gap = abs(ef - fm)
        if not exact:
            ef, gap = _finite(ef, f"E f at N={n}"), _finite(gap, f"the gap at N={n}")
        rows.append((n, ef, gap))
    return rows


def _finite(x: Fraction, what: str) -> float:
    """x rounded to float; a CapacityError when it is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise CapacityError(f"{what} is beyond the float range") from None


# shipped smooth test functions: each one's weak-convergence error at
# N = 256 falls below 1% of its N = 1 value on every bundled space; the
# quartic misses that margin there (its 1/N coefficient 6 m^2 mu_2 is too
# large next to the N = 1 error), so it is left to callers
POLY_TEST_FUNCTIONS: tuple[tuple[str, Polynomial], ...] = (
    ("x", Polynomial((0, 1))),
    ("x^2", Polynomial((0, 0, 1))),
    ("x^3", Polynomial((0, 0, 0, 1))),
)


BUNDLED_SPACES: dict[str, SignedProbabilitySpace] = {
    "three-atom": SignedProbabilitySpace(
        ("w1", "w2", "w3"),
        {"w1": Fraction(-1, 2), "w2": Fraction(3, 4), "w3": Fraction(3, 4)},
    ),
    "two-point": SignedProbabilitySpace(
        ("a0", "a1"), {"a0": Fraction(-1, 2), "a1": Fraction(3, 2)}
    ),
    "sixteen-atom": SignedProbabilitySpace(
        tuple(f"s{i}" for i in range(16)),
        {f"s{i}": Fraction(-1, 4) if i % 2 else Fraction(3, 8) for i in range(16)},
    ),
}

BUNDLED_VARIABLES: dict[str, Mapping] = {
    "three-atom": {"w1": 0, "w2": 1, "w3": 2},
    "two-point": {"a0": 0, "a1": 1},
    # offset keeps the mean-law errors of the shipped test functions
    # single-signed, so their magnitudes decrease along any N schedule
    "sixteen-atom": {f"s{i}": i % 4 + 2 for i in range(16)},
}


# --- file format ---------------------------------------------------------------

def _document_number(v):
    """A weight or variable value from a JSON document: a number, or a string
    in parse_rational's grammar, read exactly.  Booleans are not numbers here."""
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"malformed signed-space document: {v!r} is not a number")
    return v


def space_from_document(doc: dict) -> tuple[SignedProbabilitySpace, Mapping | None]:
    try:
        weights = {atom: _document_number(v) for atom, v in doc["weights"].items()}
        space = SignedProbabilitySpace(tuple(weights), weights)
        var = None
        if "variable" in doc:
            var = {a: _document_number(doc["variable"][a]) for a in weights}
        return space, var
    except MALFORMED as exc:
        raise InputError(f"malformed signed-space document: {exc}") from exc


def load_space(path) -> tuple[SignedProbabilitySpace, Mapping | None]:
    return space_from_document(read_json(path))
