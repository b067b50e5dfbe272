"""Finite probability spaces whose weights may be negative.

Weights of any sign summing to exactly 1: additivity and the Bayes quotient
survive, nonnegativity does not — a set of negative probability forces its
complement above 1.  Almost-sure convergence of empirical means can fail
outright, but the weak form E f(mean of N copies) -> f(m) still holds for
smooth f, and is verified here by *exact convolution*, computed as integer
polynomial powers: sampling from a signed law is ill-defined, so no
Monte-Carlo is attempted.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import CapacityError, InputError, NullConditioningError, max_mem_bytes
from .finite_prob import is_exact, values_equal

CONVOLUTION_SUPPORT_CAP = 10**6  # mean-law points
PACKED_LAW_BYTE_BUDGET = 128 * 10**6  # bytes of one packed power


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
    bisected for every sum of the other, instead of all 2^k events."""
    weights = [_rational(space.weight[a]) for a in space.atoms]
    den = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (den // w.denominator) for w in weights]
    half = len(ints) // 2
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
    """Signed pmf of the empirical mean of N iid copies."""

    n: int
    mass: dict  # mean value -> signed mass

    def total(self):
        return sum(self.mass.values())

    def expect(self, f: Callable) -> object:
        return sum(f(v) * m for v, m in self.mass.items())


def _rational(v) -> Fraction:
    """Exact rational of a numeric value; a float by its shortest repr, so
    0.1 is 1/10 rather than its 55-bit binary expansion."""
    if isinstance(v, str):
        raise InputError(f"value {v!r} is not a number")
    try:
        return Fraction(repr(float(v))) if isinstance(v, float) else Fraction(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"value {v!r} is not a finite number: {exc}") from exc


def _support_cap() -> int:
    """Mean-law points either kernel may hold: CONVOLUTION_SUPPORT_CAP, or
    COLLECTIVA_MAX_MEM / 128 when that is lower (but at least 16)."""
    mem = max_mem_bytes()
    if mem is None:
        return CONVOLUTION_SUPPORT_CAP
    return max(16, min(CONVOLUTION_SUPPORT_CAP, mem // 128))


def _byte_budget() -> int:
    """Bytes a packed power may take: PACKED_LAW_BYTE_BUDGET, or
    COLLECTIVA_MAX_MEM when that is lower."""
    mem = max_mem_bytes()
    return PACKED_LAW_BYTE_BUDGET if mem is None else min(PACKED_LAW_BYTE_BUDGET, mem)


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
    if set(a) != set(space.atoms):
        raise InputError("variable must assign a value to every atom")
    weights: dict[Fraction, Fraction] = {}
    for atom in space.atoms:
        v = _rational(a[atom])
        weights[v] = weights.get(v, 0) + _rational(space.weight[atom])
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


def _is_dense(lat: _LatticeLaw, n: int) -> bool:
    """Whether the N-fold law fills enough of its lattice range 0..n*span
    for the packed power: the range may be at most twice the number of
    multisets of N occupied positions, which bounds the sumset.  Values
    on a narrow lattice, such as small integers, are dense; values far
    apart on theirs, such as {0, 1, 10**6} or floats with long decimals,
    are not."""
    k = len(lat.coeffs)
    return n * lat.span + 1 <= 2 * math.comb(n + k - 1, k - 1)


def _slot_bytes(coeffs: dict, n: int) -> int:
    """Bytes per coefficient of the n-th power: |coefficient| <= (sum |c|)^n,
    plus one sign bit, rounded up to whole bytes."""
    return (n * sum(abs(c) for c in coeffs.values()).bit_length() + 8) // 8


def _power_coeffs(coeffs: dict, span: int, n: int) -> list[int]:
    """Coefficients of (sum_p coeffs[p] z^p)^n for powers 0..n*span, by
    Kronecker substitution: pack the polynomial into one int with slots
    wide enough for any coefficient of the power, raise it to the n-th
    power, then bias every slot by half its range so no slot borrows from
    the next and read them all off one to_bytes call (linear, where shifting
    the int once per slot would be quadratic)."""
    slot = _slot_bytes(coeffs, n)
    bits = 8 * slot
    packed = sum(c << (bits * p) for p, c in coeffs.items())
    count = n * span + 1
    half = 1 << (bits - 1)
    bias = int.from_bytes((bytes(slot - 1) + b"\x80") * count, "little")
    raw = (packed**n + bias).to_bytes(count * slot, "little")
    return [
        int.from_bytes(raw[i : i + slot], "little") - half
        for i in range(0, count * slot, slot)
    ]


def _packed_powers(lat: _LatticeLaw, want: Sequence[int], cap: int):
    """(N, position -> coefficient of P(z)^N) for each N in `want`, one
    packed power each.  The keys are the N-fold sumset of the occupied
    positions: the whole range when they fill 0..span, otherwise the
    support of the power of their indicator polynomial."""
    indicator = None if len(lat.coeffs) == lat.span + 1 else dict.fromkeys(lat.coeffs, 1)
    n = want[-1]
    count = n * lat.span + 1
    if count > cap:
        raise CapacityError(f"convolution support exceeded cap of {cap} points")
    slot = _slot_bytes(lat.coeffs, n)
    if indicator is not None:
        slot = max(slot, _slot_bytes(indicator, n))
    # the power and its byte string take `slot` bytes per slot each, and
    # the unpacked list a pointer and an int of about 28 + slot bytes
    size = count * (3 * slot + 36) * (1 if indicator is None else 2)
    budget = _byte_budget()
    if size > budget:
        raise CapacityError(
            f"convolution support exceeded: the N={n} law packs into {size} "
            f"bytes, over the budget of {budget}"
        )
    for n in want:
        coeffs = _power_coeffs(lat.coeffs, lat.span, n)
        if indicator is None:
            yield n, dict(enumerate(coeffs))
        else:
            hits = _power_coeffs(indicator, lat.span, n)
            yield n, {p: c for p, c in enumerate(coeffs) if hits[p]}


def _sparse_powers(lat: _LatticeLaw, want: Sequence[int], cap: int):
    """(N, position -> coefficient of P(z)^N) for each N in `want`, by one
    step-by-step sweep of integer dicts; every reached position keeps its
    key, even when its coefficient cancels to 0."""
    marks = set(want)
    sums = {0: 1}
    for step in range(1, want[-1] + 1):
        nxt: dict[int, int] = {}
        for s, ms in sums.items():
            for p, c in lat.coeffs.items():
                nxt[s + p] = nxt.get(s + p, 0) + ms * c
            if len(nxt) > cap:
                raise CapacityError(f"convolution support exceeded cap of {cap} points")
        sums = nxt
        if step in marks:
            yield step, sums


def mean_law_table(
    space: SignedProbabilitySpace, a: Mapping, ns: Sequence[int]
) -> dict[int, SumDistribution]:
    """Mean laws at each requested N, from exact integer polynomial powers.

    On the integer lattice of the variable's values its law is P(z) / W with
    integer coefficients, so the law of the sum of N copies is P(z)^N / W^N.
    When the values sit densely on their lattice each power is one packed
    big-int power; otherwise one sparse sweep snapshots every requested N.
    The support is the N-fold sumset of the occupied positions, so a mean
    whose mass cancels to 0 keeps its key.  Keys are floats when any value
    or weight is a float, masses when any weight is.  Every law's total
    signed mass is checked to be exactly 1, and either kernel's size
    against the support cap (and the packed one's bytes against the byte
    budget) before it can exceed them.
    """
    want = sorted({int(n) for n in ns})
    if not want:
        raise InputError("need at least one N")
    if want[0] < 1:
        raise InputError("n must be >= 1")
    lat = _lattice_law(space, a)
    float_keys = not (space.exact and is_exact(*a.values()))
    kernel = _packed_powers if _is_dense(lat, want[-1]) else _sparse_powers
    out: dict[int, SumDistribution] = {}
    for n, coeffs in kernel(lat, want, _support_cap()):
        wn = lat.denom**n
        total = sum(coeffs.values())
        if not (total == wn if space.exact else values_equal(total / wn, 1.0, False)):
            raise AssertionError(
                f"signed mass of the mean law is {Fraction(total, wn)}, not 1"
            )
        key_den = n * lat.scale
        mass: dict = {}
        try:
            for p, c in coeffs.items():
                num = n * lat.base + lat.step * p
                if not float_keys:
                    mass[Fraction(num, key_den)] = Fraction(c, wn)
                    continue
                # distinct exact means may round to one float: add them up
                key = num / key_den
                m = Fraction(c, wn) if space.exact else c / wn
                mass[key] = mass[key] + m if key in mass else m
        except OverflowError:
            raise CapacityError(
                f"the N={n} mean law has a signed mass beyond the float range"
            ) from None
        out[n] = SumDistribution(n, mass)
    return out


def sum_distribution(space: SignedProbabilitySpace, a: Mapping, n: int) -> SumDistribution:
    """Exact N-fold signed convolution of the variable's law, as a law of the
    mean; total signed mass is checked to be exactly 1."""
    if n < 1:
        raise InputError("n must be >= 1")
    return mean_law_table(space, a, [n])[n]


def weak_lln_check(
    space: SignedProbabilitySpace,
    a: Mapping,
    f: Callable,
    schedule: Sequence[int],
) -> list[tuple[int, object, object]]:
    """Rows (N, E f(mean_N), |E f(mean_N) - f(m)|) over the schedule, where m
    is the signed expectation of the variable — the weak-convergence table."""
    m = expectation_signed(space, a)
    fm = f(m)
    laws = mean_law_table(space, a, schedule)
    rows = []
    for n in schedule:
        ef = laws[int(n)].expect(f)
        rows.append((n, ef, abs(ef - fm)))
    return rows


# shipped smooth test functions: each one's weak-convergence error at
# N = 256 falls below 1% of its N = 1 value on every bundled space; the
# quartic misses that margin there (its 1/N coefficient 6 m^2 mu_2 is too
# large next to the N = 1 error), so it is left to callers
POLY_TEST_FUNCTIONS: tuple[tuple[str, Callable], ...] = (
    ("x", lambda x: x),
    ("x^2", lambda x: x * x),
    ("x^3", lambda x: x * x * x),
)


def _mixed_sixteen() -> SignedProbabilitySpace:
    atoms = tuple(f"s{i}" for i in range(16))
    w = {}
    for i, a in enumerate(atoms):
        w[a] = Fraction(3, 8) if i % 2 == 0 else Fraction(-1, 4)
    return SignedProbabilitySpace(atoms, w)


BUNDLED_SPACES: dict[str, SignedProbabilitySpace] = {
    "three-atom": SignedProbabilitySpace(
        ("w1", "w2", "w3"),
        {"w1": Fraction(-1, 2), "w2": Fraction(3, 4), "w3": Fraction(3, 4)},
    ),
    "two-point": SignedProbabilitySpace(
        ("a0", "a1"), {"a0": Fraction(-1, 2), "a1": Fraction(3, 2)}
    ),
    "sixteen-atom": _mixed_sixteen(),
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
    """A weight or variable value from a JSON document: a number, or a
    rational string such as "p/q".  Booleans are not numbers here."""
    if isinstance(v, str):
        return Fraction(v)
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
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed signed-space document: {exc}") from exc


def load_space(path) -> tuple[SignedProbabilitySpace, Mapping | None]:
    from .seqio import read_text  # seqio pulls in numpy; only files need it

    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    return space_from_document(doc)
