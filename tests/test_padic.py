"""p-adic valuation/metric/expansion arithmetic, two-metric convergence
verdicts, and count-checkpoint realizability of frequency paths."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva import padic
from collectiva.errors import InputError
from collectiva.padic import (
    ConvergenceReport,
    MetricVerdict,
    PAdicContext,
    PAdicExpansion,
    compare_convergence,
    detect_padic_stabilization,
    frequency_path_realizer,
    is_prime,
    padic_distance,
    padic_expand,
    padic_valuation,
    realized_trace,
)

from _oracles import digit_precision_by_search, factor_product, geometric_partial_sums, spf_sieve

Q2 = PAdicContext(2)
Q5 = PAdicContext(5)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)


def nu_family(k_max: int) -> list[Fraction]:
    """Genuine frequencies (2^k - 1)/(2^k + 1) inside [0, 1]."""
    return [Fraction(2**k - 1, 2**k + 1) for k in range(1, k_max + 1)]


# --- context and primality ----------------------------------------------------------

def test_context_requires_a_prime():
    with pytest.raises(InputError, match="prime"):
        PAdicContext(4)
    with pytest.raises(InputError, match="prime"):
        PAdicContext(1)
    with pytest.raises(InputError, match="precision"):
        PAdicContext(2, 0)
    assert PAdicContext(2**31 - 1).p == 2**31 - 1


def test_primality_corner_cases():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(7919 * 7927)
    assert is_prime(7919)


# --- valuation and metric -----------------------------------------------------------

def test_valuation_examples():
    assert padic_valuation(12, Q2) == 2
    assert padic_valuation(1, Q2) == 0
    assert padic_valuation(1, Q5) == 0
    assert padic_valuation(Fraction(3, 8), Q2) == -3
    assert padic_valuation(0, Q2) == math.inf


def test_distance_examples():
    assert padic_distance(Fraction(7, 3), Fraction(7, 3), Q2) == 0
    assert padic_distance(1, 3, Q2) == Fraction(1, 2)
    assert padic_distance(0, Fraction(1, 5), Q5) == 5


@given(rationals, rationals, rationals)
@settings(max_examples=120, deadline=None)
def test_ultrametric_inequality(a, b, c):
    for ctx in (Q2, PAdicContext(3), Q5):
        dac = padic_distance(a, c, ctx)
        assert dac <= max(padic_distance(a, b, ctx), padic_distance(b, c, ctx))


@given(rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_distance_separates_points(a, b):
    d = padic_distance(a, b, Q2)
    assert (d == 0) == (a == b)
    assert d == padic_distance(b, a, Q2)


def test_product_of_local_absolute_values_is_the_integer():
    """prod over p | q of p^(v_p(q)) recovers |q|, exhaustively to 10^6."""
    limit = 10**6
    spf = spf_sieve(limit)
    ctxs: dict[int, PAdicContext] = {}
    for q in range(1, limit + 1):
        m = q
        prod = 1
        while m > 1:
            p = int(spf[m])
            ctx = ctxs.get(p)
            if ctx is None:
                ctx = ctxs[p] = PAdicContext(p)
            v = padic_valuation(q, ctx)
            prod *= p**v
            while m % p == 0:
                m //= p
        assert prod == q, q
        assert factor_product(q, spf) == q  # oracle agrees


# --- expansions ----------------------------------------------------------------------

def test_expansion_of_five_is_its_binary_digits():
    e = padic_expand(5, Q2)
    assert e.valuation == 0
    assert e.digits[:3] == (1, 0, 1)
    assert all(d == 0 for d in e.digits[3:])
    assert e.evaluate() == 5


def test_expansion_of_minus_one_is_all_ones():
    e = padic_expand(-1, Q2)
    assert e.valuation == 0
    assert e.digits == (1,) * 64
    assert (e.evaluate() + 1) % 2**64 == 0


def test_expansion_of_one_third_is_periodic():
    e = padic_expand(Fraction(1, 3), Q2)
    assert e.valuation == 0
    assert e.digits[:8] == (1, 1, 0, 1, 0, 1, 0, 1)
    assert (3 * e.evaluate() - 1) % 2**64 == 0


def test_expansion_of_zero():
    e = padic_expand(0, Q2)
    assert e.valuation is None and e.digits == ()
    assert e.evaluate() == 0


def test_negative_valuation_expansion_is_exact_when_finite():
    e = padic_expand(Fraction(3, 8), Q2)
    assert e.valuation == -3
    assert e.digits[:2] == (1, 1)
    assert e.evaluate() == Fraction(3, 8)


def test_expansion_digit_validation():
    with pytest.raises(InputError, match="digit outside"):
        PAdicExpansion(2, 0, (2,))
    with pytest.raises(InputError, match="leading digit"):
        PAdicExpansion(2, 0, (0, 1))


@given(rationals.filter(lambda q: q != 0), st.sampled_from([2, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_expansion_round_trip_matches_to_the_stated_precision(q, p):
    ctx = PAdicContext(p, 12)
    e = padic_expand(q, ctx)
    err = e.evaluate() - q
    assert err == 0 or padic_valuation(err, ctx) >= e.valuation + ctx.precision


# --- stabilization detection ------------------------------------------------------------

def test_constant_sequence_stabilizes_to_the_constant():
    seq = [Fraction(7, 3)] * 12
    report = detect_padic_stabilization(seq, Q2)
    assert report.padic.stabilized
    assert report.padic.oscillation == 0
    gap = report.padic.limit.evaluate() - Fraction(7, 3)
    assert gap == 0 or padic_valuation(gap, Q2) >= 20


def test_geometric_partial_sums_stabilize_to_minus_one():
    sums = geometric_partial_sums(61)
    assert sums[:4] == [1, 3, 7, 15]
    for k, s in enumerate(sums):
        assert padic_distance(s, -1, Q2) == Fraction(1, 2 ** (k + 1))
    report = detect_padic_stabilization(sums, Q2)
    assert report.padic.stabilized
    assert report.padic.limit.digits == (1,) * 20  # truncated -1


def test_partial_sums_diverge_on_the_real_line():
    report = compare_convergence(geometric_partial_sums(61), Q2)
    assert report.verdict == "p-adic-only"
    assert not report.real.stabilized
    assert report.padic.stabilized


def test_frequency_family_has_negative_two_adic_limit():
    nus = nu_family(60)
    for k, nu in enumerate(nus, start=1):
        assert 0 <= nu <= 1
        assert padic_distance(nu, -1, Q2) == Fraction(1, 2 ** (k + 1))
    report = detect_padic_stabilization(nus, Q2)
    assert report.padic.stabilized
    assert report.padic.limit.digits == padic_expand(-1, PAdicContext(2, 20)).digits


def test_detector_window_validation():
    with pytest.raises(InputError, match="longer than the window"):
        detect_padic_stabilization([Fraction(1)] * 5, Q2, window=5)
    with pytest.raises(InputError, match="longer than the window"):
        compare_convergence([Fraction(1)] * 3, Q2, window=10)


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=12, max_size=24),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_detector_is_sound_on_eventually_constant_residues(c, junk, p, m):
    """Elements all congruent to c modulo p^m stabilize at epsilon p^-m and
    the estimated limit agrees with c modulo p^m."""
    ctx = PAdicContext(p)
    seq = [Fraction(c + p**m * j) for j in junk]
    report = detect_padic_stabilization(seq, ctx, epsilon=Fraction(1, p**m))
    assert report.padic.stabilized
    gap = report.padic.limit.evaluate() - c
    assert gap == 0 or padic_valuation(gap, ctx) >= m


def test_coin_frequency_trace_is_real_only():
    import numpy as np

    rng = np.random.default_rng(424242)
    bits = rng.integers(0, 2, size=2000)
    ones = np.cumsum(bits)
    trace = [Fraction(int(ones[n - 1]), n) for n in range(1, 2001)]
    report = compare_convergence(trace, Q2)
    assert report.verdict == "real-only"
    assert abs(report.real.limit - Fraction(1, 2)) <= Fraction(1, 100)


def test_alternating_rationals_stabilize_in_neither_metric():
    seq = [Fraction(k % 2) for k in range(40)]
    report = compare_convergence(seq, Q2)
    assert report.verdict == "neither"


def test_four_way_verdict_table():
    def mv(ok):
        return MetricVerdict("m", ok, None, Fraction(0), 2, Fraction(1))

    assert ConvergenceReport(mv(True), mv(True)).verdict == "both"
    assert ConvergenceReport(mv(True), mv(False)).verdict == "real-only"
    assert ConvergenceReport(mv(False), mv(True)).verdict == "p-adic-only"
    assert ConvergenceReport(mv(False), mv(False)).verdict == "neither"


# --- realizability ---------------------------------------------------------------------

def test_small_checkpoint_pair_realizes_one_half():
    x = frequency_path_realizer([(2, 1), (4, 2)])
    assert x.labels() == ["A", "not-A", "A", "not-A"]
    assert realized_trace(x, [2, 4]) == [Fraction(1, 2), Fraction(1, 2)]


def test_negative_limit_checkpoint_family_is_realizable():
    checkpoints = [(2**k + 1, 2**k - 1) for k in range(1, 21)]
    x = frequency_path_realizer(checkpoints)
    assert len(x) == 2**20 + 1
    trace = realized_trace(x, [n for n, _ in checkpoints])
    assert trace == nu_family(20)
    report = detect_padic_stabilization(trace, Q2)
    assert report.padic.stabilized
    assert report.padic.limit.digits == (1,) * 20


def test_pigeonhole_violation_is_named():
    with pytest.raises(InputError, match="needs 2 occurrences in 1 new trials"):
        frequency_path_realizer([(2, 1), (3, 3)])


def test_realizer_checkpoint_validation():
    with pytest.raises(InputError, match="does not increase"):
        frequency_path_realizer([(4, 2), (4, 3)])
    with pytest.raises(InputError, match="decreases"):
        frequency_path_realizer([(4, 2), (6, 1)])
    with pytest.raises(InputError, match="exceeds"):
        frequency_path_realizer([(2, 3)])
    with pytest.raises(InputError, match="at least one checkpoint"):
        frequency_path_realizer([])


def test_realized_trace_bounds():
    x = frequency_path_realizer([(4, 2)])
    with pytest.raises(InputError, match="out of range"):
        realized_trace(x, [5])
    assert realized_trace(x, [4], label="not-A") == [Fraction(1, 2)]


@pytest.mark.parametrize("window", [-3, 0, 1])
def test_window_below_two_is_rejected(window):
    vals = [Fraction(k, k + 1) for k in range(1, 30)]
    with pytest.raises(InputError, match="window must be >= 2"):
        compare_convergence(vals, Q2, window=window)
    with pytest.raises(InputError, match="window must be >= 2"):
        detect_padic_stabilization(vals, Q2, window=window)
    assert compare_convergence(vals, Q2, window=2).real.window == 2


# --- digit precision of a p-adic tolerance -----------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_precision_equals_the_linear_search(p):
    tolerances = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]
    for k in range(0, 41):
        tolerances += [Fraction(1, p**k), Fraction(1, p**k) + Fraction(1, 10**9),
                       Fraction(3, 10**k)]
        if Fraction(1, p**k) > Fraction(1, 10**9):
            tolerances.append(Fraction(1, p**k) - Fraction(1, 10**9))
    for eps in tolerances:
        assert padic._eps_to_digit_precision(eps, p) == digit_precision_by_search(eps, p), eps


def test_digit_precision_of_a_200000_bit_tolerance_is_immediate():
    start = time.perf_counter()
    assert padic._eps_to_digit_precision(Fraction(1, 2**200000), 2) == 200000
    assert padic._eps_to_digit_precision(Fraction(1, 2**200000), 3) == math.ceil(200000 / math.log2(3))
    assert time.perf_counter() - start < 0.1


def test_digit_precision_past_a_million_digits_is_refused():
    assert padic._eps_to_digit_precision(Fraction(1, 2**10**6), 2) == 10**6
    for eps in (Fraction(1, 2**10**6 + 1), Fraction(1, 10**(10**6)), Fraction(0)):
        with pytest.raises(InputError, match="epsilon too small"):
            padic._eps_to_digit_precision(eps, 2)
