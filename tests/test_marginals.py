"""Marginal families: no-signaling agreement, joint feasibility with
witnesses, the generated correlation-polytope facets, and finite
consistency conditions."""

import contextlib
import itertools
import os
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva import marginals
from collectiva.errors import CapacityError, InputError
from collectiva.marginals import (
    HIGHS_OPTIONS,
    LP_CHECK_TOL,
    CorrelationTriple,
    JointPMF,
    MarginalFamily,
    boole_bell_value,
    check_no_signaling,
    correlation_facets,
    family_from_csv_rows,
    family_from_document,
    joint_exists,
    kolmogorov_consistency,
    marginalize,
    triple_to_family,
)

from _oracles import (
    all_cell_rows,
    correlations_of_joint,
    dense_rows,
    fraction_row_reduce,
    linprog_phase1,
    pair_feasible_interval,
    pairwise_no_signaling,
    rank_mod_p,
    row_matrix,
    simplex_feasible,
    support_solve,
    tetrahedron_facets,
    triangle_facets_4,
    walked_kolmogorov,
)

SIGNS = (1, -1)


# --- building blocks -------------------------------------------------------------

def uniform_joint(names: tuple[str, ...]) -> JointPMF:
    ranges = {o: SIGNS for o in names}
    tuples = list(itertools.product(SIGNS, repeat=len(names)))
    w = Fraction(1, len(tuples))
    return JointPMF(names, ranges, {t: w for t in tuples})


def random_joint3(rng: random.Random) -> JointPMF:
    """Random rational pmf over the 8 sign assignments of (a1, a2, a3)."""
    raw = [rng.randint(0, 12) for _ in range(8)]
    if sum(raw) == 0:
        raw[rng.randrange(8)] = 1
    total = sum(raw)
    tuples = list(itertools.product(SIGNS, repeat=3))
    mass = {t: Fraction(r, total) for t, r in zip(tuples, raw) if r}
    return JointPMF(("a1", "a2", "a3"), {o: SIGNS for o in ("a1", "a2", "a3")}, mass)


def pair_family_of(joint: JointPMF) -> MarginalFamily:
    pairs = itertools.combinations(joint.observables, 2)
    return MarginalFamily(tuple(marginalize(joint, p) for p in pairs))


# --- pmf validation ---------------------------------------------------------------

def test_joint_pmf_rejects_bad_mass():
    ranges = {"a": SIGNS}
    with pytest.raises(InputError, match="sum to"):
        JointPMF(("a",), ranges, {(1,): Fraction(1, 2)})
    with pytest.raises(InputError, match="negative"):
        JointPMF(("a",), ranges, {(1,): Fraction(3, 2), (-1,): Fraction(-1, 2)})
    with pytest.raises(InputError, match="out-of-range"):
        JointPMF(("a",), ranges, {(2,): Fraction(1)})
    with pytest.raises(InputError, match="duplicate observable"):
        JointPMF(("a", "a"), {"a": SIGNS}, {(1, 1): Fraction(1)})


def test_a_range_that_repeats_a_value_is_rejected():
    """A repeated value would be a cell of the pmf that no joint atom reaches."""
    with pytest.raises(InputError, match="duplicate value"):
        JointPMF(("a",), {"a": (0, 0)}, {(0,): Fraction(1)})
    with pytest.raises(InputError, match="duplicate value"):
        family_from_document({"pmfs": [
            {"observables": ["a"], "ranges": {"a": [0, 0]}, "mass": {"0": "1"}}]})


def test_a_pmf_checks_each_key_in_place():
    """A key is a tuple of the pmf's arity with each value in its observable's range; the
    pmf's support is never built (its 2^20 tuples took 232 MB)."""
    ranges = {"a": SIGNS}
    for key in ((1, 1), (), 1, "1"):
        with pytest.raises(InputError, match="out-of-range"):
            JointPMF(("a",), ranges, {key: Fraction(1)})
    assert JointPMF(("a",), ranges, {(1.0,): Fraction(1)}).prob((1,)) == 1
    names = tuple(f"x{i:02d}" for i in range(20))
    tracemalloc.start()
    try:
        JointPMF(names, {o: (0, 1) for o in names}, {(0,) * 20: Fraction(1)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_family_rejects_exact_duplicates_but_allows_reorderings():
    p12 = uniform_joint(("a1", "a2"))
    with pytest.raises(InputError, match="duplicate index subset"):
        MarginalFamily((p12, uniform_joint(("a1", "a2"))))
    # same index *set* under another ordering must be allowed to coexist,
    # otherwise its permutation compatibility could never be examined
    fam = MarginalFamily((p12, uniform_joint(("a2", "a1"))))
    assert fam.observables() == ("a1", "a2")


# --- marginalize ------------------------------------------------------------------

def test_marginal_of_independent_coins_is_a_fair_coin():
    joint = uniform_joint(("a1", "a2"))
    m = marginalize(joint, ("a1",))
    assert m.prob((1,)) == Fraction(1, 2)
    assert m.prob((-1,)) == Fraction(1, 2)


def test_marginalize_to_all_observables_is_the_identity():
    joint = uniform_joint(("a1", "a2"))
    m = marginalize(joint, ("a1", "a2"))
    assert m.observables == joint.observables
    assert {t: m.prob(t) for t in m.support()} == {
        t: joint.prob(t) for t in joint.support()
    }


def test_every_pair_of_a_uniform_triple_is_uniform():
    joint = uniform_joint(("a1", "a2", "a3"))
    for pair in itertools.combinations(joint.observables, 2):
        m = marginalize(joint, pair)
        assert all(m.prob(t) == Fraction(1, 4) for t in m.support())


def test_marginalize_unknown_observable():
    with pytest.raises(InputError, match="unknown observable"):
        marginalize(uniform_joint(("a1", "a2")), ("a9",))


def test_marginalize_respects_requested_order():
    joint = JointPMF(
        ("a1", "a2"),
        {"a1": SIGNS, "a2": SIGNS},
        {(1, -1): Fraction(3, 4), (-1, 1): Fraction(1, 4)},
    )
    m = marginalize(joint, ("a2", "a1"))
    assert m.observables == ("a2", "a1")
    assert m.prob((-1, 1)) == Fraction(3, 4)


# --- no-signaling -----------------------------------------------------------------

def test_marginals_of_one_joint_never_signal():
    joint = uniform_joint(("a1", "a2", "a3"))
    fam = MarginalFamily(
        tuple(marginalize(joint, p) for p in itertools.combinations(joint.observables, 2))
        + tuple(marginalize(joint, (o,)) for o in joint.observables)
    )
    ok, violations = check_no_signaling(fam)
    assert ok and violations == []


def test_biased_single_against_uniform_pair_deviates_by_two_fifths():
    p12 = uniform_joint(("a1", "a2"))
    p1 = JointPMF(
        ("a1",), {"a1": SIGNS}, {(1,): Fraction(9, 10), (-1,): Fraction(1, 10)}
    )
    ok, violations = check_no_signaling(MarginalFamily((p12, p1)))
    assert not ok
    ((obs_a, obs_b, common, dev),) = violations
    assert {obs_a, obs_b} == {("a1", "a2"), ("a1",)}
    assert common == ("a1",)
    assert dev == Fraction(2, 5)


def test_disjoint_family_is_vacuously_consistent():
    fam = MarginalFamily((uniform_joint(("a1",)), uniform_joint(("a2",))))
    ok, violations = check_no_signaling(fam)
    assert ok and violations == []


# --- generated facet catalogue vs independent oracle -------------------------------

def test_three_observable_facets_match_the_sign_pattern_oracle():
    assert frozenset(correlation_facets(3)) == tetrahedron_facets()


def test_four_observable_facets_match_the_triangle_oracle():
    assert frozenset(correlation_facets(4)) == triangle_facets_4()


def test_facets_require_at_least_two_observables():
    with pytest.raises(InputError, match="at least two"):
        correlation_facets(1)


def test_facet_functional_examples():
    value, ok, _ = boole_bell_value(CorrelationTriple(0, 0, 0))
    assert ok and value == 0

    value, ok, _ = boole_bell_value(CorrelationTriple(1, 1, 1))
    assert ok and value == 1

    value, ok, coeffs = boole_bell_value(CorrelationTriple(1, 1, -1))
    assert not ok
    assert value == 3
    # coefficients are reported over (E12, E13, E23)
    assert sum(c * e for c, e in zip(coeffs, (1, -1, 1))) == 3


def test_facet_functional_accepts_floats():
    value, ok, _ = boole_bell_value(CorrelationTriple(0.5, 0.5, -0.5))
    assert not ok
    assert value == pytest.approx(1.5)


def test_correlation_triple_rejects_out_of_range():
    with pytest.raises(InputError, match="outside"):
        CorrelationTriple(Fraction(3, 2), 0, 0)


# --- joint existence --------------------------------------------------------------

def test_product_joint_marginals_are_feasible_with_sound_witness():
    joint = JointPMF(
        ("a1", "a2", "a3"),
        {o: SIGNS for o in ("a1", "a2", "a3")},
        {
            t: Fraction(3 if t[0] == 1 else 1, 4)
            * Fraction(1 if t[1] == 1 else 3, 4)
            * Fraction(1, 2)
            for t in itertools.product(SIGNS, repeat=3)
        },
    )
    fam = pair_family_of(joint)
    verdict = joint_exists(fam)
    assert verdict.feasible and verdict.method == "lp-certified"
    for p in fam.pmfs:
        back = marginalize(verdict.witness, p.observables)
        assert all(back.prob(t) == p.prob(t) for t in p.support())


def test_perfectly_correlated_pair_with_anticorrelated_closure_is_infeasible():
    verdict = joint_exists(triple_to_family(CorrelationTriple(1, 1, -1)))
    assert not verdict.feasible
    assert verdict.witness is None
    assert verdict.violated[0] == "farkas"


def test_uncorrelated_triple_is_feasible():
    verdict = joint_exists(triple_to_family(CorrelationTriple(0, 0, 0)))
    assert verdict.feasible
    e12, e23, e13 = correlations_of_joint(
        {t: verdict.witness.prob(t) for t in verdict.witness.support()}
    )
    assert (e12, e23, e13) == (0, 0, 0)


def test_no_signaling_violation_short_circuits_feasibility():
    p12 = uniform_joint(("a1", "a2"))
    p1 = JointPMF(("a1",), {"a1": SIGNS}, {(1,): Fraction(9, 10), (-1,): Fraction(1, 10)})
    verdict = joint_exists(MarginalFamily((p12, p1)))
    assert not verdict.feasible
    assert verdict.method == "marginal-consistency"
    assert verdict.violated == ("no-signaling", Fraction(2, 5))


def test_no_signaling_is_computed_once_per_family(monkeypatch):
    calls = []
    monkeypatch.setattr(marginals, "check_no_signaling",
                        lambda family: calls.append(family) or check_no_signaling(family))
    family = triple_to_family(CorrelationTriple(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)))
    assert family.no_signaling == (True, [])
    assert joint_exists(family).feasible is False
    assert len(calls) == 1


@pytest.mark.parametrize("e13", [0.99999999, 1 - 5e-9, 1 - 1e-7])
def test_float_triples_just_off_the_equality_face_are_infeasible(e13):
    verdict = joint_exists(triple_to_family(CorrelationTriple(1.0, 1.0, e13)))
    assert not verdict.feasible and verdict.method == "lp-highs"


@pytest.mark.parametrize("e13", [1 - 1e-9, 1 - 5e-10])
def test_float_triples_within_the_slack_per_cell_are_feasible(e13):
    """The all-equal joint misses each cell by (1 - e13) / 4 <= FLOAT_SLACK,
    the tolerance _verify_witness allows per cell."""
    family = triple_to_family(CorrelationTriple(1.0, 1.0, e13))
    verdict = joint_exists(family)
    assert verdict.feasible and verdict.method == "lp-highs"
    marginals._verify_witness(verdict.witness, family)


@pytest.mark.parametrize("e13", [1 - 1e-8, 1 - 1e-5])
def test_float_triples_past_the_slack_per_cell_stay_infeasible(e13):
    verdict = joint_exists(triple_to_family(CorrelationTriple(1.0, 1.0, e13)))
    assert not verdict.feasible and verdict.witness is None


def test_float_witness_off_by_more_than_the_slack_is_a_capacity_error():
    p = JointPMF(("a",), {"a": SIGNS}, {(1,): 0.5, (-1,): 0.5})
    off = JointPMF(("a",), {"a": SIGNS}, {(1,): 0.5 + 1e-8, (-1,): 0.5 - 1e-8})
    with pytest.raises(CapacityError, match="exact rationals"):
        marginals._verify_witness(off, MarginalFamily((p,)))
    exact = JointPMF(("a",), {"a": SIGNS}, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)})
    with pytest.raises(AssertionError):
        marginals._verify_witness(off, MarginalFamily((exact,)))


def test_grid_of_correlation_triples_matches_interval_oracle():
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    for e12, e23, e13 in itertools.product(grid, repeat=3):
        verdict = joint_exists(triple_to_family(CorrelationTriple(e12, e23, e13)))
        assert verdict.feasible == pair_feasible_interval(e12, e23, e13), (
            e12, e23, e13,
        )


def test_float_families_go_through_the_lp_path():
    joint = uniform_joint(("a1", "a2", "a3"))
    pairs = itertools.combinations(joint.observables, 2)
    pmfs = []
    for p in pairs:
        m = marginalize(joint, p)
        pmfs.append(
            JointPMF(m.observables, m.ranges, {t: float(m.prob(t)) for t in m.support()})
        )
    verdict = joint_exists(MarginalFamily(tuple(pmfs)))
    assert verdict.feasible and verdict.method == "lp-highs"
    back = marginalize(verdict.witness, ("a1", "a2"))
    for t in back.support():
        assert back.prob(t) == pytest.approx(0.25, abs=1e-9)


def test_random_joint_marginals_are_always_feasible_and_inside_every_facet():
    rng = random.Random(20240817)
    facets = correlation_facets(3)
    for _ in range(60):
        joint = random_joint3(rng)
        fam = pair_family_of(joint)
        verdict = joint_exists(fam)
        assert verdict.feasible
        e12, e23, e13 = correlations_of_joint(
            {t: joint.prob(t) for t in joint.support()}
        )
        point = (e12, e13, e23)  # facet coordinate order
        for c, bound in facets:
            assert sum(ci * xi for ci, xi in zip(c, point)) <= bound


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_feasibility_decision_equals_oracle_on_random_triples(seed):
    rng = random.Random(seed)
    e = [Fraction(rng.randint(-8, 8), 8) for _ in range(3)]
    verdict = joint_exists(triple_to_family(CorrelationTriple(*e)))
    assert verdict.feasible == pair_feasible_interval(*e)


def test_support_size_capacity_error():
    big = tuple(range(101))
    pmfs = []
    for name in ("a1", "a2", "a3"):
        mass = {(v,): Fraction(1, len(big)) for v in big}
        pmfs.append(JointPMF((name,), {name: big}, mass))
    with pytest.raises(CapacityError, match="joint support"):
        joint_exists(MarginalFamily(tuple(pmfs)))


def test_memory_budget_capacity_error(monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "1024")
    with pytest.raises(CapacityError, match="COLLECTIVA_MAX_MEM"):
        joint_exists(triple_to_family(CorrelationTriple(0, 0, 0)))


def twenty_binary_singletons() -> MarginalFamily:
    half = Fraction(1, 2)
    return MarginalFamily(tuple(JointPMF((o,), {o: (0, 1)}, {(0,): half, (1,): half})
                                for o in (f"s{i:02d}" for i in range(20))))


def test_a_support_past_the_cap_is_refused_before_any_support_sized_array():
    fam = twenty_binary_singletons()
    assert fam.no_signaling[0]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="joint support exceeds 1000000"):
            joint_exists(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # one byte an atom of its 2^20 would be 1 MB


@pytest.mark.parametrize("budget, refused", [(64 * 8, False), (64 * 8 - 1, True)])
def test_the_lp_is_budgeted_at_64_bytes_an_atom(monkeypatch, budget, refused):
    """Three float pairs on 8 atoms: the LP holds no array of pmfs x atoms."""
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(budget))
    fam = triple_to_family(CorrelationTriple(0.0, 0.0, 0.0))
    if refused:
        with pytest.raises(CapacityError, match="joint support exceeds COLLECTIVA_MAX_MEM"):
            joint_exists(fam)
    else:
        assert joint_exists(fam).feasible


def test_the_empty_family_has_the_one_empty_atom():
    verdict = joint_exists(MarginalFamily(()))
    assert verdict.feasible and verdict.method == "lp-certified"
    assert verdict.witness.observables == () and verdict.witness.mass == {(): Fraction(1)}


def test_memory_budget_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "lots")
    with pytest.raises(InputError, match="COLLECTIVA_MAX_MEM"):
        joint_exists(triple_to_family(CorrelationTriple(0, 0, 0)))


# --- certified verdicts ------------------------------------------------------------

def correlation_pair(a: str, b: str, e) -> JointPMF:
    """Two +-1 observables with zero means and correlation e."""
    return JointPMF((a, b), {a: SIGNS, b: SIGNS}, {
        (s, t): (1 + s * t * Fraction(e)) / 4 for s, t in itertools.product(SIGNS, repeat=2)
    })


def assert_certified(verdict, family):
    """An exact verdict: a Fraction witness that reproduces every marginal
    exactly, or a Farkas certificate of positive value."""
    assert verdict.method == "lp-certified"
    if verdict.feasible:
        assert all(type(m) is Fraction for m in verdict.witness.mass.values())
        for p in family.pmfs:
            back = marginalize(verdict.witness, p.observables)
            assert all(back.prob(t) == p.prob(t) for t in p.support())
    else:
        name, value = verdict.violated
        assert name == "farkas" and value > 0


SPOILED_BASES = ("no atom", "first m atoms", "every atom")


@contextlib.contextmanager
def spoil_the_proposal(monkeypatch, value: float, basis: str | None = None):
    """HiGHS still solves, but every entry of its primal and dual comes back
    as `value`: 1 proposes a dual that no Farkas check may accept.  With a
    `basis` of SPOILED_BASES, the final basis handed to the repair simplex is
    that many atoms and no artificial, instead of HiGHS's.  The block must
    reach the spoiled solve at least once.  It yields the list of the LP's row
    counts, one per solve."""
    real, priced, calls = marginals._phase1_lp, marginals._priced_phase1, []

    def spoiled(R, b):
        xa, duals = real(R, b)
        calls.append(len(b))
        return np.full_like(xa, value), np.full_like(duals, value)

    def spoiled_basis(R, b):
        xa, duals, _ = priced(R, b)
        n, m = dense_rows(R).shape[1], len(b)
        atoms = {"no atom": 0, "first m atoms": m, "every atom": n}[basis]
        return xa, duals, np.r_[np.arange(n) < atoms, np.zeros(m, bool)]

    monkeypatch.setattr(marginals, "_phase1_lp", spoiled)
    if basis is not None:
        monkeypatch.setattr(marginals, "_priced_phase1", spoiled_basis)
    yield calls
    assert calls, "the spoiled HiGHS solve never ran"


# COLLECTIVA_FUZZ_EXAMPLES=500 runs the exact-path property test with the CLI fuzz gate
EXACT_PATH_EXAMPLES = int(os.environ.get("COLLECTIVA_FUZZ_EXAMPLES", "60"))
SHIFTS = (Fraction(0), Fraction(1, 10**12), Fraction(-1, 10**12),
          Fraction(1, 10**30), Fraction(-1, 10**30))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_certified_verdicts_match_the_dense_simplex_oracle(data):
    k = data.draw(st.integers(3, 4), label="observables")
    pairs = data.draw(st.lists(st.sampled_from(list(itertools.combinations(range(k), 2))),
                               min_size=1, unique=True), label="pairs")
    es = [Fraction(data.draw(st.integers(-8, 8)), 8) for _ in pairs]
    shift = data.draw(st.sampled_from(SHIFTS), label="shift")
    if abs(es[0] + shift) <= 1:
        es[0] += shift
    fam = MarginalFamily(tuple(correlation_pair(f"a{i}", f"a{j}", e)
                               for (i, j), e in zip(pairs, es)))
    verdict = joint_exists(fam)
    assert verdict.feasible == simplex_feasible(fam)
    assert_certified(verdict, fam)


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_bad_proposals_still_get_exact_verdicts_on_the_triple_grid(monkeypatch, value):
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    with spoil_the_proposal(monkeypatch, value):
        for e in itertools.product(grid, repeat=3):
            fam = triple_to_family(CorrelationTriple(*e))
            verdict = joint_exists(fam)
            assert verdict.feasible == pair_feasible_interval(*e), e
            assert_certified(verdict, fam)


@pytest.mark.parametrize("basis", SPOILED_BASES)
def test_spoiled_bases_still_get_exact_verdicts_on_the_triple_grid(monkeypatch, basis):
    """A start that is not exactly primal feasible is made again from the artificials: the
    simplex runs a second time, on the same atoms.  With no atom it starts there already."""
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    real, starts, restarts = marginals._repair_simplex, [], 0

    def counted(R, b, basic):
        starts.append(basic[dense_rows(R).shape[1]:].all())  # every artificial basic
        return real(R, b, basic)

    with spoil_the_proposal(monkeypatch, 1.0, basis):
        monkeypatch.setattr(marginals, "_repair_simplex", counted)
        for e in itertools.product(grid, repeat=3):
            fam = triple_to_family(CorrelationTriple(*e))
            starts.clear()
            verdict = joint_exists(fam)
            assert verdict.feasible == pair_feasible_interval(*e), e
            assert_certified(verdict, fam)
            assert starts[1:] in ([], [True]) and not starts[0]
            restarts += len(starts) - 1
    assert (restarts > 0) == (basis != "no atom"), restarts


def test_repair_tableau_past_the_memory_budget_is_a_capacity_error(monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "4096")  # room for the LP, not the tableau
    with spoil_the_proposal(monkeypatch, 0.0):
        with pytest.raises(CapacityError, match="repair tableau exceeds COLLECTIVA_MAX_MEM"):
            joint_exists(triple_to_family(CorrelationTriple(0, 0, 0)))


# --- the HiGHS call ------------------------------------------------------------------

@st.composite
def lp_families(draw):
    """No-signaling families that reach the LP, exact or float: the marginals of
    a random joint on small ranges (feasible), or zero-mean +-1 correlation
    pairs (feasible or not)."""
    exact = draw(st.booleans(), label="exact")
    k = draw(st.integers(2, 4), label="observables")
    if draw(st.booleans(), label="pairs"):
        pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(k), 2))),
                              min_size=1, unique=True))
        es = [Fraction(draw(st.integers(-8, 8)), 8) for _ in pairs]
        return MarginalFamily(tuple(correlation_pair(f"a{i}", f"a{j}", e if exact else float(e))
                                    for (i, j), e in zip(pairs, es)))
    names = tuple(f"a{i}" for i in range(k))
    ranges = {o: tuple(range(draw(st.integers(2, 3)))) for o in names}
    atoms = list(itertools.product(*ranges.values()))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(atoms), max_size=len(atoms))
                   .filter(any))
    total = sum(weights)
    joint = JointPMF(names, ranges, {
        t: Fraction(w, total) if exact else w / total for t, w in zip(atoms, weights)})
    subsets = draw(st.lists(st.sampled_from([
        c for r in (1, 2, 3) for c in itertools.combinations(names, r)]), min_size=1, unique=True))
    return MarginalFamily(tuple(marginalize(joint, c) for c in subsets))


@st.composite
def priced_families(draw):
    """Families whose joint support exceeds the LP's rows, so pricing adds atoms: pairs of
    5-8 binary observables, a chain through all of them and a few more, taken from a
    random joint (feasible) or given as +-1 correlations (often infeasible)."""
    exact = draw(st.booleans(), label="exact")
    k = draw(st.integers(5, 8), label="observables")
    names = tuple(f"a{i}" for i in range(k))
    chain = [(i, i + 1) for i in range(k - 1)]
    extra = draw(st.lists(st.sampled_from(
        [p for p in itertools.combinations(range(k), 2) if p not in chain]),
        max_size=(2**k - 2) // 4 - len(chain), unique=True), label="extra pairs")
    pairs = [(names[i], names[j]) for i, j in chain + extra]
    if draw(st.booleans(), label="correlations"):
        es = [Fraction(draw(st.integers(-8, 8)), 8) for _ in pairs]
        return MarginalFamily(tuple(correlation_pair(a, b, e if exact else float(e))
                                    for (a, b), e in zip(pairs, es)))
    atoms = list(itertools.product((0, 1), repeat=k))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms))
                   .filter(any), label="weights")
    total = sum(weights)
    joint = JointPMF(names, {o: (0, 1) for o in names}, {
        t: Fraction(w, total) if exact else w / total for t, w in zip(atoms, weights) if w})
    return MarginalFamily(tuple(marginalize(joint, p) for p in pairs))


@given(st.one_of(lp_families(), priced_families()))
@settings(max_examples=80, deadline=None)
def test_direct_highs_solve_matches_linprog_bit_for_bit(family):
    """Every solve is checked against linprog on the atoms the model holds: the first
    of a model bit for bit, a warm one after atoms were added to the same objective."""
    model, add, lp = marginals._phase1_model, marginals._add_atoms, marginals._phase1_lp
    atoms, solves = [], []

    def model_spy(R, b):
        atoms.clear()
        return model(R, b)

    def add_spy(highs, R, cost=0.0):
        if not cost:  # the artificials are the model's own, not atoms
            atoms.append(R)
        add(highs, R, cost)

    def lp_spy(highs, b):
        solves.append((np.hstack(atoms), atoms[0].shape[1], len(atoms) > 1, b, lp(highs, b)))
        return solves[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marginals, "_phase1_model", model_spy)
        mp.setattr(marginals, "_add_atoms", add_spy)
        mp.setattr(marginals, "_phase1_lp", lp_spy)
        try:
            joint_exists(family)
        except CapacityError:  # a float witness at the boundary; the LP still ran
            pass
    assert solves
    for R, first, warm, b, (xa, duals) in solves:
        want_xa, want_duals = linprog_phase1(R, b)
        if warm:  # columns: the first atoms, the artificials, the added atoms
            assert abs(xa[first:first + len(b)].sum() - want_xa[-len(b):].sum()) <= LP_CHECK_TOL
        else:
            assert xa.tobytes() == want_xa.tobytes()
            assert duals.tobytes() == want_duals.tobytes()


@given(priced_families())
@settings(max_examples=40, deadline=None)
def test_the_priced_optimum_is_the_full_lp_optimum(family):
    real, seen = marginals._priced_phase1, []

    def spy(R, b):
        seen.append((R, b, real(R, b)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marginals, "_priced_phase1", spy)
        verdict = joint_exists(family)
    ((tables, b, (xa, duals, _)),) = seen
    R = dense_rows(tables)
    n, m = R.shape[1], len(b)
    assert n > m
    full_xa, _ = linprog_phase1(R, b)
    assert abs(xa[n:].sum() - full_xa[n:].sum()) <= LP_CHECK_TOL
    price = marginals._row_sums(tables, np.r_[duals, 0.0])
    assert (price <= HIGHS_OPTIONS["dual_feasibility_tolerance"]).all()
    assert verdict.feasible == (full_xa[n:].max() <= marginals.FLOAT_SLACK)
    if family.exact:
        assert_certified(verdict, family)
        if n <= 64:  # the dense oracle takes seconds past six observables
            assert verdict.feasible == simplex_feasible(family)


# --- the row basis of the marginal cells ------------------------------------------------

def lp_of(family):
    """The verdict of joint_exists on the family, and the row tables and b its LP ran on."""
    real, seen = marginals._priced_phase1, []

    def spy(R, b):
        seen.append((R, b))
        return real(R, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marginals, "_priced_phase1", spy)
        verdict = joint_exists(family)
    ((R, b),) = seen
    return verdict, R, b


@st.composite
def basis_families(draw, exact: bool = True):
    """The marginals of a random joint of 2-4 observables with 2-3 values on pairs and
    triples (singles too), sometimes with one index set again in another order, sometimes
    with a pmf whose ranges omit its values of zero mass."""
    k = draw(st.integers(2, 4), label="observables")
    names = tuple(f"a{i}" for i in range(k))
    ranges = {o: tuple(range(draw(st.integers(2, 3)))) for o in names}
    atoms = list(itertools.product(*ranges.values()))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(atoms), max_size=len(atoms))
                   .filter(any), label="weights")
    total = sum(weights)
    joint = JointPMF(names, ranges, {
        t: Fraction(w, total) if exact else w / total for t, w in zip(atoms, weights) if w})
    subsets = draw(st.lists(st.sampled_from([
        c for r in (1, 2, 3) for c in itertools.combinations(names, r)]),
        min_size=1, unique=True), label="index sets")
    if draw(st.booleans(), label="reordered"):
        subsets.append(draw(st.sampled_from(subsets))[::-1])
    pmfs = [marginalize(joint, c) for c in dict.fromkeys(subsets)]
    if draw(st.booleans(), label="sub-ranges"):
        i = draw(st.integers(0, len(pmfs) - 1))
        p = pmfs[i]
        pmfs[i] = JointPMF(p.observables, {o: tuple(sorted({t[n] for t in p.mass}))
                                           for n, o in enumerate(p.observables)}, p.mass)
    return MarginalFamily(tuple(pmfs))


def whole_ranges(family) -> bool:
    return all(p.ranges[o] == family.range_of(o) for p in family.pmfs for o in p.observables)


@given(basis_families())
@settings(max_examples=120, deadline=None)
def test_the_kept_rows_are_a_basis_of_every_cell_row(family):
    _, tables, b = lp_of(family)
    R = dense_rows(tables)
    assert R.dtype == np.int32 and R.shape == (len(family.pmfs) + 1, R.shape[1])
    kept = row_matrix(R, len(b))
    assert rank_mod_p(kept) == len(b)  # independent
    R_all, b_all = all_cell_rows(family)
    every = row_matrix(R_all, len(b_all))
    assert rank_mod_p(np.vstack([kept, every])) == len(b)  # spanning every cell row
    if whole_ranges(family):
        assert len(b) == rank_mod_p(every)


@given(basis_families())
@settings(max_examples=80, deadline=None)
def test_verdicts_on_the_kept_rows_match_the_dense_simplex_oracle(family):
    """Infeasible correlation pairs are checked the same way above."""
    verdict = joint_exists(family)
    assert verdict.feasible == simplex_feasible(family)
    assert_certified(verdict, family)


@given(st.one_of(basis_families(), priced_families().filter(lambda f: f.exact)))
@settings(max_examples=EXACT_PATH_EXAMPLES, deadline=None)
def test_an_exact_witness_is_the_support_solve_on_its_own_atoms(family):
    """The Fraction solve on the witness's atoms gives the witness back, so those atoms
    are independent columns and the witness is a vertex of the LP."""
    real, seen = marginals._repair_simplex, []

    def spy(R, b, basic):
        seen.append((R, b, real(R, b, basic)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marginals, "_repair_simplex", spy)
        verdict = joint_exists(family)
    assert_certified(verdict, family)
    if verdict.feasible:
        R, b, (mass, _) = seen[-1]
        assert support_solve(dense_rows(R), b, sorted(mass)) == mass


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_integer_row_reduction_is_the_fraction_reduction_times_d(data):
    rows = data.draw(st.integers(1, 5), label="rows")
    cols = data.draw(st.integers(1, 6), label="columns")
    A = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows), label="matrix")
    ncols = data.draw(st.integers(0, cols), label="reduced columns")
    T, reference = [row[:] for row in A], [[Fraction(v) for v in row] for row in A]
    pivots, d = marginals._row_reduce(T, ncols)
    assert pivots == fraction_row_reduce(reference, ncols)
    assert all(type(v) is int for row in T for v in row)
    assert all(T[i][c] == d for i, c in enumerate(pivots))
    assert [[Fraction(v, d) for v in row] for row in T] == reference


@given(basis_families(exact=False), st.data())
@settings(max_examples=80, deadline=None)
def test_a_float_family_perturbed_within_the_slack_gets_the_all_cells_verdict(family, data):
    """Dropped rows hold only within FLOAT_SLACK once an overlap is off by that much: the
    verdict is the all-cells LP's, or the one-line capacity error of a witness that misses
    a cell."""
    k = data.draw(st.integers(0, len(family.pmfs) - 1), label="pmf")
    p = family.pmfs[k]
    cells = sorted(p.mass, key=repr)
    delta = data.draw(st.sampled_from([1e-12, 1e-10, marginals.FLOAT_SLACK / 2]))
    if len(cells) > 1:
        up, down = data.draw(st.permutations(cells), label="cells")[:2]
        mass = dict(p.mass)
        delta = min(delta, mass[down])
        mass[up], mass[down] = mass[up] + delta, mass[down] - delta
        family = MarginalFamily(family.pmfs[:k] + (JointPMF(p.observables, p.ranges, mass),)
                                + family.pmfs[k + 1:])
    if not family.no_signaling[0]:
        return
    try:
        verdict = joint_exists(family)
    except CapacityError as exc:
        assert "float witness misses marginal" in str(exc)
        return
    R, b = all_cell_rows(family)
    xa, _ = linprog_phase1(R, np.array(b))
    assert verdict.feasible == (xa[R.shape[1]:].max() <= marginals.FLOAT_SLACK)


def test_all_pairs_of_twelve_binary_observables_have_79_rows():
    """12 singles, 66 pairs and the total mass: the rank of the 265 cell rows."""
    fam = float_pairs_of_twelve(12)
    verdict, tables, b = lp_of(fam)
    R = dense_rows(tables)
    assert verdict.feasible
    assert len(b) == 12 + 66 + 1 and R.dtype == np.int32 and R.shape == (67, 2**12)
    R_all, b_all = all_cell_rows(fam)
    assert len(b_all) == 66 * 4 + 1


def row_tables_of(family) -> tuple[list, np.ndarray]:
    """The row tables and b joint_exists hands its LP, which is not solved."""
    seen = []

    def capture(R, b):
        seen.append((R, b))
        raise CapacityError("captured")

    with pytest.MonkeyPatch.context() as mp, pytest.raises(CapacityError, match="captured"):
        mp.setattr(marginals, "_priced_phase1", capture)
        joint_exists(family)
    return seen[0]


@given(st.one_of(lp_families(), priced_families()), st.data())
@settings(max_examples=EXACT_PATH_EXAMPLES, deadline=None)
def test_the_row_tables_sum_and_place_atoms_as_the_dense_rows_do(family, data):
    """_row_sums adds the tables in R's row order, so float sums are the gathers' bit for
    bit; _rows reads the columns of R."""
    tables, b = row_tables_of(family)
    R, m = dense_rows(tables), len(b)
    floats = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    logs = np.r_[np.log(b, out=np.full(m, -np.inf), where=b > 0), 0.0]
    duals = np.r_[data.draw(st.lists(floats, min_size=m, max_size=m), label="duals"), 0.0]
    for v in (logs, duals):
        assert marginals._row_sums(tables, v).tobytes() == sum(v[row] for row in R).tobytes()
    ints = np.array(data.draw(st.lists(st.integers(-2**70, 2**70), min_size=m, max_size=m),
                              label="integer duals") + [0], dtype=object)
    sums = marginals._row_sums(tables, ints)
    assert sums.dtype == object and sums.tolist() == sum(ints[row] for row in R).tolist()
    atoms = np.array(data.draw(st.lists(st.integers(0, R.shape[1] - 1), max_size=2 * m),
                               label="atoms"), dtype=np.intp)
    rows = marginals._rows(tables, atoms)
    assert rows.dtype == np.int32 and np.array_equal(rows, R[:, atoms])


def test_sixteen_float_observables_price_without_a_support_sized_row_array():
    """All 120 pairs at correlation -1/30 + 1/100: R would be 121 x 2^16 int32 (30 MB)."""
    names, e = [f"x{i:02d}" for i in range(16)], -1 / 30 + 1 / 100
    fam = MarginalFamily(tuple(JointPMF((a, c), {a: SIGNS, c: SIGNS}, {
        (s, t): (1 + s * t * e) / 4 for s, t in itertools.product(SIGNS, repeat=2)})
        for a, c in itertools.combinations(names, 2)))
    assert fam.no_signaling[0]
    tracemalloc.start()
    try:
        assert joint_exists(fam).feasible
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


def float_pairs_of_twelve(seed: int) -> MarginalFamily:
    """All 66 pairs of a float joint on 12 binary observables with 48 random atoms."""
    rng = random.Random(seed)
    names = tuple(f"z{i:02d}" for i in range(12))
    weights: dict = {}
    for _ in range(48):
        t = tuple(rng.randint(0, 1) for _ in names)
        weights[t] = weights.get(t, 0) + rng.randint(1, 40)
    total = sum(weights.values())
    joint = JointPMF(names, {o: (0, 1) for o in names},
                     {t: w / total for t, w in weights.items()})
    return pair_family_of(joint)


def count_the_solves(monkeypatch) -> list:
    """The atoms of the model at each HiGHS solve."""
    real, atoms = marginals._phase1_lp, []

    def counted(highs, b):
        atoms.append(highs.getNumCol() - len(b))
        return real(highs, b)

    monkeypatch.setattr(marginals, "_phase1_lp", counted)
    return atoms


def test_twelve_float_observables_never_hand_highs_the_whole_support(monkeypatch):
    fam = float_pairs_of_twelve(12)
    atoms = count_the_solves(monkeypatch)
    verdict = joint_exists(fam)
    assert verdict.feasible and verdict.method == "lp-highs"
    marginals._verify_witness(verdict.witness, fam)
    assert 1 < len(atoms) and max(atoms) < 2**12


def test_pricing_ends_within_its_round_limit_on_a_spoiled_dual(monkeypatch):
    """Dual 1 prices every atom positive, so each round adds m atoms until all are in."""
    fam = float_pairs_of_twelve(12)
    with spoil_the_proposal(monkeypatch, 1.0) as rows:
        atoms = count_the_solves(monkeypatch)
        joint_exists(fam)
    n, m = 2**12, rows[0]
    assert len(atoms) <= -(-n // m) + 1
    assert atoms[-1] == n


def test_a_misspelled_highs_option_raises(monkeypatch):
    """linprog warned and dropped an unknown option; the direct call refuses it."""
    monkeypatch.setitem(marginals.HIGHS_OPTIONS, "primal_feasibilty_tolerance", 1e-10)
    with pytest.raises(ValueError, match="primal_feasibilty_tolerance"):
        joint_exists(triple_to_family(CorrelationTriple(0, 0, 0)))


def test_missing_highs_bindings_name_the_scipy_that_ships_them(tmp_path):
    with pytest.raises(ImportError, match=r"needs scipy>=1\.15, whose optimize/_highspy/_core"):
        marginals._load_highs(tmp_path)


def uniform_pmf_of_8000_cells() -> MarginalFamily:
    vals = tuple(range(20))
    mass = {t: Fraction(1, 8000) for t in itertools.product(vals, repeat=3)}
    return MarginalFamily((JointPMF(("a", "b", "c"), {o: vals for o in "abc"}, mass),))


def test_one_exact_pmf_of_8000_cells_is_refused_before_the_exact_tableau():
    """Its own joint, but the exact tableau on HiGHS's 8000 basic atoms would hold
    8001 x 16001 cells."""
    fam = uniform_pmf_of_8000_cells()
    start = time.monotonic()
    with pytest.raises(CapacityError, match="exact repair tableau exceeds"):
        joint_exists(fam)
    assert time.monotonic() - start < 5


def test_one_exact_pmf_of_8000_cells_is_refused_before_the_repair_tableau(monkeypatch):
    """A spoiled proposal reaches the repair simplex, whose first tableau would hold
    8001 x 16001 cells: it is refused before any of them is built."""
    fam = uniform_pmf_of_8000_cells()
    start = time.monotonic()
    tracemalloc.start()
    try:
        with spoil_the_proposal(monkeypatch, 0.0), \
                pytest.raises(CapacityError, match="exact repair tableau exceeds"):
            joint_exists(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 5
    assert peak < 16 * 2**20, peak  # the whole first tableau would be about 500 MB


def test_thirteen_observable_chain_is_certified_past_4096_atoms():
    names = [f"a{i:02d}" for i in range(13)]
    fam = MarginalFamily(tuple(correlation_pair(names[i], names[i + 1], Fraction(1, 3))
                               for i in range(12)))
    verdict = joint_exists(fam)
    assert verdict.feasible
    assert_certified(verdict, fam)


def test_anticorrelated_thirteen_cycle_gets_a_farkas_certificate():
    names = [f"a{i:02d}" for i in range(13)]
    fam = MarginalFamily(tuple(correlation_pair(names[i], names[(i + 1) % 13], -1)
                               for i in range(13)))
    verdict = joint_exists(fam)
    assert not verdict.feasible
    assert_certified(verdict, fam)


def test_all_pairs_of_eight_binary_observables_are_decided_within_two_seconds():
    names = tuple(f"x{i}" for i in range(8))
    rng = random.Random(8)
    atoms = list(itertools.product((0, 1), repeat=8))
    raw = [rng.randint(0, 7) for _ in atoms]
    joint = JointPMF(names, {o: (0, 1) for o in names},
                     {t: Fraction(r, sum(raw)) for t, r in zip(atoms, raw) if r})
    anticorrelated = MarginalFamily(tuple(correlation_pair(a, b, Fraction(-1, 2))
                                          for a, b in itertools.combinations(names, 2)))
    for fam, feasible in ((pair_family_of(joint), True), (anticorrelated, False)):
        start = time.monotonic()
        verdict = joint_exists(fam)
        assert time.monotonic() - start < 2
        assert verdict.feasible is feasible
        assert_certified(verdict, fam)


@pytest.mark.parametrize("delta, feasible", [(Fraction(-1, 10**12), False),
                                             (Fraction(1, 10**12), True)])
def test_six_observables_either_side_of_the_balanced_face(delta, feasible):
    """(sum_i s_i)^2 >= 0 gives sum_{i<j} E_ij >= -3 for six +-1 observables;
    every E_ij = -1/5 meets it with equality."""
    names = [f"b{i}" for i in range(6)]
    fam = MarginalFamily(tuple(correlation_pair(a, b, Fraction(-1, 5) + delta)
                               for a, b in itertools.combinations(names, 2)))
    verdict = joint_exists(fam)
    assert verdict.feasible is feasible
    assert_certified(verdict, fam)


# --- consistency conditions ---------------------------------------------------------

def test_marginal_family_of_one_joint_is_consistent():
    joint = uniform_joint(("a1", "a2", "a3"))
    subsets = [
        s
        for k in range(1, 4)
        for s in itertools.permutations(joint.observables, k)
    ]
    fam = MarginalFamily(tuple(marginalize(joint, s) for s in subsets))
    ok, violations = kolmogorov_consistency(fam)
    assert ok and violations == []


def test_swap_asymmetry_is_a_permutation_violation():
    p12 = JointPMF(
        ("a1", "a2"),
        {"a1": SIGNS, "a2": SIGNS},
        {(1, -1): Fraction(3, 4), (-1, 1): Fraction(1, 4)},
    )
    p21 = JointPMF(
        ("a2", "a1"),
        {"a1": SIGNS, "a2": SIGNS},
        {(1, -1): Fraction(3, 4), (-1, 1): Fraction(1, 4)},
    )
    ok, violations = kolmogorov_consistency(MarginalFamily((p12, p21)))
    assert not ok
    kinds = {v[0] for v in violations}
    assert kinds == {"permutation"}
    ((kind, obs_a, obs_b, dev),) = violations
    assert {obs_a, obs_b} == {("a1", "a2"), ("a2", "a1")}
    # p12 puts 3/4 on (a1,a2)=(1,-1) while p21 puts 1/4 there
    assert dev == Fraction(1, 2)


def test_incompatible_projection_is_a_projection_violation():
    p12 = uniform_joint(("a1", "a2"))
    p1 = JointPMF(("a1",), {"a1": SIGNS}, {(1,): Fraction(9, 10), (-1,): Fraction(1, 10)})
    ok, violations = kolmogorov_consistency(MarginalFamily((p12, p1)))
    assert not ok
    ((kind, obs_a, obs_b, dev),) = violations
    assert kind == "projection"
    assert obs_a == ("a1", "a2") and obs_b == ("a1",)
    assert dev == Fraction(2, 5)


def test_consistent_reordered_pair_passes_the_permutation_check():
    joint = JointPMF(
        ("a1", "a2"),
        {"a1": SIGNS, "a2": SIGNS},
        {(1, -1): Fraction(3, 4), (-1, 1): Fraction(1, 4)},
    )
    swapped = marginalize(joint, ("a2", "a1"))
    ok, violations = kolmogorov_consistency(MarginalFamily((joint, swapped)))
    assert ok and violations == []


@st.composite
def overlap_families(draw):
    """Families of 1-3-observable pmfs over four observables with 2-3 values, exact or
    float: some the marginals of one joint, the rest random, so overlaps both agree and
    disagree; some index sets again in another order, some pmfs on part of a range."""
    exact = draw(st.booleans(), label="exact")
    names = ("a", "b", "c", "d")
    ranges = {o: tuple(range(draw(st.integers(2, 3)))) for o in names}

    def weights(cells):
        ws = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
                  .filter(any))
        return {t: Fraction(w, sum(ws)) if exact else w / sum(ws)
                for t, w in zip(cells, ws) if w}

    joint = JointPMF(names, ranges, weights(list(itertools.product(*ranges.values()))))
    subsets = draw(st.lists(st.sampled_from([
        c for r in (1, 2, 3) for c in itertools.permutations(names, r)]),
        min_size=1, max_size=6, unique=True), label="index sets")
    pmfs = []
    for obs in subsets:
        if draw(st.booleans(), label="from the joint"):
            pmfs.append(marginalize(joint, obs))
            continue
        own = {o: ranges[o][:draw(st.integers(1, len(ranges[o])))] for o in obs}
        pmfs.append(JointPMF(obs, own, weights(list(itertools.product(*own.values())))))
    return MarginalFamily(tuple(pmfs))


def shared_ranges(family) -> bool:
    """Do overlapping pmfs hold the same values of every observable they share?"""
    return all(set(p.ranges[o]) == set(q.ranges[o])
               for p, q in itertools.combinations(family.pmfs, 2)
               for o in set(p.observables) & set(q.observables))


# COLLECTIVA_FUZZ_EXAMPLES=500 runs the overlap-pass property test with the CLI fuzz gate
OVERLAP_EXAMPLES = int(os.environ.get("COLLECTIVA_FUZZ_EXAMPLES", "150"))


@given(overlap_families())
@settings(max_examples=OVERLAP_EXAMPLES, deadline=None)
def test_the_overlap_pass_matches_the_pairwise_walks(family):
    """Against the walks over each pmf's own range: the same lists, floats bit for bit, where
    overlapping pmfs share ranges; elsewhere the same pairs, each deviation at least the
    walk's and the max over the family's ranges.  Either pmf order gives each pair's."""
    ns, ko = check_no_signaling(family), kolmogorov_consistency(family)
    ns_walk, ko_walk = pairwise_no_signaling(family), walked_kolmogorov(family)
    if shared_ranges(family):
        assert ns == ns_walk and ko == ko_walk
    assert [v[:3] for v in ns[1]] == [v[:3] for v in ns_walk[1]]
    assert [v[:3] for v in ko[1]] == [v[:3] for v in ko_walk[1]]
    for got, walk in zip(ns[1] + ko[1], ns_walk[1] + ko_walk[1]):
        assert got[3] >= walk[3]
    for a, b, common, dev in ns[1]:
        pa, pb = (marginalize(next(p for p in family.pmfs if p.observables == o), common)
                  for o in (a, b))
        cells = itertools.product(*(family.range_of(o) for o in common))
        assert dev == max(abs(pa.prob(t) - pb.prob(t)) for t in cells)
    by_pair = {frozenset(v[:2]): v[3] for v in ns[1]}
    reversed_ns = check_no_signaling(MarginalFamily(family.pmfs[::-1]))
    assert {frozenset(v[:2]): v[3] for v in reversed_ns[1]} == by_pair


# --- file formats -------------------------------------------------------------------

def test_family_from_csv_rows_round_trip():
    rows = [
        ["a1|a2", "1|1", "1/4"],
        ["a1|a2", "1|-1", "1/4"],
        ["a1|a2", "-1|1", "1/4"],
        ["a1|a2", "-1|-1", "1/4"],
        ["a1", "1", "1/2"],
        ["a1", "-1", "1/2"],
    ]
    fam = family_from_csv_rows(rows)
    assert len(fam.pmfs) == 2
    assert fam.exact
    p12 = next(p for p in fam.pmfs if p.observables == ("a1", "a2"))
    assert p12.prob((1, -1)) == Fraction(1, 4)
    ok, _ = check_no_signaling(fam)
    assert ok


def test_family_csv_rejects_malformed_rows():
    with pytest.raises(InputError, match="3 columns"):
        family_from_csv_rows([["a1", "1"]])
    with pytest.raises(InputError, match="arity"):
        family_from_csv_rows([["a1|a2", "1", "1"]])
    with pytest.raises(InputError, match="cannot parse"):
        family_from_csv_rows([["a1", "1", "one half"], ["a1", "-1", "1/2"]])


def test_family_from_document_and_mass_key_format():
    doc = {
        "pmfs": [
            {
                "observables": ["a1", "a2"],
                "ranges": {"a1": [1, -1], "a2": [1, -1]},
                "mass": {"1|1": "1/2", "-1|-1": "1/2"},
            }
        ]
    }
    fam = family_from_document(doc)
    assert fam.pmfs[0].prob((1, 1)) == Fraction(1, 2)
    assert fam.pmfs[0].prob((1, -1)) == 0
    verdict = joint_exists(fam)
    assert verdict.feasible


def test_family_from_document_rejects_malformed():
    with pytest.raises(InputError, match="malformed"):
        family_from_document({"pmfs": [{"observables": ["a1"]}]})
    with pytest.raises(InputError, match="malformed"):
        family_from_document({})
