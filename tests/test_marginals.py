"""Marginal families: no-signaling agreement, joint feasibility with
witnesses, the generated correlation-polytope facets, and finite
consistency conditions."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva import marginals
from collectiva.errors import CapacityError, InputError
from collectiva.marginals import (
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
    correlations_of_joint,
    pair_feasible_interval,
    simplex_feasible,
    tetrahedron_facets,
    triangle_facets_4,
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


def spoil_the_proposal(monkeypatch, value: float):
    """HiGHS still solves, but every entry of its primal and dual comes back
    as `value`: 0 leaves the repair simplex no atoms to start from, and 1
    proposes every atom and a dual that no Farkas check may accept."""
    import scipy.optimize

    real = scipy.optimize.linprog

    def spoiled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x[:] = value
        res.eqlin.marginals[:] = value
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", spoiled)


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
    spoil_the_proposal(monkeypatch, value)
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    for e in itertools.product(grid, repeat=3):
        fam = triple_to_family(CorrelationTriple(*e))
        verdict = joint_exists(fam)
        assert verdict.feasible == pair_feasible_interval(*e), e
        assert_certified(verdict, fam)


def test_repair_tableau_past_the_memory_budget_is_a_capacity_error(monkeypatch):
    spoil_the_proposal(monkeypatch, 0.0)
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "4096")  # room for the LP, not the tableau
    with pytest.raises(CapacityError, match="repair tableau exceeds COLLECTIVA_MAX_MEM"):
        joint_exists(triple_to_family(CorrelationTriple(0, 0, 0)))


def test_one_exact_pmf_of_8000_cells_is_refused_before_the_support_solve():
    """Its own joint, but the exact support solve would hold 8001 x 8001 cells."""
    vals = tuple(range(20))
    pmf = JointPMF(("a", "b", "c"), {o: vals for o in "abc"},
                   {t: Fraction(1, 8000) for t in itertools.product(vals, repeat=3)})
    start = time.monotonic()
    with pytest.raises(CapacityError, match="exact support solve exceeds"):
        joint_exists(MarginalFamily((pmf,)))
    assert time.monotonic() - start < 5


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
