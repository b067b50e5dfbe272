"""Signed finite probability spaces: diagnostics, Jordan split, Bayes
quotients beyond [0,1], exact convolution of mean laws, and the
weak-but-not-strong convergence behaviour."""

import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva.cli import _negativity_scan
from collectiva.errors import CapacityError, InputError, NullConditioningError
from collectiva.signed_prob import (
    BUNDLED_SPACES,
    BUNDLED_VARIABLES,
    NEGATIVITY_BYTES_PER_SUM,
    POLY_TEST_FUNCTIONS,
    Polynomial,
    SignedProbabilitySpace,
    complement_excess,
    conditional_signed,
    expectation_signed,
    independent_signed,
    jordan,
    law_of,
    load_space,
    mean_law_table,
    negative_event_count,
    product_space,
    space_from_document,
    sum_distribution,
    validate,
    weak_lln_check,
)

from _oracles import (
    TWO_POINT,
    binomial_mean_mass,
    convolution_mean_law,
    mean_square_expectation,
    subset_scan,
)

THREE = BUNDLED_SPACES["three-atom"]
TWO = BUNDLED_SPACES["two-point"]
SIXTEEN = BUNDLED_SPACES["sixteen-atom"]


def fair_coin() -> SignedProbabilitySpace:
    return SignedProbabilitySpace(("h", "t"), {"h": Fraction(1, 2), "t": Fraction(1, 2)})


def signed_spaces(draw_weights):
    """Hypothesis helper: a normalized signed space over 2..5 atoms."""
    k = len(draw_weights) + 1
    atoms = tuple(f"u{i}" for i in range(k))
    w = {f"u{i}": Fraction(v, 8) for i, v in enumerate(draw_weights)}
    w[f"u{k - 1}"] = 1 - sum(w.values())
    return SignedProbabilitySpace(atoms, w)


# --- validation and diagnostics -------------------------------------------------------

def test_three_atom_diagnostics():
    d = validate(THREE)
    assert d.total == 1
    assert d.negative_atoms == ("w1",)
    assert d.total_variation == 2


def test_ordinary_space_has_no_negative_atoms():
    d = validate(fair_coin())
    assert d.negative_atoms == ()
    assert d.total_variation == 1


def test_sixteen_atom_diagnostics():
    d = validate(SIXTEEN)
    assert len(d.negative_atoms) == 8
    assert d.total_variation == 5


def test_unnormalized_space_is_rejected():
    bad = SignedProbabilitySpace(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(3, 5)})
    with pytest.raises(InputError, match="sum to"):
        validate(bad)


def test_space_construction_errors():
    with pytest.raises(InputError, match="at least one atom"):
        SignedProbabilitySpace((), {})
    with pytest.raises(InputError, match="distinct"):
        SignedProbabilitySpace(("a", "a"), {"a": 1})
    with pytest.raises(InputError, match="cover"):
        SignedProbabilitySpace(("a", "b"), {"a": Fraction(1)})
    with pytest.raises(InputError, match="unknown atom"):
        THREE.prob({"w9"})


def test_every_bundled_space_validates():
    for name, space in BUNDLED_SPACES.items():
        d = validate(space)
        assert d.total == 1, name


# --- Jordan decomposition --------------------------------------------------------------

@pytest.mark.parametrize("space", list(BUNDLED_SPACES.values()) + [fair_coin()])
def test_jordan_reconstruction_is_exact(space):
    jd = jordan(space)
    assert set(jd.positive) & set(jd.negative) == set()
    for atom in space.atoms:
        w = jd.positive.get(atom, Fraction(0)) - jd.negative.get(atom, Fraction(0))
        assert w == space.weight[atom]
    assert all(v > 0 for v in jd.positive.values())
    assert all(v > 0 for v in jd.negative.values())


# --- complement law ---------------------------------------------------------------------

def test_negative_event_forces_excess_complement():
    assert complement_excess(THREE, {"w1"}) == (Fraction(-1, 2), Fraction(3, 2))


def test_whole_space_complement():
    assert complement_excess(THREE, set(THREE.atoms)) == (Fraction(1), Fraction(0))


@pytest.mark.parametrize("name", ["three-atom", "two-point", "sixteen-atom"])
def test_negative_support_event_exceeds_one_on_complement(name):
    space = BUNDLED_SPACES[name]
    neg_support = set(jordan(space).negative)
    assert neg_support
    pa, pc = complement_excess(space, neg_support)
    assert pa < 0 and pc > 1
    assert pa + pc == 1


def test_complement_law_exhaustive_on_small_spaces():
    for space in (THREE, TWO, fair_coin()):
        atoms = list(space.atoms)
        for mask in range(2 ** len(atoms)):
            subset = {a for i, a in enumerate(atoms) if mask >> i & 1}
            pa, pc = complement_excess(space, subset)
            assert pa + pc == 1


# --- conditioning ------------------------------------------------------------------------

def test_conditioning_on_everything_is_the_plain_probability():
    assert conditional_signed(THREE, {"w2"}, set(THREE.atoms)) == THREE.prob({"w2"})


def test_bayes_quotient_can_exceed_one():
    assert conditional_signed(THREE, {"w2"}, {"w1", "w2"}) == 3


def test_conditional_of_disjoint_event_is_zero():
    assert conditional_signed(THREE, {"w3"}, {"w1", "w2"}) == 0


def test_conditionals_sum_to_one_over_a_partition_of_the_condition():
    c = {"w1", "w2"}
    parts = [{"w1"}, {"w2"}]
    assert sum(conditional_signed(THREE, b, c) for b in parts) == 1


def test_conditioning_on_negative_mass_is_allowed():
    assert conditional_signed(THREE, {"w1"}, {"w1"}) == 1


def test_conditioning_on_zero_mass_is_an_error():
    space = SignedProbabilitySpace(
        ("a", "b", "c"), {"a": Fraction(-1, 2), "b": Fraction(1, 2), "c": Fraction(1)}
    )
    with pytest.raises(NullConditioningError, match="signed mass 0"):
        conditional_signed(space, {"a"}, {"a", "b"})


# --- expectation --------------------------------------------------------------------------

def test_constant_variable_has_its_value_as_mean():
    a = {atom: Fraction(7, 2) for atom in THREE.atoms}
    assert expectation_signed(THREE, a) == Fraction(7, 2)


def test_three_atom_expectation_example():
    assert expectation_signed(THREE, BUNDLED_VARIABLES["three-atom"]) == Fraction(9, 4)


def test_indicator_expectation_is_the_probability():
    for subset in ({"w1"}, {"w2", "w3"}, set()):
        ind = {atom: 1 if atom in subset else 0 for atom in THREE.atoms}
        assert expectation_signed(THREE, ind) == THREE.prob(subset)


def test_expectation_is_linear():
    a = BUNDLED_VARIABLES["three-atom"]
    b = {"w1": 5, "w2": -2, "w3": 7}
    combo = {atom: 3 * a[atom] + 2 * b[atom] for atom in THREE.atoms}
    assert expectation_signed(THREE, combo) == 3 * expectation_signed(
        THREE, a
    ) + 2 * expectation_signed(THREE, b)


def test_expectation_requires_total_variable():
    with pytest.raises(InputError, match="every atom"):
        expectation_signed(THREE, {"w1": 1})


# --- independence and products --------------------------------------------------------------

def test_whole_space_is_independent_of_everything():
    for b in ({"w1"}, {"w2", "w3"}, set()):
        assert independent_signed(THREE, set(THREE.atoms), b)


def test_cylinders_of_a_product_are_independent():
    prod = product_space(THREE, TWO)
    assert validate(prod).total == 1
    cyl_a = {(x, y) for (x, y) in prod.atoms if x == "w2"}
    cyl_b = {(x, y) for (x, y) in prod.atoms if y == "a1"}
    assert independent_signed(prod, cyl_a, cyl_b)
    assert prod.prob(cyl_a & cyl_b) == THREE.prob({"w2"}) * TWO.prob({"a1"})


def test_generic_pair_is_dependent():
    assert not independent_signed(THREE, {"w1"}, {"w2"})


# --- laws and convolution --------------------------------------------------------------------

def test_law_of_groups_preimages():
    law = law_of(SIXTEEN, BUNDLED_VARIABLES["sixteen-atom"])
    assert law == {2: Fraction(3, 2), 3: Fraction(-1), 4: Fraction(3, 2), 5: Fraction(-1)}
    assert sum(law.values()) == 1


def test_mean_law_at_n_equal_one_is_the_law_itself():
    dist = sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], 1)
    assert dist.mass == TWO_POINT
    assert dist.total() == 1


def test_fair_coin_mean_law_at_two():
    space = fair_coin()
    a = {"h": 1, "t": -1}
    dist = sum_distribution(space, a, 2)
    assert dist.mass == {
        Fraction(-1): Fraction(1, 4),
        Fraction(0): Fraction(1, 2),
        Fraction(1): Fraction(1, 4),
    }


def test_signed_two_point_mean_law_at_two():
    dist = sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], 2)
    assert dist.mass == {
        Fraction(0): Fraction(1, 4),
        Fraction(1, 2): Fraction(-3, 2),
        Fraction(1): Fraction(9, 4),
    }
    assert dist.total() == 1


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_two_point_mean_law_matches_the_binomial_oracle(n):
    dist = sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], n)
    assert dist.mass == binomial_mean_mass(n)


def test_total_signed_mass_is_one_at_every_n():
    for name in BUNDLED_SPACES:
        space, var = BUNDLED_SPACES[name], BUNDLED_VARIABLES[name]
        for n in (1, 2, 4, 16, 64):
            assert sum_distribution(space, var, n).total() == 1


# values with gaps between them, so the lattice positions do not fill their range
GAPPED_VALUES = (0, 3, 7, -2, 12, Fraction(1, 2), Fraction(7, 3), Fraction(-5, 4))


@st.composite
def gapped_exact_laws(draw):
    """A normalized exact space of 2..5 atoms with signed rational weights,
    an int/Fraction variable drawn from a gapped pool, and N <= 12."""
    k = draw(st.integers(2, 5))
    den = draw(st.sampled_from([1, 2, 3, 4, 8]))
    nums = draw(st.lists(st.integers(-6, 6), min_size=k - 1, max_size=k - 1))
    atoms = tuple(f"u{i}" for i in range(k))
    w = {a: Fraction(v, den) for a, v in zip(atoms, nums)}
    w[atoms[-1]] = 1 - sum(w.values())
    var = {a: draw(st.sampled_from(GAPPED_VALUES)) for a in atoms}
    ns = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    return SignedProbabilitySpace(atoms, w), var, ns


@settings(max_examples=150, deadline=None)
@given(gapped_exact_laws())
def test_mean_law_power_matches_the_convolution_oracle(case):
    space, var, ns = case
    laws = mean_law_table(space, var, ns)
    for n in ns:
        assert laws[n].mass == convolution_mean_law(space, var, n)


def test_values_far_apart_on_their_lattice():
    """Values {0, 1, 10**6}: the lattice range at N = 64 has 64 * 10**6 + 1
    points but the law only C(66, 2) = 2145, so it is swept sparsely."""
    space = THREE
    var = {"w1": 0, "w2": 1, "w3": 10**6}
    laws = mean_law_table(space, var, [1, 2, 3, 5, 64])
    for n in (1, 2, 3, 5):
        assert laws[n].mass == convolution_mean_law(space, var, n)
    assert len(laws[64].mass) == math.comb(66, 2)
    m = expectation_signed(space, var)
    ex2 = expectation_signed(space, {a: v * v for a, v in var.items()})
    assert laws[64].expect(lambda x: x * x) == m * m + (ex2 - m * m) / 64


def test_float_values_with_long_decimals():
    """0.3333333333333333 is 3333333333333333 / 10**16 exactly, which puts
    the values 5 * 10**15 lattice steps apart; the law stays small."""
    space = SignedProbabilitySpace(("a", "b", "c"), {"a": -0.5, "b": 0.75, "c": 0.75})
    var = {"a": 0, "b": 0.5, "c": 0.3333333333333333}
    dist = sum_distribution(space, var, 8)
    assert len(dist.mass) <= math.comb(10, 2)
    assert all(type(v) is Fraction and type(m) is Fraction for v, m in dist.mass.items())
    assert dist.total() == pytest.approx(1.0, abs=1e-12)
    m = expectation_signed(space, var)
    ex2 = expectation_signed(space, {a: v * v for a, v in var.items()})
    assert dist.expect(lambda x: x) == pytest.approx(m, abs=1e-12)
    assert dist.expect(lambda x: x * x) == pytest.approx(m * m + (ex2 - m * m) / 8, abs=1e-12)


def test_float_masses_beyond_the_float_range_hit_the_capacity_limit():
    """Float weights 2^52 and 1 - 2^52 (both exact): the mass at mean 0 is
    2^(52 N), kept exact at every N; rounded to a float it is one up to
    N = 19 and past the float range from N = 20."""
    space = SignedProbabilitySpace(("a", "b"), {"a": 2.0**52, "b": 1 - 2.0**52})
    var = {"a": 0, "b": 1}
    laws = mean_law_table(space, var, [16, 32])
    assert laws[32].mass[0] == 2 ** (52 * 32)
    assert laws[32].total() == 1.0

    def at_zero(x):
        return 1 if x == 0 else 0

    assert laws[16].expect(at_zero) == 2.0 ** (52 * 16)
    with pytest.raises(CapacityError, match="float range"):
        laws[32].expect(at_zero)


def test_float_law_expectations_round_once():
    """Weights (-1/2, 3/4, 3/4) on values (0, 0.5, 0.3333333333333333): at
    N = 256 the masses reach about 2^256 in size, so summed in floats
    E (mean)^2 lost every digit; summed exactly and rounded once it is the
    moment row, about 0.390."""
    space = SignedProbabilitySpace(("a", "b", "c"), {"a": -0.5, "b": 0.75, "c": 0.75})
    var = {"a": 0, "b": 0.5, "c": 0.3333333333333333}
    sq = Polynomial((0, 0, 1))
    dist = sum_distribution(space, var, 256)
    [(_, ef, _)] = weak_lln_check(space, var, sq, [256])
    assert dist.expect(sq) == ef == pytest.approx(0.390157, abs=1e-6)
    assert dist.total() == 1.0


def test_cancelled_mass_keeps_its_mean():
    """Values 0 and 2 with weights 1/2 each and an atom at 1 of weight 0:
    at N = 1 the mean 1 has mass 0 but is attainable, so it stays a key."""
    space = SignedProbabilitySpace(
        ("a", "b", "c"), {"a": Fraction(1, 2), "b": Fraction(0), "c": Fraction(1, 2)}
    )
    var = {"a": 0, "b": 1, "c": 2}
    dist = sum_distribution(space, var, 1)
    assert dist.mass == {0: Fraction(1, 2), 1: 0, 2: Fraction(1, 2)}
    assert dist.mass == convolution_mean_law(space, var, 1)


def test_packed_slots_hold_the_largest_coefficient():
    """Integer weights 128 and -127: at N = 1 the coefficient 128 needs all
    8 bits of (sum |c|)^N = 255^N plus the sign bit."""
    space = SignedProbabilitySpace(("a", "b"), {"a": 128, "b": -127})
    var = {"a": 0, "b": 1}
    for n, dist in mean_law_table(space, var, [1, 2, 3, 8]).items():
        assert dist.mass == convolution_mean_law(space, var, n)
        assert dist.mass[0] == 128**n


def test_float_inputs_give_the_exact_law_of_their_shortest_decimals():
    """0.1 is 1/10 here, not its binary expansion; the law is exact and only
    its expectations are rounded."""
    space = SignedProbabilitySpace(("a", "b", "c"), {"a": -0.5, "b": 0.75, "c": 0.75})
    var = {"a": 0.1, "b": 0.2, "c": 0.7}
    exact = SignedProbabilitySpace(
        space.atoms, {"a": Fraction(-1, 2), "b": Fraction(3, 4), "c": Fraction(3, 4)}
    )
    exact_var = {"a": Fraction(1, 10), "b": Fraction(2, 10), "c": Fraction(7, 10)}
    dist = sum_distribution(space, var, 5)
    assert dist.mass == convolution_mean_law(exact, exact_var, 5)
    assert not dist.exact and sum_distribution(exact, exact_var, 5).exact
    ex = sum_distribution(exact, exact_var, 5).expect(lambda x: x * x)
    assert dist.expect(lambda x: x * x) == float(ex)


def test_two_point_mean_law_at_1024_matches_the_binomial_oracle():
    start = time.monotonic()
    dist = sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], 1024)
    assert dist.mass == binomial_mean_mass(1024)
    assert time.monotonic() - start < 5.0


def test_a_law_past_the_byte_budget_is_refused_before_the_sweep():
    """two-point at N = 10**5: 100001 points of up to 37501 bytes each."""
    start = time.monotonic()
    with pytest.raises(CapacityError, match="support exceeded"):
        mean_law_table(TWO, BUNDLED_VARIABLES["two-point"], [100000])
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("name, var, n", [
    ("two-point", BUNDLED_VARIABLES["two-point"], 256),
    ("sixteen-atom", BUNDLED_VARIABLES["sixteen-atom"], 64),
    ("three-atom", {"w1": 0, "w2": 1, "w3": 10**6}, 64),
])
def test_law_byte_estimate_covers_the_measured_peak(monkeypatch, name, var, n):
    """A budget below what tracemalloc sees a law take is refused up front."""
    space = BUNDLED_SPACES[name]
    tracemalloc.start()
    try:
        mean_law_table(space, var, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(peak - 1))
    with pytest.raises(CapacityError, match="bytes, over the budget"):
        mean_law_table(space, var, [n])


# --- negativity: Hahn set and event count -------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=11))
def test_hahn_set_and_negative_event_count_match_the_full_scan(nums):
    """k <= 12 atoms; zero weights exercise the tie between an event and its
    union with null atoms."""
    space = signed_spaces(nums)
    worst, argmin, count = _negativity_scan(space, validate(space).negative_atoms)
    assert (worst, argmin, count) == subset_scan(space)
    assert negative_event_count(space) == count


def test_negative_event_count_beyond_the_full_scan():
    """20 atoms, ten of weight -1/10 and ten of 2/10: an event with i
    negative and j positive atoms is negative iff i > 2j."""
    atoms = tuple(f"n{i}" for i in range(10)) + tuple(f"p{i}" for i in range(10))
    w = {a: Fraction(-1, 10) if a[0] == "n" else Fraction(2, 10) for a in atoms}
    expected = sum(
        math.comb(10, i) * math.comb(10, j)
        for i in range(11)
        for j in range(11)
        if i > 2 * j
    )
    assert negative_event_count(SignedProbabilitySpace(atoms, w)) == expected


def _alternating_space(k: int, den: int) -> SignedProbabilitySpace:
    atoms = tuple(f"a{i}" for i in range(k))
    w = {a: Fraction((-1) ** i * (i + 1), den) for i, a in enumerate(atoms)}
    w[atoms[-1]] += 1 - sum(w.values())
    return SignedProbabilitySpace(atoms, w)


@pytest.mark.parametrize("k, den", [(12, 1), (16, 8), (20, 10**20), (24, 10**40)])
def test_negativity_byte_estimate_covers_the_measured_peak(monkeypatch, k, den):
    """The bytes the count declares for its subset sums are at least what
    tracemalloc sees it allocate: a budget below that peak is refused."""
    space = _alternating_space(k, den)
    tracemalloc.start()
    try:
        negative_event_count(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(peak - 1))
    with pytest.raises(CapacityError, match="subset sums"):
        negative_event_count(space)


def test_negative_event_count_checks_the_memory_budget(monkeypatch):
    """Sixteen atoms: 2 * 2^8 subset sums of 64 bytes, 32 KB."""
    need = 2 * 2**8 * NEGATIVITY_BYTES_PER_SUM
    count = negative_event_count(SIXTEEN)
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(need - 1))
    with pytest.raises(CapacityError, match="512 subset sums"):
        negative_event_count(SIXTEEN)
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(need))
    assert negative_event_count(SIXTEEN) == count


def test_convolution_capacity_cap(monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "2048")  # cap: 16 support points
    atoms = tuple(f"g{i}" for i in range(17))
    space = SignedProbabilitySpace(atoms, {a: Fraction(1, 17) for a in atoms})
    var = {a: 2**i for i, a in enumerate(atoms)}
    with pytest.raises(CapacityError, match="support exceeded"):
        sum_distribution(space, var, 2)


def test_convolution_env_validation(monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", "plenty")
    with pytest.raises(InputError, match="COLLECTIVA_MAX_MEM"):
        sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], 2)


def test_convolution_needs_positive_n():
    with pytest.raises(InputError):
        sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], 0)


# --- weak convergence, strong failure ---------------------------------------------------------

def test_linear_test_function_is_exact_at_every_n():
    rows = weak_lln_check(fair_coin(), {"h": 1, "t": -1}, Polynomial((0, 1)), [1, 2, 4, 8])
    assert all(err == 0 for _, _, err in rows)


def test_square_error_decays_like_one_over_n():
    rows = weak_lln_check(
        TWO, BUNDLED_VARIABLES["two-point"], Polynomial((0, 0, 1)), [1, 2, 4, 64, 256]
    )
    for n, ef, err in rows:
        assert ef == mean_square_expectation(n)
        assert err == Fraction(3, 4) / n
    assert rows[-1][2] == Fraction(3, 4, ) / 256


def test_weak_error_is_nonincreasing_for_all_shipped_polynomials():
    schedule = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    quartic = ("x^4 (not shipped)", lambda x: (x * x) * (x * x))
    for name in BUNDLED_SPACES:
        space, var = BUNDLED_SPACES[name], BUNDLED_VARIABLES[name]
        laws = mean_law_table(space, var, schedule)
        m = expectation_signed(space, var)
        for fname, f in list(POLY_TEST_FUNCTIONS) + [quartic]:
            errs = [abs(laws[n].expect(f) - f(m)) for n in schedule]
            assert all(b <= a for a, b in zip(errs, errs[1:])), (name, fname)
            if (fname, f) == quartic:
                # the quartic decays too (<= 1/64 here) but on this law
                # family it cannot promise the shipped functions' 1% mark
                assert errs[-1] <= Fraction(1, 64) * errs[0], (name, fname)
            else:
                assert errs[-1] <= Fraction(1, 100) * errs[0] or errs[0] == 0, (
                    name,
                    fname,
                )


def test_polynomials_evaluate_by_horner():
    sq = dict(POLY_TEST_FUNCTIONS)["x^2"]
    assert sq(Fraction(3, 2)) == Fraction(9, 4)
    for x in (0.1, 1 / 3, -2.5e150):
        assert sq(x) == x * x
        assert dict(POLY_TEST_FUNCTIONS)["x^3"](x) == x * x * x
    assert Polynomial((1, -2, 3))(2) == 9
    assert Polynomial([5]).coeffs == (5,)
    with pytest.raises(InputError):
        Polynomial(())


@st.composite
def polynomials(draw):
    """Integer polynomials of degree <= 4."""
    return Polynomial(tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))))


@settings(max_examples=150, deadline=None)
@given(gapped_exact_laws(), polynomials())
def test_weak_law_rows_equal_the_mean_law_expectations(case, f):
    space, var, ns = case
    laws = mean_law_table(space, var, ns)
    fm = f(expectation_signed(space, var))
    rows = weak_lln_check(space, var, f, ns)
    assert rows == [(n, laws[n].expect(f), abs(laws[n].expect(f) - fm)) for n in ns]


# dyadic values with gaps: as floats they are the same numbers
DYADIC_VALUES = (0, 3, 7, -2, 12, Fraction(1, 2), Fraction(-5, 4), Fraction(9, 8))


@st.composite
def dyadic_float_laws(draw):
    """A gapped law with dyadic weights and values, given exactly and as floats."""
    k = draw(st.integers(2, 5))
    den = draw(st.sampled_from([1, 2, 4, 8]))
    nums = draw(st.lists(st.integers(-6, 6), min_size=k - 1, max_size=k - 1))
    atoms = tuple(f"u{i}" for i in range(k))
    w = {a: Fraction(v, den) for a, v in zip(atoms, nums)}
    w[atoms[-1]] = 1 - sum(w.values())
    var = {a: draw(st.sampled_from(DYADIC_VALUES)) for a in atoms}
    ns = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    floats = SignedProbabilitySpace(atoms, {a: float(v) for a, v in w.items()})
    return SignedProbabilitySpace(atoms, w), var, floats, {a: float(v) for a, v in var.items()}, ns


@settings(max_examples=100, deadline=None)
@given(dyadic_float_laws(), polynomials())
def test_float_weak_law_rows_are_the_exact_rows_rounded_once(case, f):
    """The float law's expectations are its exact sums rounded once, so
    they equal the float rows."""
    space, var, fspace, fvar, ns = case
    rows = weak_lln_check(fspace, fvar, f, ns)
    exact_rows = weak_lln_check(space, var, f, ns)
    assert rows == [(n, float(ef), float(gap)) for n, ef, gap in exact_rows]
    laws = mean_law_table(fspace, fvar, ns)
    for n, ef, _ in rows:
        assert laws[n].expect(f) == ef


def test_weak_law_rows_at_huge_n_are_exact():
    """E (mean_N)^2 = m^2 + (mu_2 - m^2) / N at N up to 2^40, without a law."""
    m, mu2 = Fraction(3, 2), Fraction(3, 2)
    schedule = [2**i for i in range(41)]
    start = time.monotonic()
    rows = weak_lln_check(TWO, BUNDLED_VARIABLES["two-point"], Polynomial((0, 0, 1)), schedule)
    assert time.monotonic() - start < 1.0
    assert rows == [(n, m * m + (mu2 - m * m) / n, abs(mu2 - m * m) / n) for n in schedule]


def test_weak_law_input_checks():
    var, sq = BUNDLED_VARIABLES["two-point"], Polynomial((0, 0, 1))
    with pytest.raises(InputError, match="at least one N"):
        weak_lln_check(TWO, var, sq, [])
    with pytest.raises(InputError, match=">= 1"):
        weak_lln_check(TWO, var, sq, [4, 0])
    with pytest.raises(InputError, match="every atom"):
        weak_lln_check(TWO, {"a0": 0}, sq, [1])
    with pytest.raises(TypeError, match="Polynomial"):
        weak_lln_check(TWO, var, lambda x: x * x, [1])
    lopsided = SignedProbabilitySpace(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 3)})
    with pytest.raises(InputError, match="not 1"):
        weak_lln_check(lopsided, {"a": 0, "b": 1}, sq, [1])


def test_weak_law_rows_beyond_the_float_range_are_a_capacity_error():
    var = {"w1": 0, "w2": 1e200, "w3": 2e200}
    with pytest.raises(CapacityError, match="float range"):
        weak_lln_check(THREE, var, Polynomial((0, 0, 1)), [1, 2])
    rows = weak_lln_check(THREE, var, Polynomial((0, 1)), [1, 2])
    assert rows == [(1, 2.25e200, 0.0), (2, 2.25e200, 0.0)]


def test_quartic_misses_the_one_percent_margin_on_the_two_point_law():
    rows = weak_lln_check(
        TWO, BUNDLED_VARIABLES["two-point"], Polynomial((0, 0, 0, 0, 1)), [1, 256]
    )
    assert rows[1][2] > Fraction(1, 100) * rows[0][2]


def test_strong_law_fails_for_the_signed_mean():
    """The signed mean m lies outside the attainable range of the empirical
    mean, so the mass near m stays 0 — no almost-everywhere convergence."""
    m = expectation_signed(TWO, BUNDLED_VARIABLES["two-point"])
    assert m == Fraction(3, 2)
    for n in (1, 4, 16, 32):
        dist = sum_distribution(TWO, BUNDLED_VARIABLES["two-point"], n)
        near = sum(mass for v, mass in dist.mass.items() if abs(v - m) <= Fraction(1, 4))
        assert near == 0


# --- documents ---------------------------------------------------------------------------------

def test_space_document_round_trip(tmp_path):
    doc = {
        "weights": {"w1": "-1/2", "w2": "3/4", "w3": "3/4"},
        "variable": {"w1": 0, "w2": 1, "w3": 2},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    space, var = load_space(path)
    assert space.weight == THREE.weight
    assert var == BUNDLED_VARIABLES["three-atom"]
    assert space.exact


def test_space_document_accepts_plain_numbers():
    space, var = space_from_document({"weights": {"a": 0.25, "b": 0.75}})
    assert var is None
    assert space.prob({"b"}) == 0.75


def test_space_document_accepts_rational_string_values():
    space, var = space_from_document({
        "weights": {"w1": "-1/2", "w2": "3/4", "w3": "3/4"},
        "variable": {"w1": "0", "w2": "1/3", "w3": "2/3"},
    })
    assert var == {"w1": 0, "w2": Fraction(1, 3), "w3": Fraction(2, 3)}
    assert expectation_signed(space, var) == Fraction(3, 4)
    assert sum_distribution(space, var, 2).total() == 1


@pytest.mark.parametrize("doc", [
    {"weights": {"a": "1/2", "b": "1/2"}, "variable": {"a": "x", "b": 1}},
    {"weights": {"a": "1/2", "b": "1/2"}, "variable": {"a": [1], "b": 1}},
    {"weights": {"a": "1/2", "b": "1/2"}, "variable": {"a": None, "b": 1}},
    {"weights": {"a": "1/2", "b": "1/2"}, "variable": {"a": True, "b": 1}},
    {"weights": {"a": True, "b": False}},
    {"weights": {"a": {"p": 1}, "b": 0}},
    {"weights": ["a", "b"]},
])
def test_space_documents_with_non_numbers_are_rejected(doc):
    with pytest.raises(InputError, match="malformed"):
        space_from_document(doc)


def test_malformed_space_documents():
    with pytest.raises(InputError, match="malformed"):
        space_from_document({})
    with pytest.raises(InputError, match="malformed"):
        space_from_document({"weights": {"a": "1/0"}})
    with pytest.raises(InputError, match="malformed"):
        space_from_document(
            {"weights": {"a": "1/2", "b": "1/2"}, "variable": {"a": 1}}
        )
