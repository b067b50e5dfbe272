"""Event algebras, measurability, conditioning, and the exact
total-probability identity on finite spaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva.errors import (
    CapacityError,
    InputError,
    NotMeasurableError,
    NullConditioningError,
)
from collectiva.finite_prob import (
    Event,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    SampleSpace,
    build_algebra,
    conditional,
    conditional_space,
    distribution,
    expectation,
    independent,
    is_measurable,
    partition_from_rv,
    probability,
    space_from_document,
    space_to_document,
    total_probability,
)

from _oracles import closure_fixpoint


# --- shared example spaces -------------------------------------------------------

def hidden_pair_space() -> FiniteProbabilitySpace:
    """Three atoms where the first two are never separated by the algebra:
    events are {}, {w1,w2}, {w3}, and the full space, each half weighted."""
    space = SampleSpace(("w1", "w2", "w3"))
    alg = build_algebra(space, [Event.from_atoms(space, ("w1", "w2"))])
    return FiniteProbabilitySpace.from_block_weights(
        alg, {0b011: Fraction(1, 2), 0b100: Fraction(1, 2)}
    )


def two_coin_space() -> FiniteProbabilitySpace:
    space = SampleSpace(("HH", "HT", "TH", "TT"))
    return FiniteProbabilitySpace.uniform(space)


# --- algebra construction ----------------------------------------------------------

def test_generated_algebra_of_an_unsplittable_pair():
    ps = hidden_pair_space()
    assert ps.algebra.masks == frozenset({0b000, 0b011, 0b100, 0b111})
    assert ps.algebra.is_closed()


def test_no_generators_give_the_trivial_algebra():
    space = SampleSpace((1, 2, 3))
    alg = build_algebra(space, [])
    assert alg.masks == frozenset({0, 0b111})


def test_two_singleton_generators_on_four_atoms_match_the_closure_fixpoint():
    space = SampleSpace((1, 2, 3, 4))
    gens = [Event.from_atoms(space, (1,)), Event.from_atoms(space, (2,))]
    alg = build_algebra(space, gens)
    oracle = closure_fixpoint(4, [0b0001, 0b0010])
    assert alg.masks == oracle
    assert len(alg) == 8  # blocks {1},{2},{3,4} -> 2^3 unions
    assert alg.is_closed()


def test_generator_with_unknown_atom_is_rejected():
    space = SampleSpace(("a", "b"))
    other = SampleSpace(("x", "y"))
    with pytest.raises(InputError):
        build_algebra(space, [Event.from_atoms(other, ("x",))])


def test_algebra_size_is_capped():
    """Only enumerating the events is capped; building and membership are not."""
    space = SampleSpace(tuple(range(21)))
    gens = [Event(space, 1 << i) for i in range(21)]
    alg = build_algebra(space, gens)
    assert len(alg) == 2**21
    assert Event(space, 0b1010_0000_0000_0000_0011) in alg
    with pytest.raises(CapacityError):
        alg.masks


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_algebra_always_equals_the_closure_fixpoint(data):
    n = data.draw(st.integers(1, 5))
    full = (1 << n) - 1
    gens = data.draw(st.lists(st.integers(0, full), max_size=3))
    space = SampleSpace(tuple(range(n)))
    alg = build_algebra(space, [Event(space, g) for g in gens])
    closure = closure_fixpoint(n, gens)
    assert alg.masks == closure
    assert alg.is_closed()
    assert len(alg) & (len(alg) - 1) == 0  # power of two

    raw = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    atom_w = [Fraction(r, sum(raw)) for r in raw]
    ps = FiniteProbabilitySpace.from_block_weights(alg, {
        b: sum(w for i, w in enumerate(atom_w) if b >> i & 1) for b in alg.blocks()
    })
    for m in closure:
        assert ps.weight[m] == sum(
            (w for i, w in enumerate(atom_w) if m >> i & 1), Fraction(0)
        )
    for m in set(range(full + 1)) - closure:
        with pytest.raises(KeyError):
            ps.weight[m]


def test_a_64_atom_power_set_space_needs_no_enumeration():
    space = SampleSpace(tuple(range(64)))
    ps = FiniteProbabilitySpace.from_atom_weights(
        space, {a: Fraction(a + 1, 2080) for a in space.atoms}  # 2080 = 1 + ... + 64
    )
    event = Event(space, (1 << 40) - 1)
    assert probability(ps, event) == Fraction(820, 2080)  # 1 + ... + 40


@pytest.mark.parametrize("p_a", ["0", "1/2"])
def test_a_non_closed_event_set_is_rejected_as_not_closed(p_a):
    """{}, {a} and the full space miss the complement {b, c}; the weight of
    {a} must not decide whether that is noticed."""
    doc = {"atoms": ["a", "b", "c"], "events": [[], [0], [0, 1, 2]],
           "weights": {"0": "0", "1": p_a, "2": "1"}}
    with pytest.raises(InputError, match="not closed"):
        space_from_document(doc)


# --- probability lookups -----------------------------------------------------------

def test_probability_of_the_pair_block_is_one_half():
    ps = hidden_pair_space()
    assert probability(ps, Event.from_atoms(ps.space, ("w1", "w2"))) == Fraction(1, 2)
    assert probability(ps, Event(ps.space, ps.space.full_mask)) == 1
    assert probability(ps, Event(ps.space, 0)) == 0


def test_hidden_atom_has_no_probability_at_all():
    ps = hidden_pair_space()
    with pytest.raises(NotMeasurableError, match="event not measurable"):
        probability(ps, Event.from_atoms(ps.space, ("w1",)))


def test_event_from_a_different_space_is_rejected():
    ps = hidden_pair_space()
    other = SampleSpace(("a", "b"))
    with pytest.raises(InputError):
        probability(ps, Event(other, 0b01))


# --- measurability ------------------------------------------------------------------

def test_variable_separating_the_pair_is_not_measurable():
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, {"w1": 1, "w2": 2, "w3": 3})
    assert not is_measurable(ps, a)


def test_constant_variable_is_measurable():
    ps = hidden_pair_space()
    assert is_measurable(ps, RandomVariable(ps.space, {a: 7 for a in ps.space.atoms}))


def test_every_variable_is_measurable_on_a_power_set_algebra():
    ps = two_coin_space()
    a = RandomVariable(ps.space, {"HH": 0, "HT": 1, "TH": 2, "TT": 3})
    assert is_measurable(ps, a)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
def test_measurable_variables_cannot_split_the_pair(vals):
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, dict(zip(("w1", "w2", "w3"), vals)))
    if is_measurable(ps, a):
        assert a("w1") == a("w2")


# --- distribution and expectation ----------------------------------------------------

def test_distribution_of_the_block_indicator():
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, {"w1": 1, "w2": 1, "w3": 0})
    assert distribution(ps, a) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert expectation(ps, a) == Fraction(1, 2)


def test_distribution_of_a_constant():
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, {a: "c" for a in ps.space.atoms})
    assert distribution(ps, a) == {"c": 1}


def test_uniform_six_sided_identity_distribution_and_mean():
    space = SampleSpace((1, 2, 3, 4, 5, 6))
    ps = FiniteProbabilitySpace.uniform(space)
    a = RandomVariable(space, {i: i for i in space.atoms})
    assert distribution(ps, a) == {i: Fraction(1, 6) for i in range(1, 7)}
    assert expectation(ps, a) == Fraction(7, 2)


def test_distribution_refuses_non_measurable_variables():
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, {"w1": 1, "w2": 2, "w3": 3})
    with pytest.raises(NotMeasurableError):
        distribution(ps, a)


# --- conditioning -------------------------------------------------------------------

def test_conditional_on_an_overlapping_pair():
    space = SampleSpace((1, 2, 3, 4))
    ps = FiniteProbabilitySpace.uniform(space)
    b = Event.from_atoms(space, (1, 2))
    c = Event.from_atoms(space, (2, 3))
    assert conditional(ps, b, c) == Fraction(1, 2)


def test_conditioning_on_the_full_space_is_identity():
    ps = two_coin_space()
    b = Event.from_atoms(ps.space, ("HH", "TT"))
    omega = Event(ps.space, ps.space.full_mask)
    assert conditional(ps, b, omega) == probability(ps, b)


def test_conditional_of_disjoint_events_is_zero():
    ps = two_coin_space()
    b = Event.from_atoms(ps.space, ("HH",))
    c = Event.from_atoms(ps.space, ("TT",))
    assert conditional(ps, b, c) == 0


def test_conditioning_on_a_null_event_is_an_error():
    ps = hidden_pair_space()
    with pytest.raises(NullConditioningError):
        conditional(ps, Event(ps.space, 0b100), Event(ps.space, 0))


def test_conditional_measure_is_itself_a_valid_space():
    ps = two_coin_space()
    c = Event.from_atoms(ps.space, ("HH", "HT", "TH"))
    cond = conditional_space(ps, c)  # constructor revalidates all invariants
    assert probability(cond, c) == 1
    total = sum(
        probability(cond, Event(ps.space, 1 << i)) for i in range(ps.space.size)
    )
    assert total == 1


# --- independence --------------------------------------------------------------------

def test_full_space_is_independent_of_everything():
    ps = two_coin_space()
    omega = Event(ps.space, ps.space.full_mask)
    for m in ps.algebra.masks:
        assert independent(ps, omega, Event(ps.space, m))


def test_coin_margins_are_independent_in_the_product():
    ps = two_coin_space()
    first_h = Event.from_atoms(ps.space, ("HH", "HT"))
    second_h = Event.from_atoms(ps.space, ("HH", "TH"))
    assert independent(ps, first_h, second_h)


def test_complementary_blocks_are_dependent():
    ps = hidden_pair_space()
    a = Event.from_atoms(ps.space, ("w1", "w2"))
    b = Event.from_atoms(ps.space, ("w3",))
    assert not independent(ps, a, b)  # 0 != 1/4


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_independence_is_symmetric(ma, mb):
    ps = two_coin_space()
    a, b = Event(ps.space, ma), Event(ps.space, mb)
    assert independent(ps, a, b) == independent(ps, b, a)


# --- total probability ----------------------------------------------------------------

def test_whole_space_partition_reproduces_the_probability():
    ps = two_coin_space()
    part = Partition((Event(ps.space, ps.space.full_mask),))
    b = Event.from_atoms(ps.space, ("HT", "TH"))
    total, terms = total_probability(ps, part, b)
    assert total == probability(ps, b)
    assert terms == [(1, Fraction(1, 2))]


def test_block_partition_terms_on_the_pair_space():
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, {"w1": 1, "w2": 1, "w3": 0})
    part = partition_from_rv(ps, a)
    b = Event.from_atoms(ps.space, ("w3",))
    total, terms = total_probability(ps, part, b)
    assert total == Fraction(1, 2)
    assert sorted(terms) == [(Fraction(1, 2), 0), (Fraction(1, 2), 1)]


def test_three_block_partition_on_a_uniform_space():
    space = SampleSpace((1, 2, 3, 4, 5, 6))
    ps = FiniteProbabilitySpace.uniform(space)
    part = Partition(
        tuple(Event.from_atoms(space, pair) for pair in ((1, 2), (3, 4), (5, 6)))
    )
    b = Event.from_atoms(space, (2, 3))
    total, _ = total_probability(ps, part, b)
    assert total == Fraction(1, 3)


def test_partition_validation_names_each_violation():
    space = SampleSpace((1, 2, 3, 4))
    ps = FiniteProbabilitySpace.uniform(space)
    b = Event.from_atoms(space, (1,))
    overlapping = Partition(
        (Event.from_atoms(space, (1, 2)), Event.from_atoms(space, (2, 3, 4)))
    )
    with pytest.raises(InputError, match="overlap"):
        total_probability(ps, overlapping, b)
    incomplete = Partition(
        (Event.from_atoms(space, (1,)), Event.from_atoms(space, (2,)))
    )
    with pytest.raises(InputError, match="cover"):
        total_probability(ps, incomplete, b)
    null_block = Partition((Event(space, 0), Event(space, space.full_mask)))
    with pytest.raises(InputError, match="zero probability"):
        total_probability(ps, null_block, b)
    hidden = hidden_pair_space()
    not_meas = Partition(
        (Event(hidden.space, 0b001), Event(hidden.space, 0b110))
    )
    with pytest.raises(NotMeasurableError):
        total_probability(hidden, not_meas, Event(hidden.space, 0b100))


def test_partition_from_identity_variable_is_all_singletons():
    space = SampleSpace(("a", "b", "c"))
    ps = FiniteProbabilitySpace.uniform(space)
    a = RandomVariable(space, {x: x for x in space.atoms})
    part = partition_from_rv(ps, a)
    assert sorted(b.mask for b in part.blocks) == [0b001, 0b010, 0b100]


def test_partition_from_parity_variable_has_two_half_blocks():
    ps = two_coin_space()
    parity = RandomVariable(
        ps.space, {"HH": 0, "TT": 0, "HT": 1, "TH": 1}
    )
    part = partition_from_rv(ps, parity)
    assert len(part.blocks) == 2
    assert all(probability(ps, blk) == Fraction(1, 2) for blk in part.blocks)


def test_partition_from_rv_requires_positive_mass_values():
    space = SampleSpace(("a", "b"))
    ps = FiniteProbabilitySpace.from_atom_weights(
        space, {"a": Fraction(1), "b": Fraction(0)}
    )
    a = RandomVariable(space, {"a": 0, "b": 1})
    with pytest.raises(InputError, match="probability 0"):
        partition_from_rv(ps, a)


# --- exactness + float mode ------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_total_probability_is_exact_on_random_rational_spaces(data):
    n = data.draw(st.integers(2, 8))
    raw = data.draw(
        st.lists(st.integers(1, 20), min_size=n, max_size=n)
    )
    den = sum(raw)
    space = SampleSpace(tuple(range(n)))
    ps = FiniteProbabilitySpace.from_atom_weights(
        space, {i: Fraction(raw[i], den) for i in range(n)}
    )
    values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    a = RandomVariable(space, dict(enumerate(values)))
    b = Event(space, data.draw(st.integers(0, space.full_mask)))
    part = partition_from_rv(ps, a)
    total, _ = total_probability(ps, part, b)
    assert total == probability(ps, b)  # Fraction equality, no tolerance


def test_float_weights_are_accepted_within_tolerance():
    space = SampleSpace(("a", "b", "c"))
    ps = FiniteProbabilitySpace.from_atom_weights(
        space, {"a": 0.25, "b": 0.25, "c": 0.5}
    )
    assert not ps.exact
    assert probability(ps, Event.from_atoms(space, ("a", "b"))) == pytest.approx(0.5)


def test_additivity_violations_are_rejected():
    space = SampleSpace(("a", "b"))
    alg = build_algebra(space, [Event(space, 0b01)])
    bad = {0b00: Fraction(0), 0b01: Fraction(1, 2), 0b10: Fraction(1, 4), 0b11: Fraction(1)}
    with pytest.raises(InputError, match="additivity"):
        FiniteProbabilitySpace(alg, bad)


def test_weight_map_must_cover_algebra_exactly():
    space = SampleSpace(("a", "b"))
    alg = build_algebra(space, [Event(space, 0b01)])
    with pytest.raises(InputError, match="cover"):
        FiniteProbabilitySpace(alg, {0b00: Fraction(0), 0b11: Fraction(1)})


# --- serialization ----------------------------------------------------------------------

def test_document_round_trip_preserves_weights_and_variables():
    ps = hidden_pair_space()
    a = RandomVariable(ps.space, {"w1": 1, "w2": 1, "w3": 0})
    doc = space_to_document(ps, {"ind": a})
    back, variables = space_from_document(doc)
    assert back.algebra.masks == ps.algebra.masks
    assert back.weight == ps.weight
    assert variables["ind"].values == a.values
    assert all("/" in w for w in doc["weights"].values())  # exact rationals kept


def test_malformed_document_is_an_input_error():
    with pytest.raises(InputError):
        space_from_document({"atoms": ["a"], "events": "nonsense"})
