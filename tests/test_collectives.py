"""Frequency traces, stabilization verdicts, causal place selection,
mixing additivity, the adversarial selection, and the regular-sequence
generator."""

import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva import collectives
from collectiva.collectives import (
    BINARY,
    CHUNK,
    FrequencyProbability,
    LabelAlphabet,
    PlaceSelectionRule,
    RULE_CATALOGUE,
    TrialPrefix,
    TrialSequence,
    after_pattern_rule,
    apply_selection,
    aux_coin_rule,
    default_family,
    detect_stabilization,
    evens_rule,
    frequencies,
    frequency_probability,
    identity_rule,
    kamke_adversary,
    label_counts,
    log_checkpoints,
    mix,
    odds_rule,
    primes_rule,
    randomness_check,
    running_margins,
    rule_from_spec,
    seq_to_unit_interval,
    ville_generator,
)
from collectiva.errors import CapacityError, ConstructionError, InputError
from collectiva.padic import realized_trace
from collectiva.seqio import read_sequence

from _oracles import (
    UnpackedSequence,
    check_mask_contract,
    cumsum_prefix_counts,
    randomness_check_reference,
    reference_decider,
    reference_mask,
    ville_attempt_reference,
)

TERNARY = LabelAlphabet(("a", "b", "c"))


def alternating(n: int) -> TrialSequence:
    return TrialSequence.from_bits(np.arange(n) % 2)


def seeded_bits(n: int, seed: int) -> TrialSequence:
    rng = np.random.default_rng(seed)
    return TrialSequence.from_bits(rng.integers(0, 2, size=n))


def seeded_ternary(n: int, seed: int) -> TrialSequence:
    rng = np.random.default_rng(seed)
    return TrialSequence(TERNARY, rng.integers(0, 3, size=n))


def growing_blocks() -> TrialSequence:
    """0-blocks and 1-blocks of sizes 10, 100, 1000, 10000 interleaved —
    frequencies swing across the whole final window."""
    parts = []
    for k in range(1, 5):
        parts.append(np.zeros(10**k, dtype=np.int64))
        parts.append(np.ones(10**k, dtype=np.int64))
    return TrialSequence.from_bits(np.concatenate(parts))


# --- alphabet and sequence validation ----------------------------------------------

def test_alphabet_validation():
    with pytest.raises(InputError, match="at least two"):
        LabelAlphabet(("a",))
    with pytest.raises(InputError, match="distinct"):
        LabelAlphabet(("a", "a"))
    with pytest.raises(InputError, match="not in alphabet"):
        BINARY.index("2")


class CountedLabel:
    """A label that counts the equality tests made against labels of its kind."""

    compared = 0

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        CountedLabel.compared += 1
        return isinstance(other, CountedLabel) and self.name == other.name


def test_a_label_is_found_without_scanning_the_alphabet():
    """The readers map every trial through index, so a lookup may not compare the label
    with each label before it, as a linear search does (500 500 comparisons here)."""
    alphabet = LabelAlphabet(tuple(CountedLabel(i) for i in range(1000)))
    CountedLabel.compared = 0
    assert [alphabet.index(CountedLabel(i)) for i in range(1000)] == list(range(1000))
    assert CountedLabel.compared <= 2000
    with pytest.raises(InputError, match="not in alphabet"):
        alphabet.index([0])


def test_trial_sequence_ingestion():
    x = TrialSequence.from_labels(TERNARY, ["a", "c", "c"])
    assert x.labels() == ["a", "c", "c"]
    assert len(x) == 3 and x.label_at(1) == "c"
    with pytest.raises(InputError, match="not in alphabet"):
        TrialSequence.from_labels(TERNARY, ["a", "z"])
    with pytest.raises(InputError, match="outside the alphabet"):
        TrialSequence(BINARY, np.array([0, 3]))


def test_indices_are_stored_as_bytes_up_to_256_labels():
    small = LabelAlphabet(tuple(range(256)))
    big = LabelAlphabet(tuple(range(257)))
    assert TrialSequence(small, np.array([0, 255])).data.dtype == np.uint8
    assert TrialSequence(big, np.array([0, 256])).data.dtype == np.int64
    assert TrialSequence.from_bits(np.array([True, False])).data.dtype == np.uint8
    assert mix(seeded_ternary(100, 1), ["a"]).data.dtype == np.uint8


@pytest.mark.parametrize("bad", [[0, 256], [0, 258], [-1, 1], [0, -255]])
def test_bad_indices_are_rejected_before_narrowing(bad):
    # 256 and -255 wrap to 0 and 1 as uint8, which would pass a later check
    with pytest.raises(InputError, match="outside the alphabet"):
        TrialSequence(BINARY, np.array(bad, dtype=np.int64))


# --- the packed store -------------------------------------------------------------

def split_at(data: np.ndarray, cuts) -> list[np.ndarray]:
    bounds = sorted({0, len(data), *(c for c in cuts if 0 < c < len(data))})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_packed_readers_match_the_unpacked_reference(data):
    """trials, windows, labels, label_at, packed, ==, the past a rule is
    handed and the window builder, on lengths that are mostly not a multiple
    of 8 and windows that cross byte and CHUNK edges."""
    size = data.draw(st.sampled_from([2, 2, 2, 3, 257]), label="labels")
    alphabet = LabelAlphabet(tuple(f"s{i}" for i in range(size)))
    n = data.draw(st.integers(0, 200), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    idx = np.random.default_rng(seed).integers(0, size, n)
    x, ref = TrialSequence(alphabet, idx), UnpackedSequence(alphabet, idx)
    assert len(x) == len(ref) == n
    assert x.labels() == ref.labels()
    for i in range(-n - 2, n + 2):
        if -n <= i < n:
            assert x.label_at(i) == ref.label_at(i)
        else:
            with pytest.raises(IndexError):
                x.label_at(i)
    windows = data.draw(st.lists(st.tuples(st.integers(-n - 3, n + 3), st.integers(-n - 3, n + 3)),
                                 max_size=12), label="windows")
    for a, b in windows + [(0, n), (n, n), (7, 9), (8, 17)]:
        got, want = x.trials(a, b), ref.trials(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want), (a, b)
        m = max(0, min(abs(b), n))
        past = TrialPrefix(x, m)
        assert np.array_equal(past[a:b], ref.trials(0, m)[a:b]), (a, b, m)
        assert np.array_equal(past[a:b:2], ref.trials(0, m)[a:b:2]), (a, b, m)
        if -m <= a < m:
            assert past[a] == ref.trials(0, m)[a]
        else:
            with pytest.raises(IndexError):
                past[a]
    assert np.array_equal(np.asarray(TrialPrefix(x, n)), ref.data)
    chunk = data.draw(st.integers(1, 40), label="chunk")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "CHUNK", chunk)
        got = [(a, w.tolist()) for a, w in x.windows()]
        assert got == [(a, w.tolist()) for a, w in ref.windows()]
        assert [a for a, _ in got] == list(range(0, n, chunk))
    if size == 2:
        for m in range(n + 1):
            assert bytes(x.packed(m)) == bytes(ref.packed(m)), m
    cuts = data.draw(st.lists(st.integers(0, n), max_size=8), label="cuts")
    assert TrialSequence.from_windows(alphabet, n, split_at(idx, cuts)) == x
    y_idx = idx.copy()
    if n and data.draw(st.booleans(), label="differ"):
        at = data.draw(st.integers(0, n - 1), label="at")
        y_idx[at] = (y_idx[at] + 1) % size
    for y_ref in (UnpackedSequence(alphabet, y_idx), UnpackedSequence(alphabet, y_idx[:-1])):
        assert (x == TrialSequence(alphabet, y_ref.data)) == (ref == y_ref)


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_windows_that_miscount_their_trials_are_rejected(alphabet):
    """A text read twice may change between the count and the store."""
    with pytest.raises(InputError, match="expected 10 trials, got more"):
        TrialSequence.from_windows(alphabet, 10, [np.zeros(6, np.uint8), np.ones(5, np.uint8)])
    with pytest.raises(InputError, match="expected 10 trials, got 9"):
        TrialSequence.from_windows(alphabet, 10, [np.zeros(9, np.uint8)])


def test_padding_bits_of_a_packed_store_are_cleared():
    x = TrialSequence.from_packed(bytes([0xFF, 0xFF]), 11)
    assert x.labels() == ["1"] * 11
    assert bytes(x.packed()) == bytes([0xFF, 0xE0])
    assert x == TrialSequence.from_bits(np.ones(11, dtype=np.uint8))
    assert bytes(x.packed(3)) == bytes([0xE0])
    with pytest.raises(InputError, match="packed bytes"):
        TrialSequence.from_packed(bytes(2), 17)


@settings(max_examples=40, deadline=None)
@given(
    ternary=st.booleans(),
    n=st.integers(1, 600).filter(lambda n: n % 8),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(8, 70),
    coin_step=st.integers(1, 50),
    members=st.sets(st.sampled_from("abc"), max_size=3),
)
def test_kernels_on_the_packed_store_equal_them_on_the_unpacked_reference(
        ternary, n, seed, chunk, coin_step, members):
    alphabet = TERNARY if ternary else BINARY
    idx = np.random.default_rng(seed).integers(0, alphabet.size, n)
    x, ref = TrialSequence(alphabet, idx), UnpackedSequence(alphabet, idx)
    family = [rule_from_spec(s) for s in
              ("identity", "odds", "primes", "after:" + ("ab" if ternary else "10"), "coin:3")]
    family.append(majority_rule())
    cps = sorted({1, n // 3 or 1, n // 2 or 1, n - 1 or 1, n})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "CHUNK", chunk)
        mp.setattr(collectives, "COIN_STEP", coin_step)
        assert frequencies(x, cps) == frequencies(ref, cps)
        assert randomness_check(x, family, min_length=1) == \
            randomness_check(ref, family, min_length=1)
        for rule in family:
            assert apply_selection(rule, x) == apply_selection(rule, ref), rule.describe()
        labels = [lab for lab in alphabet.labels if not ternary or lab in members]
        mixed = mix(x, labels)
        assert mixed == mix(ref, labels)
        member = np.isin(idx, [alphabet.index(lab) for lab in labels]).astype(np.uint8)
        assert mixed == UnpackedSequence(BINARY, member)
        for lab in alphabet.labels:
            assert realized_trace(x, cps, label=lab) == realized_trace(ref, cps, label=lab)
            assert np.array_equal(kamke_adversary(x, lab), kamke_adversary(ref, lab))
    if not ternary:
        assert seq_to_unit_interval(x) == seq_to_unit_interval(ref)


def test_a_rule_reading_the_whole_past_gets_it_from_the_lazy_view():
    """majority_rule takes np.cumsum of its past: a TrialPrefix is read whole
    through np.asarray and gives the masks the index array gives."""
    data = seeded_bits(3000, 41).data
    x = TrialSequence(BINARY, data)
    for start, stop in ((0, 1), (5, 6), (0, 3000), (1000, 2999)):
        assert np.array_equal(collectives._window_mask(majority_rule(), BINARY, x, start, stop),
                              collectives._window_mask(majority_rule(), BINARY, data, start, stop))


# --- frequencies -------------------------------------------------------------------

def test_alternating_frequencies_are_half_at_even_checkpoints():
    tr = frequencies(alternating(1000), [2, 10, 1000])
    for k in range(3):
        assert tr.nu("0", k) == Fraction(1, 2)
        assert tr.nu("1", k) == Fraction(1, 2)


def test_constant_sequence_has_frequency_one():
    x = TrialSequence.from_bits(np.zeros(50, dtype=np.int64))
    tr = frequencies(x, [1, 25, 50])
    assert all(v == 1 for v in tr.values["0"])
    assert all(v == 0 for v in tr.values["1"])


def test_three_trial_count():
    tr = frequencies(TrialSequence.from_bits(np.array([0, 0, 1])), [3])
    assert tr.final() == {"0": Fraction(2, 3), "1": Fraction(1, 3)}


def test_frequency_checkpoint_validation():
    x = alternating(10)
    with pytest.raises(InputError, match="beyond data"):
        frequencies(x, [11])
    with pytest.raises(InputError, match=">= 1"):
        frequencies(x, [0])
    with pytest.raises(InputError, match="at least one checkpoint"):
        frequencies(x, [])


@given(st.lists(st.integers(0, 2), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_frequencies_sum_to_one_exactly_at_every_checkpoint(idx):
    x = TrialSequence(TERNARY, np.array(idx, dtype=np.int64))
    cps = sorted({1, len(x) // 2 or 1, len(x)})
    tr = frequencies(x, cps)
    for k in range(len(cps)):
        assert sum(tr.nu(lab, k) for lab in TERNARY.labels) == 1
        assert all(0 <= tr.nu(lab, k) <= 1 for lab in TERNARY.labels)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prefix_counts_match_the_running_sum_kernel(data):
    k = data.draw(st.integers(2, 300), label="labels")
    n = data.draw(st.integers(1, 400), label="trials")
    chunk = data.draw(st.integers(1, 64), label="chunk")
    x = TrialSequence(LabelAlphabet(tuple(range(k))),
                      np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, k, n))
    cps = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=12), label="checkpoints")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "CHUNK", chunk)
        counts = label_counts(x, cps)[:, 0]
    for j in {0, k - 1, int(x.data[0])}:
        assert counts[:, j].tolist() == cumsum_prefix_counts(x.data, j, cps)
    tr = frequencies(x, cps)
    j = int(x.data[-1])
    assert [v * c for v, c in zip(tr.values[j], cps)] == cumsum_prefix_counts(x.data, j, cps)
    assert realized_trace(x, cps, label=j) == list(tr.values[j])


def test_prefix_counts_across_many_default_chunks():
    x = seeded_ternary(2 * CHUNK + 1000, 5)
    cps = [2 * CHUNK + 1000, 3, CHUNK + 1, 3, 1, 2 * CHUNK + 999]
    counts = label_counts(x, cps)[:, 0]
    for j in range(3):
        assert counts[:, j].tolist() == cumsum_prefix_counts(x.data, j, cps)


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from([2, 3, 16, 17, 256]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 64),
    specs=st.lists(st.one_of(
        st.sampled_from(["identity", "evens", "odds", "primes", "majority"]),
        st.integers(0, 9).map(lambda k: f"coin:{k}"),
        st.lists(st.integers(0, 255), min_size=1, max_size=3),  # an after: pattern
    ), max_size=4),
    cps=st.lists(st.integers(1, 300), min_size=1, max_size=10),
)
def test_label_counts_rows_equal_the_prefix_and_selection_oracles(size, n, seed, chunk,
                                                                   specs, cps):
    """Row 0 of each checkpoint is the running count of every label, row
    i + 1 the bincount of family[i]'s selection from the checkpoint's prefix,
    for unsorted and repeated checkpoints and CHUNKs of 1 to 64 trials."""
    alphabet = LabelAlphabet(tuple(f"s{i}" for i in range(size)))
    x = TrialSequence(alphabet, np.random.default_rng(seed).integers(0, size, n))
    family = [majority_rule() if s == "majority" else rule_from_spec(s) if isinstance(s, str)
              else after_pattern_rule(tuple(alphabet.labels[v % size] for v in s))
              for s in specs]
    cps = [min(c, n) for c in cps]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "CHUNK", chunk)
        counts = label_counts(x, cps, family)
    assert counts.dtype == np.int64 and counts.shape == (len(cps), 1 + len(family), size)
    for j in range(size):
        assert counts[:, 0, j].tolist() == cumsum_prefix_counts(x.data, j, cps)
    for k, c in enumerate(cps):
        prefix = TrialSequence(alphabet, x.data[:c])
        for rule, row in zip(family, counts[k, 1:]):
            want = np.bincount(apply_selection(rule, prefix).data, minlength=size)
            assert np.array_equal(row, want), (rule.describe(), c)


def test_log_checkpoints_cover_both_ends():
    cps = log_checkpoints(12345)
    assert cps[0] == 1 and cps[-1] == 12345
    assert list(cps) == sorted(set(cps))
    assert all(1 <= c <= 12345 for c in cps)
    with pytest.raises(InputError):
        log_checkpoints(0)


# --- stabilization -----------------------------------------------------------------

def test_alternating_sequence_stabilizes_at_one_half():
    x = alternating(10**4)
    tr = frequencies(x, log_checkpoints(len(x)))
    verdict = detect_stabilization(tr, window=10**3, epsilon=Fraction(1, 100))
    assert verdict.stabilized
    limits = verdict.limits()
    assert abs(limits["0"] - Fraction(1, 2)) <= Fraction(1, 100)
    assert sum(limits.values()) == 1


def test_constant_sequence_stabilizes_at_one_and_zero():
    x = TrialSequence.from_bits(np.ones(5000, dtype=np.int64))
    tr = frequencies(x, log_checkpoints(len(x)))
    verdict = detect_stabilization(tr)
    assert verdict.stabilized
    assert verdict.limits() == {"0": Fraction(0), "1": Fraction(1)}


def test_growing_blocks_do_not_stabilize():
    x = growing_blocks()
    tr = frequencies(x, log_checkpoints(len(x)))
    verdict = detect_stabilization(tr, epsilon=Fraction(1, 100))
    assert not verdict.stabilized
    assert verdict.per_label["1"].oscillation > Fraction(1, 100)
    assert verdict.per_label["1"].limit is None


def test_stabilization_needs_two_window_points():
    tr = frequencies(alternating(100), [1, 100])
    with pytest.raises(InputError, match="two checkpoints"):
        detect_stabilization(tr, window=10)


# --- place selection ----------------------------------------------------------------

def test_prime_positions_of_ten_distinct_labels():
    letters = LabelAlphabet(tuple("abcdefghij"))
    x = TrialSequence.from_labels(letters, list("abcdefghij"))
    sel = apply_selection(primes_rule(), x)
    assert sel.labels() == ["b", "c", "e", "g"]


def test_identity_selection_returns_the_sequence_itself():
    x = seeded_bits(500, 7)
    assert apply_selection(identity_rule(), x) == x


def test_after_01_on_alternating_selects_only_zeros():
    sel = apply_selection(after_pattern_rule("01"), alternating(1001))
    assert len(sel) == 499 or len(sel) == 500
    assert all(lab == "0" for lab in sel.labels())


def test_evens_on_alternating_selects_only_ones():
    sel = apply_selection(evens_rule(), alternating(1000))
    assert len(sel) == 500
    assert set(sel.labels()) == {"1"}


def test_odds_on_alternating_selects_only_zeros():
    sel = apply_selection(odds_rule(), alternating(1000))
    assert set(sel.labels()) == {"0"}


def test_empty_selection_yields_empty_sequence():
    x = alternating(3)  # 0,1,0 — nothing follows "11"
    sel = apply_selection(after_pattern_rule("11"), x)
    assert len(sel) == 0


@pytest.mark.parametrize("spec", ["identity", "evens", "odds", "primes", "after:01", "coin:99"])
def test_vector_and_scalar_deciders_agree(spec):
    rule = rule_from_spec(spec)
    x = seeded_bits(800, 13)
    assert apply_selection(rule, x) == TrialSequence(
        BINARY, x.data[reference_mask(rule, BINARY, x.data)]
    )


@pytest.mark.parametrize("spec", ["evens", "primes", "after:10", "coin:5"])
def test_decisions_never_depend_on_the_suffix(spec):
    """Metamorphic causality check: rewriting x_m..x_N leaves every decision
    for positions < m unchanged, in one-position windows and in one window
    over the whole word."""
    rule = rule_from_spec(spec)
    m = 200
    x = seeded_bits(400, 21).data
    y = x.copy()
    y[m:] = 1 - y[m:]
    for n in range(1, m + 1):
        assert collectives._window_mask(rule, BINARY, x, n - 1, n)[0] == \
            collectives._window_mask(rule, BINARY, y, n - 1, n)[0]
    whole = [collectives._window_mask(rule, BINARY, d, 0, len(d))[:m] for d in (x, y)]
    assert np.array_equal(*whole)


WINDOW_SPECS = ["identity", "evens", "odds", "primes", "after:0110", "coin:7"]
PATTERN_LENGTH = 4  # of after:0110


@pytest.fixture(scope="module")
def scalar_masks():
    """Whole-sequence masks of the reference deciders on a seeded word of
    3*CHUNK + 17 trials; by causality their prefixes are the masks of every
    shorter prefix of the word."""
    n = 3 * CHUNK + 17
    data = seeded_bits(n, 29).data
    masks = {spec: reference_mask(rule_from_spec(spec), BINARY, data) for spec in WINDOW_SPECS}
    return data, masks


def one_position_cuts(*edges: int) -> list[int]:
    """Cuts that make one-position windows from 8 positions before each edge
    to 8 after it."""
    return [c for e in edges for c in range(max(e - 8, 0), e + 9)]


@pytest.mark.parametrize("n", [1, PATTERN_LENGTH, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_window_masks_concatenate_to_the_scalar_decisions(scalar_masks, n):
    data, masks = scalar_masks
    data = data[:n]
    cuts = (1, PATTERN_LENGTH, PATTERN_LENGTH + 1, 4097, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 5)
    cut_lists = ([], cuts, range(0, n, CHUNK),
                 one_position_cuts(8, 4096, CHUNK, 2 * CHUNK, n - 9))
    for spec in WINDOW_SPECS:
        rule, want = rule_from_spec(spec), masks[spec][:n]
        check_mask_contract(rule, data, cut_lists, want)
        x = TrialSequence(BINARY, data)
        assert apply_selection(rule, x).data.tobytes() == data[want].tobytes(), spec
        (row,) = randomness_check(x, [rule], min_length=1)
        ones = int(data[want].sum())
        assert row.selected == int(want.sum()), spec
        assert row.frequencies is None or row.frequencies["1"] == Fraction(ones, row.selected)


def test_a_window_reads_no_trial_at_or_after_its_stop():
    data = seeded_bits(5000, 31).data
    for spec in WINDOW_SPECS:
        rule = rule_from_spec(spec)
        for start, stop in ((0, 1), (3, 4), (100, 2000), (4000, 5000)):
            cut = data[:stop - 1]  # the window may read at most these trials
            padded = np.concatenate([cut, np.ones(len(data) - len(cut), dtype=np.uint8)])
            assert np.array_equal(collectives._window_mask(rule, BINARY, data, start, stop),
                                  collectives._window_mask(rule, BINARY, padded, start, stop)), spec


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(st.one_of(
        st.sampled_from(["identity", "evens", "odds", "primes"]),
        st.text("01", min_size=1, max_size=3).map(lambda pat: f"after:{pat}"),
        st.text("abc", min_size=1, max_size=3).map(lambda pat: f"after:{pat}"),
        st.integers(0, 9).map(lambda seed: f"coin:{seed}"),
    ), min_size=1, max_size=4),
    ternary=st.booleans(),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    min_length=st.integers(1, 400),
    epsilon=st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 10)]),
)
def test_randomness_rows_match_the_scalar_selections(specs, ternary, n, seed, min_length, epsilon):
    alphabet = TERNARY if ternary else BINARY
    specs = [s for s in specs if not s.startswith("after:")
             or set(s[6:]) <= set(alphabet.labels)] or ["identity"]
    family = [rule_from_spec(s) for s in specs]
    x = TrialSequence(alphabet, np.random.default_rng(seed).integers(0, alphabet.size, n))
    assert randomness_check(x, family, epsilon, min_length) == \
        randomness_check_reference(x, family, epsilon, min_length)


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([2, 3, 16, 17, 256]),
    n=st.tuples(st.integers(0, 2), st.integers(1, CHUNK - 1)).map(lambda t: t[0] * CHUNK + t[1]),
    seed=st.integers(0, 2**32 - 1),
    coin=st.integers(0, 9),
    pattern=st.lists(st.integers(0, 255), min_size=1, max_size=3),
)
def test_window_counts_equal_the_bincount_of_the_selection(size, n, seed, coin, pattern):
    alphabet = LabelAlphabet(tuple(f"s{i}" for i in range(size)))
    x = TrialSequence(alphabet, np.random.default_rng(seed).integers(0, size, n))
    after = after_pattern_rule(tuple(alphabet.labels[v % size] for v in pattern))
    family = (identity_rule(), evens_rule(), odds_rule(), primes_rule(), after,
              aux_coin_rule(coin))
    (counts,) = label_counts(x, [n], family)
    for rule, row in zip(family, counts[1:]):
        want = np.bincount(apply_selection(rule, x).data, minlength=size)
        assert np.array_equal(row, want), rule.describe()


def test_aux_coin_is_seed_deterministic():
    x = seeded_bits(1000, 3)
    a = apply_selection(aux_coin_rule(42), x)
    b = apply_selection(aux_coin_rule(42), x)
    c = apply_selection(aux_coin_rule(43), x)
    assert a == b
    assert a != c


@pytest.mark.parametrize("p", [0.5, 0.1])
def test_chunked_coin_mask_is_one_uniform_stream(p):
    n = 3 * CHUNK + 17
    data = np.zeros(n, dtype=np.uint8)
    mask = collectives._window_mask(aux_coin_rule(11, p), BINARY, data, 0, n)
    assert np.array_equal(mask, np.random.default_rng(11).random(n) < p)
    decide = reference_decider(aux_coin_rule(11, p), p=p)
    assert [decide(i + 1, data[:i]) for i in range(500)] == list(mask[:500])


def test_rule_spec_parsing():
    assert rule_from_spec("after:10").describe() == "after:10"
    assert rule_from_spec("coin:7").describe() == "coin:7"
    assert rule_from_spec("coin", default_seed=7).describe() == "coin:7"
    with pytest.raises(InputError, match="needs a parameter"):
        rule_from_spec("coin")
    with pytest.raises(InputError, match="takes no parameter"):
        rule_from_spec("evens:3")
    with pytest.raises(InputError, match="catalogue"):
        rule_from_spec("mystery")
    with pytest.raises(InputError, match="nonempty"):
        after_pattern_rule("")
    assert set(RULE_CATALOGUE) == {"identity", "evens", "odds", "primes", "after", "coin"}


@pytest.mark.parametrize("param, labels", [
    ("heads", ("heads",)), ("ht", ("h", "t")), ("ab", ("ab",)), ("a|b", ("a", "b")),
    ("heads|t|heads", ("heads", "t", "heads")), ("ba", ("b", "a")),
    ("|", ("|",)), ("a|", ("a", "|")), ("|b", ("|", "b")), ("t|b", ("t", "b")),
])
def test_after_parameter_splits_at_bars_else_is_one_label_else_characters(param, labels):
    alphabet = LabelAlphabet(("heads", "tails", "h", "t", "ab", "a", "b", "|"))
    rule = rule_from_spec(f"after:{param}")
    assert rule.describe() == f"after:{param}"
    assert rule.mask.labels(alphabet) == labels
    data = np.random.default_rng(3).integers(0, alphabet.size, 4000).astype(np.uint8)
    want = reference_mask(rule, alphabet, data)
    assert want.any()
    assert np.array_equal(collectives._window_mask(rule, alphabet, data, 0, len(data)), want)


def test_a_label_sequence_is_named_by_the_spec_that_selects_it():
    alphabet = LabelAlphabet(("a", "b", "ab"))
    for pattern in (("a", "b"), ("ab",), ("ab", "a")):
        rule = after_pattern_rule(pattern)
        assert rule.mask.labels(alphabet) == pattern
        assert rule_from_spec(rule.describe()).mask.labels(alphabet) == pattern


# --- randomness check ---------------------------------------------------------------

def test_alternating_fails_under_evens_selection():
    x = alternating(10**4)
    reports = randomness_check(x, [identity_rule(), evens_rule()])
    by_name = {r.rule: r for r in reports}
    assert by_name["identity"].status == "pass"
    assert by_name["evens"].status == "fail"
    assert by_name["evens"].max_deviation == Fraction(1, 2)
    assert by_name["evens"].frequencies["1"] == 1


def test_seeded_coin_passes_the_default_family():
    x = seeded_bits(10**5, 2024)
    fam = [primes_rule(), after_pattern_rule("01"), aux_coin_rule(99)]
    reports = randomness_check(x, fam, epsilon=Fraction(1, 100))
    assert all(r.status == "pass" for r in reports)


def test_constant_sequence_passes_every_rule():
    x = TrialSequence.from_bits(np.zeros(10**4, dtype=np.int64))
    reports = randomness_check(x, [identity_rule(), evens_rule(), primes_rule()])
    assert all(r.status == "pass" for r in reports)
    assert all(r.max_deviation == 0 for r in reports)


def test_short_selection_is_inconclusive_not_failed():
    x = alternating(100)
    (report,) = randomness_check(x, [primes_rule()])  # 25 primes < 10^3
    assert report.status == "inconclusive"
    assert report.frequencies is None and report.max_deviation is None


def failing_rule() -> PlaceSelectionRule:
    def mask(alphabet, past, start, stop):
        raise RuntimeError(f"mask of {start}..{stop} failed")

    return PlaceSelectionRule("failing", mask)


EDGE_FAMILIES = {"no rule": [], "one rule": [evens_rule()], "a failing rule": [failing_rule()]}


@pytest.mark.parametrize("family", EDGE_FAMILIES.values(), ids=EDGE_FAMILIES)
def test_randomness_of_an_empty_sequence_is_an_input_error(family):
    """No rule's mask is asked before the empty length is rejected."""
    with pytest.raises(InputError, match="checkpoints must be >= 1"):
        randomness_check(TrialSequence(BINARY, np.zeros(0, dtype=np.uint8)), family)


def test_randomness_of_no_rule_one_rule_and_a_failing_rule():
    x = alternating(10)
    assert randomness_check(x, [], min_length=1) == []
    (row,) = randomness_check(x, [evens_rule()], min_length=1)
    assert (row.selected, row.frequencies, row.status) == (5, {"0": 0, "1": 1}, "fail")
    with pytest.raises(RuntimeError, match="mask of 0..10 failed"):
        randomness_check(x, [evens_rule(), failing_rule()])


# --- mixing -------------------------------------------------------------------------

def test_mix_additivity_is_exact_at_every_prefix():
    x = seeded_ternary(5000, 11)
    mixed = mix(x, {"a", "b"})
    lhs = np.cumsum(mixed.data)
    rhs = np.cumsum(x.data == 0) + np.cumsum(x.data == 1)
    assert np.array_equal(lhs, rhs)


def test_mix_full_alphabet_gives_all_ones():
    x = seeded_ternary(100, 5)
    mixed = mix(x, TERNARY.labels)
    assert set(mixed.labels()) == {"1"}
    fp = frequency_probability(x, TERNARY.labels, checkpoints=[50, 75, 100], window=60)
    assert fp.verdict == "stabilized" and fp.value == 1


def test_mix_single_label_example():
    x = TrialSequence.from_labels(TERNARY, ["a", "c", "c"])
    mixed = mix(x, {"c"})
    assert mixed.labels() == ["0", "1", "1"]
    assert frequencies(mixed, [3]).final()["1"] == Fraction(2, 3)


def test_mix_empty_subset_gives_all_zeros():
    x = seeded_ternary(64, 1)
    mixed = mix(x, set())
    assert set(mixed.labels()) == {"0"}


def test_mix_unknown_label():
    with pytest.raises(InputError, match="not in alphabet"):
        mix(seeded_ternary(10, 1), {"z"})


# --- frequency probability ----------------------------------------------------------

def test_alternating_frequency_probability_is_one_half():
    fp = frequency_probability(alternating(10**4), {"0"})
    assert fp.verdict == "stabilized"
    assert abs(fp.value - Fraction(1, 2)) <= Fraction(1, 100)
    assert 0 <= fp.value <= 1


def test_frequency_probability_additivity_on_disjoint_subsets():
    x = seeded_ternary(20000, 17)
    cps = log_checkpoints(len(x))
    t_ab = frequencies(mix(x, {"a", "b"}), cps)
    t_a = frequencies(mix(x, {"a"}), cps)
    t_b = frequencies(mix(x, {"b"}), cps)
    for k in range(len(cps)):
        assert t_ab.nu("1", k) == t_a.nu("1", k) + t_b.nu("1", k)


def test_no_stabilization_yields_explicit_non_verdict():
    fp = frequency_probability(growing_blocks(), {"1"})
    assert fp.verdict == "no frequency probability"
    assert fp.value is None
    assert not fp.stabilization.stabilized


# --- the adversarial selection -------------------------------------------------------

def test_adversary_selects_every_target_position():
    x = alternating(1000)
    pos = kamke_adversary(x, "1")
    assert np.array_equal(pos, np.arange(2, 1001, 2))
    sub = TrialSequence(BINARY, x.data[pos - 1])
    assert frequencies(sub, [len(sub)]).final()["1"] == 1


def test_adversary_on_absent_label_is_empty():
    x = TrialSequence.from_bits(np.zeros(100, dtype=np.int64))
    assert kamke_adversary(x, "1").size == 0


def test_adversary_frequency_is_exactly_one_on_random_data():
    x = seeded_bits(4096, 8)
    pos = kamke_adversary(x, "0")
    sub = TrialSequence(BINARY, x.data[pos - 1])
    assert frequencies(sub, [len(sub)]).final()["0"] == 1


# --- regular-sequence generator ------------------------------------------------------

def running_mean_floor_holds(x: TrialSequence) -> bool:
    ones = np.cumsum(x.data)
    n = np.arange(1, len(x) + 1)
    return bool(np.all(2 * ones >= n))


def test_generator_with_identity_rule_only():
    x = ville_generator([identity_rule()], 2048, epsilon=Fraction(1, 100))
    assert running_mean_floor_holds(x)
    final = frequencies(x, [len(x)]).final()
    assert abs(final["1"] - Fraction(1, 2)) <= Fraction(1, 100)


def test_generator_satisfies_the_default_family():
    fam = default_family()
    x = ville_generator(fam, 10**4, epsilon=Fraction(1, 100))
    assert running_mean_floor_holds(x)
    reports = randomness_check(x, fam, epsilon=Fraction(1, 100), min_length=200)
    assert all(r.status == "pass" for r in reports)


def test_generator_failure_is_explicit():
    # three trials cannot hold the mean floor and stay exactly balanced
    with pytest.raises(ConstructionError, match="backtracking budget"):
        ville_generator([identity_rule()], 3, epsilon=Fraction(0), min_count=1)
    with pytest.raises(InputError):
        ville_generator([identity_rule()], 0)


def test_running_margins_stay_signed_on_byte_trials():
    x = TrialSequence.from_bits(np.array([0, 0, 1, 1, 1]))
    margins = running_margins(x.data)
    assert margins.dtype == np.int64
    assert margins.tolist() == [-1, -2, -1, 0, 1]


@pytest.mark.parametrize("window", [61, collectives.VILLE_WINDOW])
def test_ville_sequence_carries_the_margins_of_its_scan(window):
    family = [rule_from_spec(s, default_seed=2) for s in ("identity", "primes", "after:10", "coin")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "VILLE_WINDOW", window)
        x = ville_generator(family, 10_000)
    margins = running_margins(x.data)
    assert x.ones == int(x.data.sum())
    assert x.min_margin == int(margins.min()) >= 0
    assert x == TrialSequence(BINARY, x.data)


def test_ville_scan_names_the_first_position_below_half_across_windows():
    bits = np.ones(200, dtype=np.uint8)
    bits[65:] = 0  # the margin 130 - n from trial 65 on: below 0 at trial 131
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "VILLE_WINDOW", 61)
        failure, _, _ = collectives._ville_scan(bits, [], Fraction(1, 10), 1)
    assert failure == "running mean below 1/2 at position 131"


def test_generator_checks_the_memory_budget_first(monkeypatch):
    monkeypatch.setenv("COLLECTIVA_MAX_MEM", str(1000 * collectives.VILLE_BYTES_PER_TRIAL))
    assert len(ville_generator([identity_rule()], 1000, Fraction(1, 10))) == 1000
    with pytest.raises(CapacityError, match="ville construction of 1001 trials"):
        ville_generator([identity_rule()], 1001, Fraction(1, 10))


# ε/min_count pairs at which the greedy pass fails its scan for some families,
# so that backtracking runs and sometimes exhausts its budget
BACKTRACKING_TOLERANCES = [
    (Fraction(0), 1), (Fraction(0), 5), (Fraction(1, 10), 1), (Fraction(1, 3), 1),
    (Fraction(1, 20), 10), (Fraction(1, 100), 30), (Fraction(1, 100), None),
]

catalogue_rule_specs = st.one_of(
    st.sampled_from(["identity", "evens", "odds", "primes"]),
    st.text("01", min_size=1, max_size=3).map(lambda pat: f"after:{pat}"),
    st.integers(0, 9).map(lambda seed: f"coin:{seed}"),
)


def ville_outcome(family, n, eps, min_count):
    try:
        return ville_generator(family, n, epsilon=eps, min_count=min_count).data.tobytes()
    except ConstructionError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(catalogue_rule_specs, min_size=1, max_size=5),
    n=st.integers(1, 3000),
    tolerance=st.sampled_from(BACKTRACKING_TOLERANCES),
)
def test_ville_matches_the_float_cost_reference(specs, n, tolerance):
    family = [rule_from_spec(s) for s in specs]
    bits, free, counts = collectives._ville_attempt(family, n, {})
    ref_bits, ref_free, ref_counts = ville_attempt_reference(family, n, {})
    assert bits.tobytes() == ref_bits.tobytes()
    assert (free, counts) == (ref_free, ref_counts)

    eps, min_count = tolerance
    outcome = ville_outcome(family, n, eps, min_count)
    with mock.patch.object(collectives, "_ville_attempt", ville_attempt_reference):
        assert outcome == ville_outcome(family, n, eps, min_count)


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(catalogue_rule_specs, min_size=1, max_size=5), data=st.data())
def test_ville_windows_of_61_trials_match_the_reference(specs, data):
    """Window masks taken 61 positions at a time, so a run of more than 61
    trials crosses window edges, with forced bits as backtracking sets them."""
    family = [rule_from_spec(s) for s in specs]
    n = data.draw(st.integers(1, 3000), label="trials")
    overrides = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1),
                                          min_size=1, max_size=6), label="overrides")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "VILLE_WINDOW", 61)
        bits, free, counts = collectives._ville_attempt(family, n, overrides)
    ref_bits, ref_free, ref_counts = ville_attempt_reference(family, n, overrides)
    assert bits.tobytes() == ref_bits.tobytes()
    assert (free, counts) == (ref_free, ref_counts)


def majority_rule() -> PlaceSelectionRule:
    """Retain trial n iff ones outnumber zeros in x_1..x_{n-1}: a rule that
    reads the trials and that ville asks per trial."""
    def mask(alphabet, past, start, stop):
        ones = np.concatenate([[0], np.cumsum(past, dtype=np.int64)])  # ones[i]: in x_1..x_i
        return 2 * ones[start:stop] > np.arange(start, stop)

    return PlaceSelectionRule("majority", mask)


PER_TRIAL_FAMILIES = {
    "library rule beside primes and after:1": [majority_rule(), primes_rule(),
                                               after_pattern_rule("1")],
    # ten trial-blind rules: the two past the 8 that pack into a position's
    # byte are asked per trial through their one-position windows
    "ten trial-blind rules and after:01": [
        *(rule_from_spec(s) for s in ("identity", "evens", "odds", "primes", "coin:7") * 2),
        after_pattern_rule("01"),
    ],
}


@pytest.mark.parametrize("name", PER_TRIAL_FAMILIES)
def test_ville_asks_the_rest_of_the_family_per_trial(name):
    family = PER_TRIAL_FAMILIES[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "VILLE_WINDOW", 61)
        bits, free, counts = collectives._ville_attempt(family, 2000, {17: 0, 400: 1})
    ref_bits, ref_free, ref_counts = ville_attempt_reference(family, 2000, {17: 0, 400: 1})
    assert bits.tobytes() == ref_bits.tobytes()
    assert (free, counts) == (ref_free, ref_counts)
    assert all(k > 0 for k, _ in counts)


def catalogue_rules() -> list[PlaceSelectionRule]:
    params = {"after": "10", "coin": 3}
    return [factory(params[name]) if nargs else factory()
            for name, (factory, nargs) in RULE_CATALOGUE.items()]


def test_trial_blind_declarations_hold_on_any_data():
    """A rule declaring reads_trials=False must give one mask per window
    whatever the trials are; ville_generator takes it before they exist."""
    n = CHUNK + 300
    datas = [np.zeros(n, dtype=np.uint8),
             np.random.default_rng(4).integers(0, 2, n).astype(np.uint8)]
    windows = [(0, 61), (61, 1000), (4093, 4099), (CHUNK - 7, CHUNK + 5), (CHUNK, n)]
    blind = [rule for rule in catalogue_rules() if not rule.reads_trials]
    assert sorted(rule.name for rule in blind) == ["coin", "evens", "identity", "odds", "primes"]
    for rule in blind:
        for start, stop in windows:
            zeros, noise = (collectives._window_mask(rule, BINARY, d, start, stop)
                            for d in datas)
            assert np.array_equal(zeros, noise), (rule.describe(), start)
    after = after_pattern_rule("10")
    assert after.reads_trials
    zeros, noise = (collectives._window_mask(after, BINARY, d, 0, 1000) for d in datas)
    assert not np.array_equal(zeros, noise)


def test_ville_peak_memory_stays_within_its_declared_bytes_per_trial():
    family = [rule_from_spec(s, default_seed=1) for s in ("identity", "primes", "after:10", "coin")]
    n = 100_000
    peak = traced_peak_mb(lambda: ville_generator(family, n)) * 2**20
    assert peak < collectives.VILLE_BYTES_PER_TRIAL * n


def test_scalar_coin_and_primes_deciders_cross_their_buffer_edges():
    """The reference deciders refill at multiples of 4096 draws and regrow
    their sieve past 4096 and 8192; the masks agree across those edges."""
    n = CHUNK + 5000
    data = np.zeros(n, dtype=np.uint8)
    for rule in (aux_coin_rule(3), primes_rule()):
        check_mask_contract(rule, data, [[], one_position_cuts(4096, 8192, 16384, CHUNK)],
                            reference_mask(rule, BINARY, data))


def test_majority_meets_the_mask_contract():
    data = seeded_bits(3000, 37).data
    check_mask_contract(majority_rule(), data,
                        [[], [1, 2, 61, 1000], range(0, 3000, 61), one_position_cuts(8, 1500, 2991)],
                        reference_mask(majority_rule(), BINARY, data))


def test_a_mask_cannot_read_the_trial_it_decides_on():
    """A rule's mask is handed x_1..x_{stop-1} only, so reading past[stop - 1]
    fails with IndexError in every command's path."""
    peek = PlaceSelectionRule(
        "peek", lambda alphabet, past, start, stop: np.full(stop - start, past[stop - 1] == 1))
    x = seeded_bits(3000, 5)
    with pytest.raises(IndexError):
        apply_selection(peek, x)
    with pytest.raises(IndexError):
        randomness_check(x, [identity_rule(), peek])
    with pytest.raises(IndexError):
        ville_generator([identity_rule(), peek], 100)


def test_a_trial_blind_mask_is_handed_no_trials():
    seen = []

    def mask(alphabet, past, start, stop):
        seen.append(len(past))
        return np.ones(stop - start, dtype=bool)

    blind = PlaceSelectionRule("blind", mask, reads_trials=False)
    x = seeded_bits(CHUNK + 10, 6)
    apply_selection(blind, x)
    randomness_check(x, [blind])
    ville_generator([blind] * 9, 500)  # eight packed ahead, the ninth asked per trial
    assert len(seen) > 500 and set(seen) == {0}


def test_ville_on_the_clibench_family_runs_under_a_second():
    family = [rule_from_spec(s, default_seed=1) for s in ("identity", "primes", "after:10", "coin")]
    start = time.perf_counter()
    x = ville_generator(family, 100_000)
    assert time.perf_counter() - start < 1.0
    assert len(x) == 100_000


# --- unit-interval map ----------------------------------------------------------------

def test_unit_interval_examples():
    zeros = TrialSequence.from_bits(np.zeros(10, dtype=np.int64))
    assert seq_to_unit_interval(zeros) == 0.0
    ones = TrialSequence.from_bits(np.ones(128, dtype=np.int64))
    assert seq_to_unit_interval(ones) == pytest.approx(1.0, abs=1e-15)
    assert seq_to_unit_interval(TrialSequence.from_bits(np.array([1, 0, 1]))) == 0.625


def test_unit_interval_requires_binary():
    with pytest.raises(InputError, match="binary"):
        seq_to_unit_interval(seeded_ternary(8, 0))


# --- memory of the read path -----------------------------------------------------------

@pytest.fixture(scope="module")
def raw_8mbit(tmp_path_factory):
    path = tmp_path_factory.mktemp("raw") / "uniform.raw"
    path.write_bytes(np.random.default_rng([1, 1]).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes())
    return path


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_randomness_on_8_mbit_peaks_under_64_mb(raw_8mbit):
    family = [rule_from_spec(s) for s in ("identity", "primes", "after:10", "coin:1")]
    peak = traced_peak_mb(lambda: randomness_check(read_sequence(raw_8mbit, "raw"), family))
    assert peak < 64


def test_randomness_on_8_mbit_peaks_under_6_mb_beyond_the_read(raw_8mbit):
    x = read_sequence(raw_8mbit, "raw")
    family = [rule_from_spec(s) for s in ("identity", "primes", "after:10", "coin:1")]
    assert traced_peak_mb(lambda: randomness_check(x, family)) < 6


def test_frequency_trace_of_8_mbit_peaks_under_32_mb(raw_8mbit):
    def trace():
        x = read_sequence(raw_8mbit, "raw")
        frequencies(x, log_checkpoints(len(x)))

    assert traced_peak_mb(trace) < 32


@pytest.fixture(scope="module")
def ternary_text(tmp_path_factory):
    """10^6 seeded trials over a, b, c in lines of 100."""
    chars = np.frombuffer(b"abc", dtype=np.uint8)[np.random.default_rng(3).integers(0, 3, 10**6)]
    path = tmp_path_factory.mktemp("ascii") / "ternary.txt"
    path.write_bytes(b"\n".join(chars[i:i + 100].tobytes() for i in range(0, 10**6, 100)))
    return path


BITSTREAM_COMMANDS = {
    "stabilize": ["stabilize", "RAW", "--format", "raw"],
    "randomness": ["randomness", "RAW", "--format", "raw",
                   "--rules", "identity,primes,after:10,coin", "--seed", "1"],
    "complexity": ["complexity", "RAW", "--format", "raw"],
    "battery": ["battery", "RAW", "--format", "raw"],
    "padic": ["padic", "RAW", "--format", "raw", "--label", "1"],
    "mix": ["mix", "TEXT", "--labels", "a,c"],
    "select": ["select", "TEXT", "--rules", "identity,evens,after:ab,coin", "--seed", "1"],
}


@pytest.mark.parametrize("name", BITSTREAM_COMMANDS)
def test_bitstream_commands_hold_one_bit_per_binary_trial(name, raw_8mbit, ternary_text,
                                                          tmp_path):
    """Each command of the benchmark's bitstream workload, run in-process on
    its 8 Mbit raw input (n = 2^23 trials) or 10^6-trial text, allocates at
    most n/8 bytes of packed trials plus 16 CHUNKs of window temporaries,
    or 3 MB on the text: no byte per trial, so no command reads
    TrialSequence.data of its input.  A first run on a small input loads the
    modules outside the traced run."""
    from collectiva.cli import main

    small_raw, small_text = tmp_path / "small.raw", tmp_path / "small.txt"
    small_raw.write_bytes(bytes(range(256)) * 4)
    small_text.write_text("abc" * 400)
    argv = BITSTREAM_COMMANDS[name]
    warm = [{"RAW": str(small_raw), "TEXT": str(small_text)}.get(a, a) for a in argv]
    assert main([*warm, "--out", str(tmp_path / "warm.json")]) == 0
    full = [{"RAW": str(raw_8mbit), "TEXT": str(ternary_text)}.get(a, a) for a in argv]
    code = []
    peak = traced_peak_mb(lambda: code.append(main([*full, "--out", str(tmp_path / "r.json")])))
    assert code == [0]
    bound = 3.0 if "TEXT" in argv else ((1 << 23) // 8 + 16 * CHUNK) / 2**20
    assert peak < bound, (name, peak)


def test_randomness_over_256_labels_holds_a_few_chunks_of_temporaries():
    """The base and three rules counted over 10^6 trials of 256 labels take
    at most 4 CHUNK bytes of temporaries: np.bincount's 8-byte copy of its
    input is made CHUNK / 8 trials at a time, not for a whole window."""
    alphabet = LabelAlphabet(tuple(f"s{i}" for i in range(256)))
    x = TrialSequence(alphabet, np.random.default_rng(4).integers(0, 256, 10**6))
    family = [rule_from_spec(s) for s in ("identity", "primes", "coin:1")]
    randomness_check(x, family)  # loads the rules' modules outside the traced run
    assert traced_peak_mb(lambda: randomness_check(x, family)) * 2**20 < 4 * CHUNK


READING_COMMANDS = {  # argv, and the trials read per input trial
    "stabilize": (["stabilize", "RAW", "--format", "raw"], 1),
    "padic": (["padic", "RAW", "--format", "raw", "--label", "1"], 1),
    "randomness": (["randomness", "RAW", "--format", "raw", "--rules", "identity,primes,coin"], 1),
    "select": (["select", "TEXT", "--rules", "identity,evens,coin"], 1),
    "mix": (["mix", "TEXT", "--labels", "a,c"], 3),  # the input, the mixed sequence, the input
}


@pytest.mark.parametrize("name", READING_COMMANDS)
def test_each_command_counts_a_sequence_in_one_pass(name, tmp_path, monkeypatch):
    """The trials each command reads through TrialSequence.trials, leaving
    out the past that rules read through TrialPrefix: one pass over each
    sequence it counts, whatever its labels and rules."""
    from collectiva.cli import main

    raw, text = tmp_path / "in.raw", tmp_path / "in.txt"
    raw.write_bytes(np.random.default_rng(7).integers(0, 256, 4096, dtype=np.uint8).tobytes())
    text.write_bytes(np.frombuffer(b"abc", np.uint8)[np.random.default_rng(8).integers(0, 3, 3000)])
    argv, passes = READING_COMMANDS[name]
    n = 8 * 4096 if "RAW" in argv else 3000
    trials, read = TrialSequence.trials, []
    rule_reads = {TrialPrefix.__getitem__.__code__, TrialPrefix.__array__.__code__}

    def counted(self, start=0, stop=None):
        out = trials(self, start, stop)
        if sys._getframe(1).f_code not in rule_reads:
            read.append(len(out))
        return out

    monkeypatch.setattr(TrialSequence, "trials", counted)
    full = [{"RAW": str(raw), "TEXT": str(text)}.get(a, a) for a in argv]
    assert main([*full, "--out", str(tmp_path / "r.json")]) == 0
    assert sum(read) == passes * n


def test_min_count_below_one_is_rejected_by_name():
    x = TrialSequence(BINARY, np.array([0, 1, 1], dtype=np.uint8))
    with pytest.raises(InputError, match="min_count"):
        randomness_check(x, [after_pattern_rule("111")], min_length=0)
    with pytest.raises(InputError, match="min_count"):
        ville_generator([after_pattern_rule("11")], 3, min_count=0)


def test_ville_derives_min_count_in_floats():
    assert collectives._derived_min_count(Fraction(1, 100)) == 200
    assert collectives._derived_min_count(Fraction(1, 3)) == 30
    assert collectives._derived_min_count(Fraction(10**999)) == 30  # past the float range
    for tiny in (Fraction(1, 10**400), Fraction(1, 10**310)):  # 2/eps is not finite
        with pytest.raises(InputError, match="min_count"):
            collectives._derived_min_count(tiny)
    x = ville_generator([aux_coin_rule(5)], 3, epsilon=Fraction(10**999))
    assert len(x) == 3
