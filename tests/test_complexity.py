"""Compression-based complexity proxies, rate curves, dip scanning, the
finite randomness-test battery, and the measured codec constants."""

import math
import os
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectiva import complexity
from collectiva import collectives
from collectiva.collectives import BINARY, CHUNK, LabelAlphabet, TrialSequence
from collectiva.complexity import (
    Codec,
    arith_codec,
    as_bits,
    battery_passed,
    block_frequency_test,
    chi2_sf,
    codec_invariance_constant,
    complexity_rate_curve,
    deflate_codec,
    default_prefix_lengths,
    estimate_K,
    estimate_K_conditional,
    header_bits,
    is_dip,
    longest_run_test,
    martin_lof_dip_scan,
    monobit_test,
    pack_bits,
    run_battery,
    runs_test,
    subadditivity_constant,
    without_header,
)
from collectiva.errors import CodecIntegrityError, InputError

from _oracles import (
    UnpackedSequence,
    alternating_runs_p,
    bit_transitions,
    block_frequency_chi2,
    block_ones,
    longest_run_chi2,
    longest_runs_by_column,
    monobit_p,
    per_prefix_curve,
)


def random_bits(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.int64).astype(np.uint8)


def corpus() -> list[np.ndarray]:
    alt = (np.arange(1024) % 2).astype(np.uint8)
    period4 = np.tile(np.array([0, 1, 1, 0], dtype=np.uint8), 256)
    return [
        np.zeros(1024, dtype=np.uint8),
        np.ones(1024, dtype=np.uint8),
        alt,
        period4,
        random_bits(2048, 1),
        random_bits(2048, 2),
        random_bits(512, 3),
    ]


# --- bit normalization ----------------------------------------------------------

def test_as_bits_accepts_common_shapes():
    assert np.array_equal(as_bits("1011"), np.array([1, 0, 1, 1], dtype=np.uint8))
    assert np.array_equal(as_bits([0, 1]), np.array([0, 1], dtype=np.uint8))
    x = TrialSequence.from_bits(np.array([1, 1, 0]))
    assert np.array_equal(as_bits(x), np.array([1, 1, 0], dtype=np.uint8))
    assert np.array_equal(as_bits([0.0, 1.0, 1.0]), np.array([0, 1, 1], dtype=np.uint8))
    assert np.array_equal(as_bits([True, False]), np.array([1, 0], dtype=np.uint8))


def test_as_bits_rejects_bad_input():
    with pytest.raises(InputError, match="binary"):
        as_bits(TrialSequence(LabelAlphabet(("a", "b", "c")), np.array([0, 2])))
    with pytest.raises(InputError, match="nonempty"):
        as_bits([])
    # none may be truncated or wrapped into a word the caller never gave
    for word in ([0, 2], [0.5, 1.7, 0.2], [0, 1, 0.999], [-1, 0], [256, 1], [0, 1, 2**70],
                 [0, float("nan")], [1, float("inf")], ["0", "1"], [None, 1], "01x"):
        with pytest.raises(InputError, match="only 0s and 1s"):
            as_bits(word)
        with pytest.raises(InputError, match="only 0s and 1s"):
            estimate_K(word)


def test_pack_bits_is_msb_first():
    assert pack_bits(np.array([1, 0, 1], dtype=np.uint8)) == bytes([0b10100000])
    assert pack_bits(np.ones(8, dtype=np.uint8)) == b"\xff"


# --- codecs ----------------------------------------------------------------------

@pytest.mark.parametrize("make", [deflate_codec, arith_codec])
def test_codec_round_trip_on_corpus(make):
    codec = make()
    for w in corpus():
        data = pack_bits(w)
        assert codec.decompress(codec.compress(data)) == data
    assert codec.decompress(codec.compress(b"")) == b""


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=80, deadline=None)
def test_codec_round_trip_on_arbitrary_bytes(data):
    for make in (deflate_codec, arith_codec):
        codec = make()
        assert codec.decompress(codec.compress(data)) == data


def one_shot_deflate(data: bytes) -> bytes:
    co = zlib.compressobj(9, zlib.DEFLATED, -15)
    return co.compress(data) + co.flush()


@pytest.mark.parametrize("name", ["random", "all-zero run", "1 bit per byte", "10% ones packed"])
def test_deflate_in_chunks_equals_the_one_shot_stream(monkeypatch, name):
    """Fed in steps of a small CHUNK, over three of them and a remainder."""
    monkeypatch.setattr(complexity, "CHUNK", 4096)
    rng = np.random.default_rng(52)
    n = 3 * 4096 + 1234
    data = {
        "random": lambda: rng.integers(0, 256, n, dtype=np.uint8).tobytes(),
        "all-zero run": lambda: bytes(n),
        "1 bit per byte": lambda: rng.integers(0, 2, n, dtype=np.uint8).tobytes(),
        "10% ones packed": lambda: pack_bits(rng.random(8 * n) < 0.1),
    }[name]()
    assert deflate_codec().compress(data) == one_shot_deflate(data)


def test_deflate_holds_its_output_once():
    """The compressed word and a few CHUNKs of compressor state and pieces;
    the one-shot stream held it twice over (2.6 MB here)."""
    data = np.random.default_rng(53).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    tracemalloc.start()
    try:
        out = deflate_codec().compress(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(out) + 4 * CHUNK
    assert out == one_shot_deflate(data)


def test_codecs_are_deterministic():
    data = pack_bits(random_bits(4096, 9))
    for make in (deflate_codec, arith_codec):
        codec = make()
        assert codec.compress(data) == codec.compress(data)


def test_broken_codec_is_caught():
    base = deflate_codec()
    lossy = Codec("lossy", base.stream, lambda blob: [base.decompress(blob)[:-1]])
    with pytest.raises(CodecIntegrityError, match="round-trip"):
        estimate_K(random_bits(256, 0), lossy)
    padded = Codec("padded", base.stream, lambda blob: [*base.pieces(blob), b"\0"])
    with pytest.raises(CodecIntegrityError, match="round-trip"):
        estimate_K(random_bits(256, 0), padded)
    assert estimate_K(random_bits(256, 0), lossy, verify=False).k_hat == \
        estimate_K(random_bits(256, 0)).k_hat


# --- complexity estimates ----------------------------------------------------------

def test_header_overhead_is_small_and_monotone():
    assert header_bits(1) == 4
    sizes = [header_bits(n) for n in (1, 2, 64, 4096, 2**20)]
    assert sizes == sorted(sizes)
    assert header_bits(2**20) <= 2 * math.ceil(math.log2(2**20 + 1)) + 11
    with pytest.raises(InputError):
        header_bits(0)


def test_zeros_word_has_low_rate():
    est = estimate_K(np.zeros(32768, dtype=np.uint8))
    assert est.n_bits == 32768
    assert est.rate < 0.1
    assert "upper bound" in est.note


def test_single_bit_word_estimate_is_at_least_one():
    assert estimate_K(np.array([0], dtype=np.uint8)).k_hat >= 1


def test_random_word_costs_at_least_five_times_the_zeros_word():
    k_random = estimate_K(random_bits(32768, 7)).k_hat
    k_zeros = estimate_K(np.zeros(32768, dtype=np.uint8)).k_hat
    assert k_random / k_zeros >= 5


def test_conditional_estimate_drops_exactly_the_header():
    for w in corpus():
        full = estimate_K(w)
        cond = estimate_K_conditional(w, w.size)
        assert cond.k_hat <= full.k_hat
        assert full.k_hat - cond.k_hat == header_bits(w.size)
        assert cond.conditional and not full.conditional


def test_conditional_length_mismatch():
    with pytest.raises(InputError, match="declared length"):
        estimate_K_conditional(np.zeros(16, dtype=np.uint8), 17)


def test_conditional_rates_separate_structure_from_noise():
    zeros = estimate_K_conditional(np.zeros(4096, dtype=np.uint8), 4096)
    rand = estimate_K_conditional(random_bits(4096, 11), 4096)
    assert zeros.k_hat < 0.1 * 4096
    assert rand.k_hat / 4096 >= 0.9


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_conditioning_never_increases_the_estimate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2000))
    w = (rng.random(n) < rng.random()).astype(np.uint8)
    assert estimate_K_conditional(w, n).k_hat <= estimate_K(w).k_hat


# --- rate curves and dips ------------------------------------------------------------

def test_periodic_word_rate_curve_decreases_to_structure():
    word = np.tile(np.array([0, 1], dtype=np.uint8), 2**14)
    curve = complexity_rate_curve(word)
    rates = [e.rate for e in curve]
    assert rates[-1] < 0.1
    assert rates[-1] < rates[0]


def test_random_word_rate_curve_stays_high():
    curve = complexity_rate_curve(random_bits(2**14, 5))
    assert all(e.rate >= 0.9 for e in curve)


def test_constant_word_rate_curve_collapses():
    curve = complexity_rate_curve(np.zeros(2**14, dtype=np.uint8))
    assert curve[-1].rate < 0.05


def test_rate_curve_validation():
    w = random_bits(256, 0)
    with pytest.raises(InputError, match="strictly increasing"):
        complexity_rate_curve(w, [64, 64])
    with pytest.raises(InputError, match="beyond the word"):
        complexity_rate_curve(w, [512])


def test_default_prefix_lengths_double_up_to_n():
    assert default_prefix_lengths(1000) == (64, 128, 256, 512, 1000)
    assert default_prefix_lengths(64) == (64,)


def test_zeros_word_dips_at_every_scanned_length():
    word = np.zeros(2**15, dtype=np.uint8)
    ns = default_prefix_lengths(word.size)
    assert martin_lof_dip_scan(word, ns) == [n for n in ns if n >= 64]


def test_two_bit_words_never_dip():
    # at n=2 the threshold is 2 - 1 = 1 bit and every estimate is >= 1
    for word in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert martin_lof_dip_scan(np.array(word, dtype=np.uint8), [2]) == []


def test_random_word_dip_scan_runs_and_stays_within_scanned_set():
    word = random_bits(2**14, 13)
    ns = default_prefix_lengths(word.size)
    dips = martin_lof_dip_scan(word, ns)
    assert set(dips) <= set(ns)


def test_the_curve_gives_the_dip_scan_and_the_conditional_estimates():
    for w in corpus() + [np.zeros(2**15, dtype=np.uint8), random_bits(3000, 4)]:
        curve = complexity_rate_curve(w)
        assert curve[-1] == estimate_K(w)
        assert without_header(curve[-1]) == estimate_K_conditional(w, w.size)
        assert [e.n_bits for e in curve if is_dip(without_header(e))] == martin_lof_dip_scan(w)


def test_rate_curve_round_trips_only_the_whole_word():
    base = deflate_codec()
    decompressed = []
    codec = Codec(base.name, base.stream, lambda blob: decompressed.append(bytes(blob)) or
                  base.pieces(blob))
    w = random_bits(5000, 8)
    assert complexity_rate_curve(w, codec=codec) == complexity_rate_curve(w)
    assert decompressed == [bytes(base.compress(pack_bits(w)))]
    assert complexity_rate_curve(w, [64, 128], codec)
    assert len(decompressed) == 1
    lossy = Codec("lossy", base.stream, lambda blob: [b""])
    assert complexity_rate_curve(w, [64, 128], lossy)
    with pytest.raises(CodecIntegrityError, match="round-trip"):
        complexity_rate_curve(w, codec=lossy)


# COLLECTIVA_FUZZ_EXAMPLES=500 runs the curve-against-oracle test with the CLI fuzz gate
CURVE_EXAMPLES = int(os.environ.get("COLLECTIVA_FUZZ_EXAMPLES", "30"))


@st.composite
def words_and_prefixes(draw):
    """A biased, periodic or uniform word of 1 to 5000 bits and a strictly
    increasing list of its prefix lengths, one of them not a whole byte."""
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["biased", "periodic", "uniform"]))
    if kind == "biased":
        bits = rng.random(n) < draw(st.sampled_from([0.01, 0.1, 0.9, 0.99]))
    elif kind == "periodic":
        bits = np.resize(rng.integers(0, 2, draw(st.integers(1, 40))), n)
    else:
        bits = rng.integers(0, 2, n)
    ns = draw(st.sets(st.integers(1, n), max_size=8))
    ns.add(draw(st.integers(1, n).filter(lambda k: k % 8)))
    if draw(st.booleans()):
        ns.add(n)
    return bits.astype(np.uint8), sorted(ns)


@settings(max_examples=CURVE_EXAMPLES, deadline=None)
@given(case=words_and_prefixes(), chunk=st.integers(1, 64))
def test_the_one_stream_curve_is_per_prefix_compression(case, chunk):
    """Each prefix's flushed copy of the one stream gives the estimate that
    compressing the prefix from scratch gives, and feeding and flushing a
    copy leaves the stream's own later output unchanged."""
    bits, ns = case
    data = pack_bits(bits)
    cut = ns[0] >> 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "CHUNK", chunk)
        for codec in (deflate_codec(), arith_codec()):
            assert complexity_rate_curve(bits, ns, codec) == per_prefix_curve(bits, ns, codec)
            co = codec.stream()
            out = co.compress(data[:cut])
            twin = co.copy()
            twin.compress(data[cut:cut + 1])
            twin.flush()
            assert out + co.compress(data[cut:]) + co.flush() == codec.compress(data)


def test_dip_scan_validation():
    with pytest.raises(InputError, match=">= 2"):
        martin_lof_dip_scan(np.zeros(16, dtype=np.uint8), [1, 2])


# --- battery -------------------------------------------------------------------------

def test_alternating_word_passes_monobit_but_fails_runs():
    word = (np.arange(10**4) % 2).astype(np.uint8)
    results = {r.name: r for r in run_battery(word, significance=0.01)}
    assert results["monobit"].passed
    assert not results["runs"].passed
    assert results["runs"].p_value < 1e-6
    assert results["runs"].p_value == pytest.approx(alternating_runs_p(10**4), abs=1e-12)
    assert not battery_passed(list(results.values()))


def test_all_zeros_fails_monobit():
    results = {r.name: r for r in run_battery(np.zeros(10**4, dtype=np.uint8))}
    assert not results["monobit"].passed
    assert results["monobit"].p_value == pytest.approx(0.0, abs=1e-12)


def test_monobit_p_value_matches_closed_form():
    word = random_bits(5000, 3)
    r = monobit_test(word)
    assert r.p_value == pytest.approx(monobit_p(int(word.sum()), word.size), rel=1e-12)
    assert 0.0 <= r.p_value <= 1.0


def test_runs_test_requires_balanced_frequency():
    word = (np.random.default_rng(0).random(1000) < 0.9).astype(np.uint8)
    r = runs_test(word)
    assert r.p_value == 0.0
    assert "prerequisite" in r.note


def test_short_words_are_skipped_not_failed():
    results = run_battery(np.zeros(64, dtype=np.uint8))
    assert all(r.skipped for r in results)
    assert all(r.passed is None for r in results)
    assert battery_passed(results)  # vacuous: nothing executed


def test_block_and_longest_run_thresholds():
    assert block_frequency_test(np.zeros(100, dtype=np.uint8)).skipped
    assert longest_run_test(np.zeros(100, dtype=np.uint8)).skipped


def test_pass_flag_matches_significance():
    for r in run_battery(random_bits(10**4, 21), significance=0.01):
        if not r.skipped:
            assert r.passed == (r.p_value >= 0.01)
            assert 0.0 <= r.p_value <= 1.0


def test_runs_statistic_counts_transitions_across_chunks():
    word = random_bits(3 * CHUNK + 5, 17)
    for w in (word, word[:CHUNK], word[:CHUNK + 1], word[:CHUNK + 2]):
        assert runs_test(w).statistic == 1 + np.count_nonzero(np.diff(w))


@pytest.mark.parametrize("n", [128, 1000, 6271, 6272, 10**5 + 3, 750000])
@pytest.mark.parametrize("kind", ["random", "zeros", "ones", "alternating", "biased"])
def test_longest_run_counts_match_the_per_column_scan(n, kind):
    rng = np.random.default_rng(n)
    word = {"random": lambda: rng.integers(0, 2, n, dtype=np.uint8),
            "zeros": lambda: np.zeros(n, dtype=np.uint8),
            "ones": lambda: np.ones(n, dtype=np.uint8),
            "alternating": lambda: (np.arange(n) % 2).astype(np.uint8),
            "biased": lambda: (rng.random(n) < 0.9).astype(np.uint8)}[kind]()
    r = longest_run_test(word)
    for min_n, m, lo, hi, pis in complexity._LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m
    counts = np.bincount(np.clip(longest_runs_by_column(word, m), lo, hi) - lo,
                         minlength=hi - lo + 1)
    expected = nblocks * np.asarray(pis)
    assert r.statistic == float(((counts - expected) ** 2 / expected).sum())


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3000).filter(lambda n: n % 8),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0.02, 0.5, 0.97]),
    chunk=st.integers(8, 300),
)
def test_curve_and_battery_on_the_packed_store_equal_them_on_the_unpacked_reference(
        n, seed, p, chunk):
    bits = (np.random.default_rng(seed).random(n) < p).astype(np.uint8)
    word, ref = TrialSequence(BINARY, bits), UnpackedSequence(BINARY, bits)
    ns = sorted({k for k in (1, 2, 7, 9, n // 3, n - 1, n) if 1 <= k <= n})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collectives, "CHUNK", chunk)
        mp.setattr(complexity, "CHUNK", chunk)
        assert complexity_rate_curve(word, ns) == complexity_rate_curve(ref, ns)
        assert complexity_rate_curve(word, [n]) == [estimate_K(bits)]
        dips = [k for k in ns if k >= 2]
        assert martin_lof_dip_scan(word, dips) == martin_lof_dip_scan(ref, dips)
        for test in (monobit_test, runs_test, longest_run_test, block_frequency_test,
                     lambda w: block_frequency_test(w, 7)):
            assert test(word) == test(ref)
        for block in (7, 128):
            r = block_frequency_test(word, block)
            assert r.skipped or r.statistic == block_frequency_chi2(bits, block)
        assert run_battery(word) == run_battery(ref)


# COLLECTIVA_FUZZ_EXAMPLES=500 runs the battery-kernel property test with the CLI fuzz gate
BATTERY_KERNEL_EXAMPLES = int(os.environ.get("COLLECTIVA_FUZZ_EXAMPLES", "60"))


@settings(max_examples=BATTERY_KERNEL_EXAMPLES, deadline=None)
@given(
    n=st.integers(1, 3000).filter(lambda n: n % 8),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0.02, 0.5, 0.97]),
    chunk=st.integers(1, 300),
    block=st.sampled_from([1, 7, 8, 13, 100, 128]),
)
def test_battery_counts_equal_the_numpy_oracles(n, seed, p, chunk, block):
    """The runs test's transitions, the per-block counts of ones and the
    block-frequency and longest-run statistics, on the packed store and on
    the unpacked reference, equal them computed on the unpacked bits."""
    bits = (np.random.default_rng(seed).random(n) < p).astype(np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "CHUNK", chunk)
        for word in (TrialSequence(BINARY, bits), UnpackedSequence(BINARY, bits)):
            assert complexity._transitions(word) == bit_transitions(bits)
            assert [b.bit_count() for b in complexity._bit_blocks(word, block)] == \
                block_ones(bits, block)
            r = block_frequency_test(word, block)
            assert r.skipped or r.statistic == block_frequency_chi2(bits, block)
            r = longest_run_test(word)
            assert r.skipped or r.statistic == longest_run_chi2(bits, complexity._LONGEST_RUN_TABLES)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 129])
def test_block_frequency_windows_sum_as_the_whole_word(n):
    bits = random_bits(n, n)
    for block in (128, 100, 10**4):
        assert block_frequency_test(bits, block).statistic == block_frequency_chi2(bits, block)


def test_battery_on_one_hundred_seeded_uniform_megabit_words():
    passed = 0
    for seed in range(200, 300):
        word = random_bits(10**6, seed)
        if battery_passed(run_battery(word, significance=0.01)):
            passed += 1
    assert passed >= 95


# --- measured constants ---------------------------------------------------------------

def test_codec_invariance_constant_bounds_both_directions():
    words = corpus()
    c = codec_invariance_constant(words, deflate_codec(), arith_codec())
    assert c == codec_invariance_constant(words, deflate_codec(), arith_codec())
    for w in words:
        ka = estimate_K(w, deflate_codec()).k_hat
        kb = estimate_K(w, arith_codec()).k_hat
        assert ka <= kb + c
        assert kb <= ka + c


def test_subadditivity_constant_is_measured_and_stable():
    words = corpus()
    c = subadditivity_constant(words)
    assert c == subadditivity_constant(words)
    for a in words[:3]:
        for b in words[:3]:
            joint = estimate_K(np.concatenate([a, b])).k_hat
            assert joint <= estimate_K(a).k_hat + estimate_K(b).k_hat + c


@pytest.mark.parametrize("make", [deflate_codec, arith_codec])
@pytest.mark.parametrize("words", [corpus(), corpus()[:3], corpus()[4:5]])
def test_subadditivity_constant_is_the_max_over_every_pair(words, make):
    k = {id(w): estimate_K(w, make()).k_hat for w in words}
    assert subadditivity_constant(words, make()) == max(
        estimate_K(np.concatenate([a, b]), make()).k_hat - k[id(a)] - k[id(b)]
        for a in words for b in words)


def test_subadditivity_constant_rejects_an_empty_corpus():
    with pytest.raises(InputError, match="nonempty corpus"):
        subadditivity_constant([])


def test_verified_estimates_compress_once():
    """One stream and one round trip per verified estimate; the curve, and so
    the dip scan, one stream for every prefix and one round trip of the word."""
    base = deflate_codec()
    calls = {"stream": 0, "pieces": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    codec = Codec(base.name, counted("stream", base.stream), counted("pieces", base.pieces))
    bits = random_bits(4096, 3)
    assert estimate_K(bits, codec) == estimate_K(bits, base, verify=False)
    assert estimate_K_conditional(bits, 4096, codec) == \
        estimate_K_conditional(bits, 4096, base, verify=False)
    assert calls == {"stream": 2, "pieces": 2}
    assert estimate_K(bits, codec, verify=False) == estimate_K(bits, base)
    assert calls == {"stream": 3, "pieces": 2}
    assert complexity_rate_curve(bits, codec=codec) == complexity_rate_curve(bits)
    assert martin_lof_dip_scan(bits, codec=codec) == martin_lof_dip_scan(bits)
    assert calls == {"stream": 5, "pieces": 4}


# --- closed-form chi-square tails ------------------------------------------------------

def chi2_grid(dof: int) -> list[float]:
    """chi2 values across the bulk and both tails of chi-square(dof)."""
    sd = math.sqrt(2 * dof)
    xs = [dof + z * sd for z in (-8, -5, -3, -2, -1, -0.5, 0, 0.25, 1, 2, 3, 5, 8, 12, 20, 30)]
    xs += [dof * f for f in (0.01, 0.2, 0.5, 0.9, 1.1, 2, 3)] + [1e-9, 1e-3, 0.5, 2.0]
    return [x for x in xs if x > 0]


CHI2_DOFS = sorted({*range(1, 17),
                    *(n // 128 for n in (128, 1000, 6272, 10**5, 10**6, 1 << 23, 1 << 24)),
                    *(2 * (n // 128) for n in (1000, 10**6, 1 << 23, 1 << 24))})


def test_chi2_sf_matches_scipy_gammaincc():
    special = pytest.importorskip("scipy.special")
    worst = 0.0
    for dof in CHI2_DOFS:
        for x in chi2_grid(dof):
            want = float(special.gammaincc(dof / 2, x / 2))
            if want < 1e-300:
                continue
            worst = max(worst, abs(chi2_sf(x, dof) - want) / want)
    assert worst <= 1e-9


def test_chi2_sf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    cases = [(x, dof) for dof in CHI2_DOFS for x in chi2_grid(dof)]
    # block frequency of clibench's 8 Mbit word at seed 1
    cases.append((65189.75, 65536))
    worst = 0.0
    for x, dof in cases:
        want = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                               regularized=True)
        if want < mpmath.mpf("1e-300"):
            continue
        worst = max(worst, float(abs((chi2_sf(x, dof) - want) / want)))
    assert worst <= 1e-12
    assert chi2_sf(65189.75, 65536) == pytest.approx(0.8305237020027325, rel=1e-15)


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(1e6, 4) == 0.0
    assert chi2_sf(2.0, 2) == pytest.approx(math.exp(-1), rel=1e-15)
    assert chi2_sf(2.0, 1) == pytest.approx(math.erfc(1), rel=1e-15)
    with pytest.raises(InputError, match="dof"):
        chi2_sf(1.0, 0)


def test_battery_on_8_mbit_peaks_under_6_mb_beyond_the_word():
    word = np.unpackbits(np.random.default_rng([1, 1]).integers(0, 256, 1 << 20, dtype=np.uint8))
    tracemalloc.start()
    try:
        results = run_battery(word)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert not any(r.skipped for r in results)
    assert peak < 6
