"""Independent cross-check implementations used only by the tests.

Each function here recomputes a result by a *different* method than the
library (set-theoretic fixpoints, interval arithmetic, closed forms), so a
test agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import erfc

from collectiva.collectives import BINARY, TrialSequence, index_dtype
from collectiva.complexity import ComplexityEstimate, as_bits, header_bits
from collectiva.errors import InputError
from collectiva.marginals import FLOAT_SLACK, marginalize


# --- set-algebra closure by literal fixpoint ------------------------------------

def closure_fixpoint(n_atoms: int, generator_masks) -> frozenset[int]:
    """Smallest collection of subsets (as bitmasks) containing the generators
    and closed under union, intersection, and complement."""
    full = (1 << n_atoms) - 1
    current = set(int(g) for g in generator_masks) | {0, full}
    while True:
        new = set(current)
        for a in current:
            new.add(full & ~a)
            for b in current:
                new.add(a | b)
                new.add(a & b)
        if new == current:
            return frozenset(current)
        current = new


# --- three-observable correlation polytope ---------------------------------------

def tetrahedron_facets() -> frozenset:
    """The four documented facets of the pair-correlation body of three
    +-1 observables, as (c, 1) rows over coordinates (E12, E13, E23):
    the sum and each 'odd one out' sign pattern."""
    rows = set()
    for signs in ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        rows.add((tuple(Fraction(s) for s in signs), Fraction(1)))
    return frozenset(rows)


def triangle_facets_4() -> frozenset:
    """Facets of the 4-observable pair-correlation body over coordinates
    ordered (E12, E13, E14, E23, E24, E34): for every triple {i<j<k} and
    every sign pattern with an even number of -1s, -(s1 Eij + s2 Eik +
    s3 Ejk) <= 1 ... equivalently c . E <= 1 with c supported on one
    triangle and an odd number of +1 entries negated.  Derived by the same
    vertex reasoning as the 3-observable case, independently of the
    library's nullspace enumeration."""
    pairs = list(itertools.combinations(range(4), 2))
    rows = set()
    for tri in itertools.combinations(range(4), 3):
        i, j, k = tri
        idx = (pairs.index((i, j)), pairs.index((i, k)), pairs.index((j, k)))
        for signs in ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
            c = [Fraction(0)] * len(pairs)
            for pos, s in zip(idx, signs):
                c[pos] = Fraction(s)
            rows.add((tuple(c), Fraction(1)))
    return frozenset(rows)


def pair_feasible_interval(e12, e23, e13) -> bool:
    """Feasibility of a joint over the 8 sign assignments with zero means,
    decided by interval arithmetic on the unconstrained triple moment t:
    each assignment's mass is (1 + s1s2 e12 + s2s3 e23 + s1s3 e13
    + s1s2s3 t)/8, so nonnegativity is an interval condition on t."""
    e12, e23, e13 = Fraction(e12), Fraction(e23), Fraction(e13)
    lower, upper = [], []
    for s1, s2, s3 in itertools.product((1, -1), repeat=3):
        base = 1 + s1 * s2 * e12 + s2 * s3 * e23 + s1 * s3 * e13
        sigma = s1 * s2 * s3
        if sigma == 1:
            lower.append(-base)
        else:
            upper.append(base)
    return max(lower) <= min(upper)


def correlations_of_joint(mass8) -> tuple:
    """(E12, E23, E13) of a pmf over the 8 sign assignments of (a1,a2,a3),
    mass indexed by tuples in itertools.product((1,-1), repeat=3)."""
    e12 = e23 = e13 = Fraction(0)
    for (s1, s2, s3), m in mass8.items():
        e12 += s1 * s2 * m
        e23 += s2 * s3 * m
        e13 += s1 * s3 * m
    return e12, e23, e13


# --- marginal feasibility: dense exact simplex over one row per cell -------------

def _phase1_simplex(A: list[list[Fraction]], b: list[Fraction]):
    """Exact feasibility of {Ax = b, x >= 0} (b >= 0) via phase-1 simplex.

    Bland's rule; artificial columns are dropped once they leave the basis.
    Returns the basic feasible solution as a dict var->Fraction, or None.
    """
    m, n = len(A), len(A[0])
    T = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    basis = list(range(n, n + m))
    obj = [-sum(T[i][j] for i in range(m)) for j in range(n + 1)]
    while True:
        enter = next((j for j in range(n) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][n] / T[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise AssertionError("phase-1 objective unbounded (cannot happen)")
        r = best[1]
        piv = T[r][enter]
        T[r] = [v / piv for v in T[r]]
        for i in range(m):
            if i != r and T[i][enter]:
                f = T[i][enter]
                T[i] = [u - f * v for u, v in zip(T[i], T[r])]
        if obj[enter]:
            f = obj[enter]
            obj = [u - f * v for u, v in zip(obj, T[r])]
        basis[r] = enter
    if obj[n] != 0:
        return None
    x = {j: Fraction(0) for j in range(n)}
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[i][n]
    return x


def simplex_feasible(family) -> bool:
    """Does one joint pmf reproduce every marginal of an exact family?
    Decided by a dense Fraction phase-1 simplex over the full system, one
    row per marginal cell plus the total-mass row, built atom by atom --
    no LP proposal, no certificate and no sparse index arithmetic."""
    names = family.observables()
    ranges = {o: family.range_of(o) for o in names}
    tuples = list(itertools.product(*(ranges[o] for o in names)))
    rows, rhs = [], []
    for p in family.pmfs:
        pos = [names.index(o) for o in p.observables]
        for sub in p.support():
            rows.append([int(tuple(t[i] for i in pos) == sub) for t in tuples])
            rhs.append(Fraction(p.prob(sub)))
    rows.append([1] * len(tuples))
    rhs.append(Fraction(1))
    return _phase1_simplex(rows, rhs) is not None


def max_deviation_on_own_support(p, q, perm=None) -> tuple:
    """max |p(t) - q(t')| over p's own range product, t' being t reordered by `perm`, and
    whether it exceeds the slack: the pairwise walk the overlap pass replaced, which misses
    a cell only q's range holds."""
    exact = p.exact and q.exact
    dev = Fraction(0) if exact else 0.0
    for t in p.support():
        dev = max(dev, abs(p.prob(t) - q.prob(t if perm is None else tuple(t[i] for i in perm))))
    return dev, dev > (0 if exact else FLOAT_SLACK)


def pairwise_no_signaling(family) -> tuple[bool, list]:
    """check_no_signaling by marginalizing both pmfs of every overlapping pair afresh."""
    violations = []
    for pa, pb in itertools.combinations(family.pmfs, 2):
        common = tuple(sorted(set(pa.observables) & set(pb.observables)))
        if not common:
            continue
        dev, bad = max_deviation_on_own_support(marginalize(pa, common), marginalize(pb, common))
        if bad:
            violations.append((pa.observables, pb.observables, common, dev))
    return not violations, violations


def walked_kolmogorov(family) -> tuple[bool, list]:
    """kolmogorov_consistency by its own walk: pairs on one index set compared through the
    permutation, then every ordered pair whose second index set lies in the first's."""
    violations = []
    for pa, pb in itertools.combinations(family.pmfs, 2):
        if set(pa.observables) == set(pb.observables):
            perm = [pa.observables.index(o) for o in pb.observables]
            dev, bad = max_deviation_on_own_support(pa, pb, perm)
            if bad:
                violations.append(("permutation", pa.observables, pb.observables, dev))
    for pa, pb in itertools.permutations(family.pmfs, 2):
        if set(pb.observables) < set(pa.observables):
            dev, bad = max_deviation_on_own_support(pb, marginalize(pa, pb.observables))
            if bad:
                violations.append(("projection", pa.observables, pb.observables, dev))
    return not violations, violations


def fraction_row_reduce(T: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ncols columns of T in Fractions, in place, each pivot row
    scaled to 1 at its pivot; returns the pivot column of each leading row."""
    pivots: list[int] = []
    for c in range(ncols):
        pr = next((i for i in range(len(pivots), len(T)) if T[i][c] != 0), None)
        if pr is None:
            continue
        k = len(pivots)
        T[k], T[pr] = T[pr], T[k]
        T[k] = [Fraction(v) / T[k][c] for v in T[k]]
        for i, row in enumerate(T):
            f = row[c]
            if i != k and f:
                T[i] = [u - f * v for u, v in zip(row, T[k])]
        pivots.append(c)
    return pivots


def support_solve(R: np.ndarray, b: list, atoms) -> dict | None:
    """The exact solution of A_S x = b on the atoms S, free columns at 0, if it is >= 0, by
    Fraction Gauss-Jordan.  When the columns of S are independent it is the one point of
    the LP on them, so a witness it returns unchanged is a vertex."""
    T = [[0] * len(atoms) + [v] for v in b]
    for k, j in enumerate(atoms):
        for r in R[:, j][R[:, j] >= 0]:
            T[r][k] = 1
    pivots = fraction_row_reduce(T, len(atoms))
    if any(row[-1] for row in T[len(pivots):]) or any(row[-1] < 0 for row in T):
        return None
    return {atoms[c]: T[i][-1] for i, c in enumerate(pivots) if T[i][-1]}


def all_cell_rows(family) -> tuple[np.ndarray, list]:
    """The feasibility LP with a row for every cell of every pmf, over the pmf's own ranges,
    and the total-mass row, as (R, b) in `marginals.joint_exists`'s layout: R[k, j] is atom
    j's row in pmf k's block, -1 when a value of the atom is outside that pmf's ranges."""
    names = family.observables()
    ranges = {o: family.range_of(o) for o in names}
    dims = [len(ranges[o]) for o in names]
    grid, blocks, rhs = np.indices(dims, sparse=True), [], []
    for p in family.pmfs:
        loc = np.broadcast_arrays(*(
            np.array([p.ranges[o].index(v) if v in p.ranges[o] else -1
                      for v in ranges[o]])[grid[names.index(o)]] for o in p.observables))
        cell = np.ravel_multi_index(loc, [len(p.ranges[o]) for o in p.observables], mode="clip")
        blocks.append(np.broadcast_to(
            np.where(np.min(loc, axis=0) < 0, -1, cell + len(rhs)), dims).ravel())
        rhs.extend(p.prob(t) for t in p.support())
    R = np.array(blocks + [np.full(math.prod(dims), len(rhs))])
    rhs.append(Fraction(1) if family.exact else 1.0)
    return R, rhs


def dense_rows(tables) -> np.ndarray:
    """The (pmfs + 1) x support int32 array R of `marginals.joint_exists`'s row tables, one
    line a table written out over the grid of atoms: R[k, j] is atom j's row in table k."""
    shape = np.broadcast_shapes(*(t.shape for t in tables))
    R = np.empty((len(tables), math.prod(shape)), np.int32)
    for k, t in enumerate(tables):
        R[k].reshape(shape)[...] = t
    return R


def row_matrix(R: np.ndarray, m: int) -> np.ndarray:
    """The dense 0/1 matrix A of m rows with A[R[k, j], j] = 1 wherever R[k, j] >= 0."""
    A = np.zeros((m, R.shape[1]), dtype=np.int64)
    for row in R:
        A[row[row >= 0], np.flatnonzero(row >= 0)] = 1
    return A


def rank_mod_p(A: np.ndarray, p: int = 2**31 - 1) -> int:
    """Rank of an integer matrix over GF(p) by Gauss-Jordan elimination.  It is at most the
    rational rank, and equals it unless p divides every nonzero minor of that order."""
    A, rank = np.array(A, dtype=np.int64) % p, 0
    for c in range(A.shape[1]):
        nz = np.flatnonzero(A[rank:, c])
        if not len(nz):
            continue
        r = rank + nz[0]
        A[[rank, r]] = A[[r, rank]]
        A[rank] = A[rank] * pow(int(A[rank, c]), -1, p) % p
        others = np.flatnonzero(A[:, c])
        others = others[others != rank]
        A[others] = (A[others] - A[others, c, None] * A[rank]) % p
        rank += 1
        if rank == len(A):
            break
    return rank


def linprog_phase1(R: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LP of `marginals._phase1_lp` through scipy.optimize.linprog(method="highs")
    on a scipy.sparse [A | I]: its optimal (x, a) and row duals, or AssertionError."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_array, hstack, identity

    from collectiva.marginals import HIGHS_OPTIONS

    m, n = len(b), R.shape[1]
    keep = R >= 0
    A = csc_array((np.ones(keep.sum()), (R[keep], keep.nonzero()[1])), shape=(m, n))
    res = linprog(np.r_[np.zeros(n), np.ones(m)], A_eq=hstack([A, identity(m)], format="csc"),
                  b_eq=b, bounds=(0, None), method="highs", options=HIGHS_OPTIONS)
    assert res.status == 0, res.message
    return res.x, res.eqlin.marginals


# --- signed two-point law: closed forms ------------------------------------------

TWO_POINT = {Fraction(0): Fraction(-1, 2), Fraction(1): Fraction(3, 2)}


def binomial_mean_mass(n: int) -> dict:
    """Signed mass of the mean of n iid draws from {0: -1/2, 1: 3/2}:
    mass(k/n) = C(n,k) (3/2)^k (-1/2)^(n-k), directly from the binomial
    theorem rather than by convolution."""
    out = {}
    for k in range(n + 1):
        out[Fraction(k, n)] = (
            math.comb(n, k) * Fraction(3, 2) ** k * Fraction(-1, 2) ** (n - k)
        )
    return out


def mean_square_expectation(n: int) -> Fraction:
    """E[(mean of n)^2] for the two-point law, closed form:
    m^2 + (E x^2 - m^2)/n with m = 3/2 and E x^2 = 3/2."""
    m = Fraction(3, 2)
    ex2 = Fraction(3, 2)
    return m * m + (ex2 - m * m) / n


# --- signed laws: step-by-step convolution and exhaustive event scan -------------

def convolution_mean_law(space, a, n: int) -> dict:
    """Signed mass of the mean of n iid copies of an exact variable, by n
    successive dict convolutions of its law: every partial sum keeps its key,
    even when its mass cancels to 0."""
    law: dict = {}
    for atom in space.atoms:
        law[a[atom]] = law.get(a[atom], Fraction(0)) + space.weight[atom]
    sums = {Fraction(0): Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for s, ms in sums.items():
            for v, mv in law.items():
                nxt[s + v] = nxt.get(s + v, Fraction(0)) + ms * mv
        sums = nxt
    return {s / n: m for s, m in sums.items()}


def subset_scan(space) -> tuple:
    """(least event mass, that event's atoms, number of negative events) over
    all 2^k events of a signed space; ties go to the lowest bitmask."""
    atoms = list(space.atoms)
    sums = [
        sum(space.weight[a] for i, a in enumerate(atoms) if mask >> i & 1)
        for mask in range(1 << len(atoms))
    ]
    best = min(range(len(sums)), key=sums.__getitem__)
    argmin = [a for i, a in enumerate(atoms) if best >> i & 1]
    return sums[best], argmin, sum(1 for s in sums if s < 0)


# --- complexity curve: every prefix compressed from scratch ------------------------

def per_prefix_curve(word, ns, codec) -> list[ComplexityEstimate]:
    """The complexity curve at the prefix lengths ns, each prefix packed on its
    own by np.packbits and compressed by a fresh stream of the codec."""
    bits = as_bits(word)
    return [ComplexityEstimate(n, 8 * len(codec.compress(np.packbits(bits[:n]).tobytes()))
                               + header_bits(n), codec.name) for n in ns]


# --- battery closed forms ---------------------------------------------------------

def alternating_runs_p(n: int) -> float:
    """Runs-test p-value of the strictly alternating word of even length n,
    from the analytic run count V = n and proportion 1/2:
    p = erfc(|n - n/2| / (2 sqrt(2n) * 1/4)) = erfc(sqrt(n/2))."""
    return float(erfc(math.sqrt(n / 2)))


def monobit_p(n_ones: int, n: int) -> float:
    s = abs(2 * n_ones - n)
    return float(erfc(s / math.sqrt(2 * n)))


# --- p-adic closed forms ----------------------------------------------------------

def longest_runs_by_column(bits: np.ndarray, m: int) -> np.ndarray:
    """Longest run of ones in each whole block of m bits, by a scan over
    the m columns of all blocks at once."""
    nblocks = bits.size // m
    blocks = bits[: nblocks * m].reshape(nblocks, m)
    run = np.zeros(nblocks, dtype=np.int64)
    longest = np.zeros(nblocks, dtype=np.int64)
    for j in range(m):
        run = (run + 1) * blocks[:, j]
        np.maximum(longest, run, out=longest)
    return longest


def block_ones(bits: np.ndarray, block: int) -> list[int]:
    """The count of ones in each whole block of the unpacked word, by one
    row sum over all blocks at once."""
    nblocks = bits.size // block
    return bits[: nblocks * block].reshape(nblocks, block).sum(axis=1, dtype=np.int64).tolist()


def block_frequency_chi2(bits: np.ndarray, block: int) -> float:
    """The block-frequency statistic 4 * block * sum((c / block - 1/2)^2)
    over the blocks' counts c of ones, exactly: the Fraction
    sum((2c - block)^2) / block, rounded to float once."""
    return float(Fraction(sum((2 * c - block) ** 2 for c in block_ones(bits, block)), block))


def bit_transitions(bits: np.ndarray) -> int:
    """The positions i where bit i + 1 of the unpacked word differs from bit i."""
    return int(np.count_nonzero(bits[1:] != bits[:-1]))


def longest_run_chi2(bits: np.ndarray, tables) -> float:
    """The longest-run statistic from longest_runs_by_column: the blocks'
    longest runs of ones clipped to the table's categories and counted, then
    sum((count - expected)^2 / expected) in numpy."""
    for min_n, m, lo, hi, pis in tables:
        if bits.size >= min_n:
            break
    counts = np.bincount(np.clip(longest_runs_by_column(bits, m), lo, hi) - lo,
                         minlength=hi - lo + 1)
    expected = (bits.size // m) * np.asarray(pis)
    return float(((counts - expected) ** 2 / expected).sum())


def randomness_check_reference(x, family, epsilon, min_length):
    """collectives.randomness_check from subsequences built by the reference
    deciders and their frequencies at the full length."""
    from collectiva.collectives import RuleReport, TrialSequence, frequencies

    base = frequencies(x, [len(x)]).final()
    out = []
    for rule in family:
        sub = TrialSequence(x.alphabet, x.data[reference_mask(rule, x.alphabet, x.data)])
        if len(sub) < min_length:
            out.append(RuleReport(rule.describe(), len(sub), None, None, "inconclusive"))
            continue
        fr = frequencies(sub, [len(sub)]).final()
        dev = max(abs(fr[lab] - base[lab]) for lab in x.alphabet.labels)
        out.append(RuleReport(rule.describe(), len(sub), fr, dev,
                              "pass" if dev <= epsilon else "fail"))
    return out


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 2..limit."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i::i][spf[i::i] == 0] = i
    return spf


def factor_product(q: int, spf: np.ndarray) -> int:
    """Product of p^(multiplicity) over the prime factorization of q,
    reconstructed digit by digit from the sieve."""
    prod = 1
    while q > 1:
        p = int(spf[q])
        while q % p == 0:
            prod *= p
            q //= p
    return prod


def geometric_partial_sums(count: int) -> list[Fraction]:
    """S_k = 1 + 2 + 4 + ... + 2^k = 2^(k+1) - 1 for k = 0..count-1."""
    return [Fraction(2 ** (k + 1) - 1) for k in range(count)]


def digit_precision_by_search(epsilon, p: int) -> int:
    """max(1, least m with 1/p^m <= epsilon) by trying m = 0, 1, 2, ...
    (the search the closed form replaced); refuses m > 10^6."""
    m = 0
    while Fraction(1, p**m) > epsilon:
        m += 1
        if m > 10**6:
            raise ValueError("epsilon too small")
    return max(m, 1)


# --- trial sequences by full-length prefix sums ------------------------------------

class UnpackedSequence(TrialSequence):
    """A TrialSequence whose readers serve one index per trial from a plain
    array (the store before binary sequences were packed one bit per trial),
    so that every kernel can be run on both stores and compared: the byte
    kernels read its packed() and index_bytes(), made from that array."""

    __slots__ = ("indices",)

    def __init__(self, alphabet, data):
        super().__init__(alphabet, data)
        self.indices = np.array(data, dtype=index_dtype(alphabet.size))
        self.indices.setflags(write=False)

    def trials(self, start=0, stop=None):
        return self.indices[start:stop]

    def packed(self, stop=None):
        return memoryview(np.packbits(self.indices[:stop]))

    def index_bytes(self, start=0, stop=None):
        if not 2 < self.alphabet.size <= 256:
            raise InputError("only a sequence over 3 to 256 labels stores one byte per trial")
        return self.indices[start:stop].tobytes()

    def label_at(self, i):
        return self.alphabet.labels[int(self.indices[i])]

    def labels(self):
        return [self.alphabet.labels[j] for j in self.indices.tolist()]

    def __eq__(self, other):
        return (isinstance(other, TrialSequence) and self.alphabet == other.alphabet
                and np.array_equal(self.indices, other.data))


def cumsum_prefix_counts(data, value: int, checkpoints) -> list[int]:
    """Occurrences of `value` in data[:c] for each checkpoint c, read off one
    full-length running count (the kernel the segment counts replaced)."""
    cum = np.cumsum(np.asarray(data) == value)
    return [int(cum[c - 1]) if c else 0 for c in checkpoints]


def per_character_parse(text: str, labels: tuple | None = None) -> tuple[tuple, list[int]]:
    """(labels, trial indices) of an ascii trial text, one dictionary lookup
    per character after newlines and carriage returns are dropped.  Without
    labels they are the sorted distinct characters; a constant text gets a
    NUL (or, when NUL is the label, SOH) as a second label.  A character
    outside the labels raises KeyError with that character."""
    text = text.replace("\n", "").replace("\r", "")
    if labels is None:
        labels = tuple(sorted(set(text)))
        if len(labels) == 1:
            labels += ("\x01" if labels == ("\x00",) else "\x00",)
    pos = {lab: j for j, lab in enumerate(labels)}
    return labels, [pos[ch] for ch in text]


# --- place selection: per-trial deciders ------------------------------------------

def reference_decider(rule, alphabet=BINARY, p: float = 0.5):
    """decide(n, prefix) -> bool of a catalogue rule, or of the tests' majority
    rule, rebuilt from its name and parameters as a per-trial definition on
    the prefix x_1..x_{n-1}: a growing sieve for primes, and for coin a stream
    of default_rng(seed).random() < p drawn 4096 doubles at a time (p is not
    among the rule's parameters)."""
    name = rule.name
    if name == "identity":
        return lambda n, prefix: True
    if name == "evens":
        return lambda n, prefix: n % 2 == 0
    if name == "odds":
        return lambda n, prefix: n % 2 == 1
    if name == "majority":
        return lambda n, prefix: 2 * int(prefix.sum()) > n - 1
    if name == "after":
        (text,) = rule.params  # one label, else labels between "|", else one per character
        pieces = text.split("|")
        if text in alphabet.labels:
            labels = [text]
        elif len(pieces) > 1 and set(pieces) <= set(alphabet.labels):
            labels = pieces
        else:
            labels = list(text)
        pattern = tuple(alphabet.index(c) for c in labels)
        k = len(pattern)
        return lambda n, prefix: n - 1 >= k and tuple(prefix[n - 1 - k:].tolist()) == pattern
    if name == "primes":
        sieve = bytearray()

        def decide(n, prefix):
            nonlocal sieve
            if n >= len(sieve):
                limit = max(2 * n, 2 * len(sieve), 4096)
                sieve = bytearray([1]) * (limit + 1)
                sieve[:2] = b"\0\0"
                for q in range(2, math.isqrt(limit) + 1):
                    if sieve[q]:
                        sieve[q * q::q] = bytes(len(range(q * q, limit + 1, q)))
            return sieve[n] == 1

        return decide
    if name == "coin":
        (seed,) = rule.params
        rng = np.random.default_rng(seed)

        def draws():
            while True:
                yield from (rng.random(4096) < p).tolist()

        stream = draws()
        return lambda n, prefix: next(stream)
    raise ValueError(f"no reference decider for rule {name!r}")


def reference_mask(rule, alphabet, data) -> np.ndarray:
    """Whole-sequence mask of the reference decider on data, one call per trial."""
    decide = reference_decider(rule, alphabet)
    return np.array([decide(i + 1, data[:i]) for i in range(len(data))], dtype=bool)


def check_mask_contract(rule, data, cut_lists, want) -> None:
    """For each list of cut positions, the rule's masks of the windows between
    consecutive cuts (0 and len(data) added) over binary data concatenate to
    `want`, the reference mask on data; a list of consecutive cuts makes
    one-position windows."""
    from collectiva.collectives import _window_mask

    n = len(data)
    for cuts in cut_lists:
        bounds = sorted({0, n, *(c for c in cuts if 0 < c < n)})
        got = np.concatenate([_window_mask(rule, BINARY, data, a, b)
                              for a, b in zip(bounds, bounds[1:])])
        assert np.array_equal(got, want), (rule.describe(), cuts[:8])


# --- Ville's construction: float costs, one closure per trial ----------------------

def ville_attempt_reference(family, n_trials, overrides):
    """One greedy pass of the Ville construction with float costs in half
    units and a min() over a per-trial cost closure (the loop the doubled
    integer costs replaced), with the rules' reference deciders.  Returns
    (bits, last_free, counts), last_free the last position whose bit was free
    (None when none was) and counts[i] = [selected, ones among selected] of
    family[i]."""
    deciders = [reference_decider(rule) for rule in family]
    arr = np.empty(n_trials, dtype=np.uint8)
    ones = 0
    counts = [[0, 0] for _ in family]  # selected, ones among selected
    last_free = None
    for n in range(1, n_trials + 1):
        prefix = arr[: n - 1]
        names = [i for i, d in enumerate(deciders) if d(n, prefix)]
        if 2 * ones < n:  # floor binds: only b=1 keeps the mean >= 1/2
            b = 1
        elif (n - 1) in overrides:
            b = overrides[n - 1]
        else:
            def cost(bb):
                worst = 0.0
                for i in names:
                    k, o = counts[i]
                    worst = max(worst, abs((o + bb) - (k + 1) / 2) - 2.0)
                return max(worst, 0.0)

            b = min((0, 1), key=lambda bb: (cost(bb), abs(ones + bb - n / 2 - 1.5), bb))
            last_free = n - 1
        arr[n - 1] = b
        ones += b
        for i in names:
            counts[i][0] += 1
            counts[i][1] += b
    return arr, last_free, counts
