"""Frequency analysis of trial sequences.

A TrialSequence is an immutable run of labels; FrequencyTrace carries its
exact rational relative frequencies at chosen checkpoints.  Place-selection
rules are *causal by construction*: a rule's mask of a window of positions is
handed only the trials before the window's last position.  Its decision on
trial n is the mask of the one-position window of trial n, which is handed
exactly the strict prefix x_1..x_{n-1}, so no decision can read the trial it
decides on or a later one; the masks of wider windows must equal those
decisions.  The one deliberate exception, kamke_adversary, lives outside the
rule type and returns raw positions precisely to demonstrate why such
selections must be excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ConstructionError, InputError, check_mem
from .stability import window_stability

DEFAULT_EPSILON = Fraction(1, 100)
CHUNK = 1 << 18  # elements per step of the chunked kernels, bounding their temporaries
COIN_STEP = CHUNK >> 3  # doubles the coin rule draws per step: 8 bytes each
# the attempt's bits (1 byte), the packed sequence (1/8) and the window temporaries of
# the masks and of label_counts: 6.1 bytes per trial at n = 100 000 on identity,
# primes, after:10 and coin, and under 16 from n = 10 000 on
VILLE_BYTES_PER_TRIAL = 16
# positions per window of ville's packed selection masks: small, so that a window's
# temporaries (8 bytes a position for coin's draws) reuse freed heap blocks
# instead of raising the peak resident memory
VILLE_WINDOW = 1 << 12


@dataclass(frozen=True)
class LabelAlphabet:
    labels: tuple
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise InputError("alphabet needs at least two labels")
        object.__setattr__(self, "_positions", {v: i for i, v in enumerate(labels)})
        if len(self._positions) != len(labels):
            raise InputError("alphabet labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputError(f"label {label!r} not in alphabet {self.labels!r}") from None


BINARY = LabelAlphabet(("0", "1"))
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # index byte -> its ASCII digit
_COMPLEMENT = bytes(range(255, -1, -1))  # packed byte -> its complement


def index_dtype(size: int):
    """numpy type of the trial indices over an alphabet of `size` labels, as
    TrialSequence.trials returns them: one byte per trial when the indices
    fit in one."""
    import numpy as np

    return np.dtype(np.uint8 if size <= 256 else np.int64)


def store_bytes(size: int, n: int) -> int:
    """Bytes a TrialSequence of n trials over `size` labels stores: one bit
    per trial of a binary alphabet, one byte up to 256 labels, else eight."""
    return (n + 7) // 8 if size == 2 else n if size <= 256 else 8 * n


def _pack_digits(n: int, windows: Iterable) -> bytearray:
    """n trials given as consecutive windows of ASCII 0/1 digits, packed most-
    significant bit first and zero-padded: each window's whole bytes by
    int(digits, 2), which parses base 2 in linear time, its last len % 8
    digits carried into the next."""
    store, pos, carry = bytearray((n + 7) // 8), 0, b""
    for w in windows:
        w = carry + w
        if pos + len(w) > n:  # the source changed since it was counted
            raise InputError(f"expected {n} trials, got more")
        cut = len(w) & ~7
        if cut:
            store[pos >> 3:(pos + cut) >> 3] = int(w[:cut], 2).to_bytes(cut >> 3, "big")
        carry, pos = w[cut:], pos + cut
    if carry:
        store[pos >> 3] = int(carry, 2) << (8 - len(carry))
        pos += len(carry)
    if pos != n:
        raise InputError(f"expected {n} trials, got {pos}")
    return store


def _as_index_bytes(window):
    """A window of label indices below 256 as one byte each: bytes pass as
    they are, an index array or list is narrowed."""
    if isinstance(window, (bytes, bytearray)):
        return window
    import numpy as np

    return np.asarray(window).astype(np.uint8).tobytes()


class TrialSequence:
    """Immutable sequence of labels over an alphabet.

    The store is bytes-like.  A binary sequence stores one bit per trial, most-
    significant bit first and zero-padded to whole bytes, as the raw format
    lays them out; an alphabet of up to 256 labels stores one index byte per
    trial, and a larger one an int64 array.  The counting kernels read the
    bytes with the standard library, through packed() and index_bytes().
    trials(start, stop), windows() and `data` give numpy index arrays, for
    rule masks and library callers, and import numpy themselves; `data` is
    unpacked anew on each access of a binary sequence."""

    __slots__ = ("alphabet", "_store", "_n")

    def __init__(self, alphabet: LabelAlphabet, data):
        import numpy as np

        data = np.asarray(data)
        if data.dtype == bool:
            data = data.view(np.uint8)
        elif data.dtype.kind not in "iu":
            data = data.astype(np.int64)
        if data.ndim != 1:
            raise InputError("trial data must be one-dimensional")
        # range check before the narrowing cast, which would wrap a bad index
        if data.size and (data.min() < 0 or data.max() >= alphabet.size):
            raise InputError("trial index outside the alphabet")
        if alphabet.size == 2:
            store = np.packbits(data).tobytes()
        elif alphabet.size <= 256:
            store = data.astype(np.uint8).tobytes()
        else:
            store = np.array(data, dtype=np.int64)
            store.setflags(write=False)
        self.alphabet, self._store, self._n = alphabet, store, int(data.size)

    @classmethod
    def _held(cls, alphabet: LabelAlphabet, store, n: int) -> "TrialSequence":
        """The sequence whose store is `store`, held as it is and never written."""
        self = cls.__new__(cls)
        self.alphabet, self._store, self._n = alphabet, store, int(n)
        return self

    @classmethod
    def from_labels(cls, alphabet: LabelAlphabet, labels: Iterable) -> "TrialSequence":
        import numpy as np

        idx = [alphabet.index(x) for x in labels]
        return cls(alphabet, np.array(idx, dtype=np.int64))

    @classmethod
    def from_bits(cls, bits) -> "TrialSequence":
        return cls(BINARY, bits)

    @classmethod
    def from_packed(cls, packed, n: int) -> "TrialSequence":
        """The binary sequence of n trials packed in the (n + 7) // 8 bytes of
        a bytes-like object, most-significant bit first, held as they are
        through a read-only view; a copy is made only to clear padding bits."""
        store = memoryview(packed).cast("B").toreadonly()
        if len(store) != (n + 7) // 8:
            raise InputError(f"{n} trials need {(n + 7) // 8} packed bytes, got {len(store)}")
        keep = -(1 << (8 - n % 8)) & 0xFF if n % 8 else 0xFF  # the last byte's trials
        if store and store[-1] & ~keep:
            store = store[:-1].tobytes() + bytes((store[-1] & keep,))
        return cls._held(BINARY, store, n)

    @classmethod
    def from_windows(cls, alphabet: LabelAlphabet, n: int, windows: Iterable) -> "TrialSequence":
        """The sequence of n trials given as consecutive windows of label
        indices (trusted to lie in the alphabet), written into the store as
        they arrive: index bytes or index arrays.  A binary sequence packs
        each window's whole bytes and carries its last len % 8 trials into
        the next."""
        if alphabet.size == 2:
            digits = (_as_index_bytes(w).translate(_DIGITS) for w in windows)
            return cls._held(alphabet, _pack_digits(n, digits), n)
        if alphabet.size <= 256:
            store, windows = bytearray(n), map(_as_index_bytes, windows)
        else:
            import numpy as np

            store = np.zeros(n, dtype=np.int64)
        pos = 0
        for w in windows:
            if pos + len(w) > n:  # the source changed since it was counted
                raise InputError(f"expected {n} trials, got more")
            store[pos:pos + len(w)] = w
            pos += len(w)
        if pos != n:
            raise InputError(f"expected {n} trials, got {pos}")
        if alphabet.size > 256:
            store.setflags(write=False)
        return cls._held(alphabet, store, n)

    def __len__(self) -> int:
        return self._n

    def trials(self, start: int = 0, stop: int | None = None):
        """Label indices of the positions start..stop-1 (slice semantics), a
        read-only numpy array of index_dtype(alphabet.size); a binary
        sequence unpacks just the bytes that hold them, into a new array."""
        import numpy as np

        start, stop, _ = slice(start, stop).indices(self._n)
        stop = max(start, stop)
        if self.alphabet.size > 256:
            return self._store[start:stop]
        store = np.frombuffer(self._store, dtype=np.uint8)
        if self.alphabet.size != 2:
            out = store[start:stop]
            out.setflags(write=False)
            return out
        a = start >> 3
        return np.unpackbits(store[a:(stop + 7) >> 3], count=stop - 8 * a)[start - 8 * a:]

    def windows(self):
        """(a, trials(a, a + CHUNK)) over the consecutive windows of CHUNK
        positions (the last one shorter) that cover the sequence."""
        for a in range(0, self._n, CHUNK):
            yield a, self.trials(a, a + CHUNK)

    def index_bytes(self, start: int = 0, stop: int | None = None) -> bytes:
        """The label indices of the positions start..stop-1 (slice semantics)
        of a sequence over 3 to 256 labels, one byte each: a copy of that
        part of the store."""
        if not 2 < self.alphabet.size <= 256:
            raise InputError("only a sequence over 3 to 256 labels stores one byte per trial")
        return bytes(memoryview(self._store)[start:stop])

    def packed(self, stop: int | None = None) -> memoryview:
        """The first `stop` trials of a binary sequence as bytes, most-
        significant bit first and zero-padded: a read-only view of the store,
        copied only to clear the trials past stop in the last byte."""
        if self.alphabet.size != 2:
            raise InputError("only a binary sequence packs one bit per trial")
        stop = self._n if stop is None else stop
        head = memoryview(self._store)[:(stop + 7) >> 3].toreadonly()
        if stop % 8 and stop < self._n:
            last = head[-1] & -(1 << (8 - stop % 8)) & 0xFF
            head = memoryview(head[:-1].tobytes() + bytes((last,)))
        return head

    @property
    def data(self):
        """All the label indices as a read-only numpy array; O(n) for a
        binary sequence."""
        out = self.trials()
        out.setflags(write=False)
        return out

    def label_at(self, i: int):
        i = range(self._n)[i]  # IndexError past either end
        j = self._store[i >> 3] >> (7 - i % 8) & 1 if self.alphabet.size == 2 else self._store[i]
        return self.alphabet.labels[int(j)]

    def labels(self) -> list:
        labels = self.alphabet.labels
        return [labels[j] for _, w in self.windows() for j in w.tolist()]

    def __eq__(self, other) -> bool:
        if not (isinstance(other, TrialSequence) and self.alphabet == other.alphabet
                and self._n == other._n):
            return False
        if self.alphabet.size <= 256:
            return self._store == other._store
        import numpy as np

        return np.array_equal(self._store, other._store)


class TrialPrefix:
    """The first `stop` trials of a sequence as a lazy index array, the past
    a place-selection rule is handed: an index or a slice unpacks only the
    trials it reads, and np.asarray (or any numpy function) all of them."""

    __slots__ = ("seq", "stop")

    def __init__(self, seq: TrialSequence, stop: int):
        self.seq, self.stop = seq, stop

    def __len__(self) -> int:
        return self.stop

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.stop)
            if step == 1:
                return self.seq.trials(start, stop)
            return self.seq.trials(0, self.stop)[key]
        i = range(self.stop)[key]  # IndexError past either end
        return self.seq.trials(i, i + 1)[0]

    def __array__(self, dtype=None, copy=None):
        out = self.seq.trials(0, self.stop)
        return out if dtype is None else out.astype(dtype)


@dataclass(frozen=True)
class FrequencyTrace:
    """Exact relative frequencies nu_N(label) at the given checkpoints."""

    alphabet: LabelAlphabet
    checkpoints: tuple[int, ...]
    values: dict  # label -> tuple[Fraction, ...]

    def nu(self, label, k: int) -> Fraction:
        return self.values[label][k]

    def final(self) -> dict:
        return {lab: vals[-1] for lab, vals in self.values.items()}


def label_counts(x: TrialSequence, checkpoints: Sequence[int],
                 family: Sequence[PlaceSelectionRule] = ()):
    """Label counts among the first c trials of x for each checkpoint c, in
    the given order: an int64 numpy array of shape (checkpoints, 1 + rules,
    labels) whose row 0 counts every trial and row i + 1 the trials that
    family[i] retains.  It holds the nested lists of label_count_rows."""
    import numpy as np

    rows = label_count_rows(x, checkpoints, family)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 1 + len(family), x.alphabet.size)


def label_count_rows(x: TrialSequence, checkpoints: Sequence[int],
                     family: Sequence[PlaceSelectionRule] = ()) -> list:
    """label_counts as nested lists, [checkpoint][row][label].  One pass
    serves the base and every rule: it reads the segments between sorted
    distinct checkpoints CHUNK trials at a time.  Without rules, the base
    row is counted on the store's bytes (see _window_counter); with rules,
    on the index array of each window, whose rule masks are taken, counted
    and dropped one by one."""
    cps = tuple(int(c) for c in checkpoints)
    if not cps:
        raise InputError("need at least one checkpoint")
    if any(c < 1 for c in cps):
        raise InputError("checkpoints must be >= 1")
    if max(cps) > len(x):
        raise InputError(f"checkpoint {max(cps)} beyond data length {len(x)}")
    size, count = x.alphabet.size, None if family else _window_counter(x)
    total = [[0] * size for _ in range(1 + len(family))]
    at, lo = {}, 0
    for c in sorted(set(cps)):
        for a in range(lo, c, CHUNK):
            b = min(a + CHUNK, c)
            if family:
                window = x.trials(a, b)
                rows = [_masked_counts(window, size),
                        *(_masked_counts(window, size, _window_mask(rule, x.alphabet, x, a, b))
                          for rule in family)]
            else:
                rows = [count(a, b)]
            for row, part in zip(total, rows):
                for j, k in enumerate(part):
                    row[j] += k
        at[c], lo = [row[:] for row in total], c
    return [at[c] for c in cps]


def _window_counter(x: TrialSequence) -> Callable[[int, int], Sequence[int]]:
    """counts(a, b): the label counts of the positions a..b-1 of x, from its
    store.  Binary: the ones are the popcount of the bits as one int, whose
    first and last bytes are shifted and masked to the window.  Up to 16
    labels: bytes.count of each label but the last, which takes the rest;
    each call reads the whole window, so above 16 labels one np.bincount
    pass of the index array (_masked_counts) is cheaper."""
    size = x.alphabet.size
    if size == 2:
        data = x.packed()

        def counts(a, b):
            lo, hi = a >> 3, (b + 7) >> 3
            bits = int.from_bytes(data[lo:hi], "big") >> (8 * hi - b)
            ones = (bits & ((1 << (b - a)) - 1)).bit_count()
            return b - a - ones, ones
    elif size <= 16:
        def counts(a, b):
            w = x.index_bytes(a, b)
            part = [w.count(j) for j in range(size - 1)]
            return *part, len(w) - sum(part)
    else:
        def counts(a, b):
            return _masked_counts(x.trials(a, b), size)
    return counts


def _masked_counts(window, size: int, mask=None) -> list[int]:
    """The label counts of an index array's trials, or of those the mask
    keeps: up to 16 labels, one comparison per label but the last, which
    takes the rest, so no selection is built; above 16, np.bincount of the
    selection, which it reads as 8-byte indices, CHUNK / 8 at a time."""
    import numpy as np

    if size > 16:
        trials, step = window if mask is None else window[mask], max(1, CHUNK >> 3)
        out = np.zeros(size, dtype=np.int64)
        for a in range(0, len(trials), step):
            out += np.bincount(trials[a:a + step], minlength=size)
        return out.tolist()
    if mask is None:
        part, total = [int(np.count_nonzero(window == j)) for j in range(size - 1)], len(window)
    else:
        part = [int(np.count_nonzero(mask & (window == j))) for j in range(size - 1)]
        total = int(np.count_nonzero(mask))
    return [*part, total - sum(part)]


def frequencies(x: TrialSequence, checkpoints: Sequence[int]) -> FrequencyTrace:
    """Exact rational frequency of every label at each checkpoint."""
    cps = tuple(int(c) for c in checkpoints)
    counts = zip(*(rows[0] for rows in label_count_rows(x, cps)))
    values = {lab: tuple(map(Fraction, row, cps)) for lab, row in zip(x.alphabet.labels, counts)}
    return FrequencyTrace(x.alphabet, cps, values)


def log_checkpoints(n: int, ratio: float = 1.25, dense_tail: int = 32) -> tuple[int, ...]:
    """Geometric checkpoint grid up to n, densified near the end so the
    stabilization window always holds several points."""
    if n < 1:
        raise InputError("empty sequence")
    pts = {1, n}
    c = 1.0
    while c < n:
        pts.add(int(c))
        c *= ratio
    w = max(1, n // 10)
    step = max(1, w // dense_tail)
    pts.update(range(max(1, n - w), n + 1, step))
    return tuple(sorted(pts))


@dataclass(frozen=True)
class StabilizationVerdict:
    window: int
    epsilon: Fraction
    per_label: dict
    criterion: str = "final-window oscillation <= epsilon (finite-sample convention)"

    @property
    def stabilized(self) -> bool:
        return all(v.stabilized for v in self.per_label.values())

    def limits(self) -> dict:
        return {lab: v.limit for lab, v in self.per_label.items() if v.stabilized}


def detect_stabilization(
    trace: FrequencyTrace,
    window: int | None = None,
    epsilon=DEFAULT_EPSILON,
) -> StabilizationVerdict:
    """Per-label verdict: oscillation of nu over the final window <= epsilon.

    The estimated limit is the mean of the window values (exact rational).
    This finite-sample criterion is a convention, echoed in the verdict.
    """
    n_max = max(trace.checkpoints)
    if window is None:
        window = max(10**3, n_max // 10)
    lo = n_max - window
    sel = [k for k, c in enumerate(trace.checkpoints) if c >= lo]
    if len(sel) < 2:
        raise InputError("need at least two checkpoints inside the final window")
    per = {lab: window_stability([vals[k] for k in sel], epsilon)
           for lab, vals in trace.values.items()}
    return StabilizationVerdict(window, Fraction(epsilon) if not isinstance(epsilon, float) else epsilon, per)


# --- place selection ---------------------------------------------------------

@dataclass(frozen=True)
class PlaceSelectionRule:
    """Causal retain/reject rule.

    mask(alphabet, past, start, stop) returns the boolean mask of the 0-based
    positions start..stop-1 (trials start+1..stop), True retaining the trial.
    past holds the label indices of the trials before the window's last
    position, x_1..x_{stop-1}, and nothing after them.  It may be a lazy
    view (a TrialPrefix), which unpacks only what is read: a rule slices it,
    or takes np.asarray(past) for all of it.  A rule declaring
    reads_trials=False gets an empty past, so its masks depend on the
    positions (and the rule's own parameters) alone and can be taken before
    the trials they decide on exist.  The decision at position i may read
    past[:i] only: the masks of consecutive windows then concatenate to the
    whole-sequence mask, and a one-position window (n-1, n), whose past is
    exactly x_1..x_{n-1}, is the rule's decision on trial n.
    """

    name: str
    mask: Callable[[LabelAlphabet, np.ndarray, int, int], np.ndarray]
    params: tuple = ()
    reads_trials: bool = True

    def describe(self) -> str:
        if self.params:
            return f"{self.name}:{','.join(str(p) for p in self.params)}"
        return self.name


def _every_position(alphabet, past, start, stop):
    import numpy as np

    return np.ones(stop - start, dtype=bool)


def identity_rule() -> PlaceSelectionRule:
    return PlaceSelectionRule("identity", _every_position, reads_trials=False)


def _parity_mask(parity: int):
    """Mask of the positions i with i % 2 == parity (trial n = i + 1)."""
    def mask_of(alphabet, past, start, stop):
        import numpy as np

        mask = np.zeros(stop - start, dtype=bool)
        mask[(parity - start) % 2::2] = True
        return mask

    return mask_of


def evens_rule() -> PlaceSelectionRule:
    return PlaceSelectionRule("evens", _parity_mask(1), reads_trials=False)


def odds_rule() -> PlaceSelectionRule:
    return PlaceSelectionRule("odds", _parity_mask(0), reads_trials=False)


def _sieve(limit: int):
    import numpy as np

    s = np.ones(limit + 1, dtype=bool)
    s[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if s[p]:
            s[p * p :: p] = False
    return s


def _prime_window(alphabet, past, start, stop):
    """Primality of the trial numbers start+1..stop: a segmented sieve over
    the base primes <= sqrt(stop)."""
    import numpy as np

    lo = start + 1
    mask = np.ones(stop - start, dtype=bool)
    if start == 0:
        mask[:1] = False  # trial 1 is not prime
    for p in np.flatnonzero(_sieve(math.isqrt(stop))).tolist():
        first = max(p * p, -(-lo // p) * p)
        mask[first - lo :: p] = False
    return mask


def primes_rule() -> PlaceSelectionRule:
    return PlaceSelectionRule("primes", _prime_window, reads_trials=False)


class _AfterPattern:
    """The mask of after_pattern_rule: position i is retained iff the trials
    before it spell `pattern`, the rule's spec string."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: str):
        self.pattern = pattern

    def labels(self, alphabet: LabelAlphabet) -> tuple:
        """The pattern's labels: the whole string when the alphabet has it,
        else its pieces between '|' when each is a label, else one label per
        character ("10" over 0/1, "heads|tails" over heads/tails)."""
        p = self.pattern
        if p in alphabet.labels:
            return (p,)
        pieces = tuple(p.split("|"))
        if len(pieces) > 1 and all(q in alphabet.labels for q in pieces):
            return pieces
        return tuple(p)

    def __call__(self, alphabet, past, start, stop):
        # position i is kept iff past[i-k:i] spells the pattern; reads past[lo-k:stop-1]
        import numpy as np

        pidx = [alphabet.index(c) for c in self.labels(alphabet)]
        k = len(pidx)
        lo = max(start, k)
        mask = np.zeros(stop - start, dtype=bool)
        if stop > lo:
            hit = mask[lo - start:]
            hit[:] = True
            for j, pv in enumerate(pidx):
                hit &= past[lo - k + j : stop - k + j] == pv
        return mask


def after_pattern_rule(pattern) -> PlaceSelectionRule:
    """Retain position n iff the trials before it spell pattern: a spec
    string ("10", "heads", "heads|tails"; see _AfterPattern.labels), echoed
    as given.  A sequence of labels is first joined by '|'."""
    if not isinstance(pattern, str):
        pattern = "|".join(map(str, pattern))
    if not pattern:
        raise InputError("pattern must be nonempty")
    return PlaceSelectionRule("after", _AfterPattern(pattern), params=(pattern,))


def aux_coin_rule(seed: int, p: float = 0.5) -> PlaceSelectionRule:
    """Auxiliary randomized selection driven by a seeded generator; the
    decision stream depends on the seed only, never on the trials: trial n
    is retained iff the n-th double of default_rng(seed) is below p."""

    def mask_of(alphabet, past, start, stop):
        # each double takes one PCG64 step, so advancing by start gives the
        # same stream as rng.random(stop)[start:]
        import numpy as np

        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(start)
        mask = np.empty(stop - start, dtype=bool)
        for a in range(0, stop - start, COIN_STEP):
            b = min(a + COIN_STEP, stop - start)
            mask[a:b] = rng.random(b - a) < p
        return mask

    return PlaceSelectionRule("coin", mask_of, params=(seed,), reads_trials=False)


RULE_CATALOGUE = {
    "identity": (identity_rule, 0),
    "evens": (evens_rule, 0),
    "odds": (odds_rule, 0),
    "primes": (primes_rule, 0),
    "after": (after_pattern_rule, 1),
    "coin": (aux_coin_rule, 1),
}


def rule_from_spec(spec: str, default_seed: int | None = None) -> PlaceSelectionRule:
    """Parse "name" or "name:param" against the built-in catalogue.

    A bare "coin" falls back to default_seed so that all randomness in a run
    flows from a single configured seed.
    """
    name, _, param = spec.strip().partition(":")
    entry = RULE_CATALOGUE.get(name)
    if entry is None:
        raise InputError(
            f"unknown rule {name!r}; catalogue: {', '.join(sorted(RULE_CATALOGUE))}"
        )
    factory, nargs = entry
    if nargs == 0:
        if param:
            raise InputError(f"rule {name!r} takes no parameter")
        return factory()
    if not param:
        if name == "coin" and default_seed is not None:
            return factory(default_seed)
        raise InputError(f"rule {name!r} needs a parameter, e.g. {name}:10")
    if name == "coin":
        if not param.isdecimal():
            raise InputError(f"rule 'coin' needs a nonnegative integer seed, got {param!r}")
        return factory(int(param))
    return factory(param)


def default_family() -> list[PlaceSelectionRule]:
    return [identity_rule(), primes_rule(), after_pattern_rule("10")]


def _window_mask(rule: PlaceSelectionRule, alphabet, data, start: int, stop: int):
    """The rule's mask of positions start..stop-1, checked for shape.  The rule
    is handed the first stop - 1 trials of data (a TrialSequence, as their
    TrialPrefix, or an index array), or none when it declares
    reads_trials=False, so no window can read a trial at or after its last
    position."""
    import numpy as np

    cut = stop - 1 if rule.reads_trials else 0
    past = TrialPrefix(data, cut) if isinstance(data, TrialSequence) else data[:cut]
    mask = np.asarray(rule.mask(alphabet, past, start, stop), dtype=bool)
    if mask.shape != (stop - start,):
        raise InputError(f"rule {rule.name}: bad mask shape")
    return mask


def apply_selection(rule: PlaceSelectionRule, x: TrialSequence) -> TrialSequence:
    """Subsequence of retained trials, in order.

    Each window's mask is handed only the trials before the window's last
    position, so no trial at or after it can be read.
    """
    import numpy as np

    parts = (w[_window_mask(rule, x.alphabet, x, a, a + len(w))] for a, w in x.windows())
    return TrialSequence(x.alphabet, np.concatenate([x.trials(0, 0), *parts]))


@dataclass(frozen=True)
class RuleReport:
    rule: str
    selected: int
    frequencies: dict | None
    max_deviation: Fraction | None
    status: str  # "pass" | "fail" | "inconclusive"


def randomness_check(
    x: TrialSequence,
    family: Sequence[PlaceSelectionRule],
    epsilon=DEFAULT_EPSILON,
    min_length: int = 10**3,
) -> list[RuleReport]:
    """Frequency invariance of x under each rule of the family.

    A rule passes when every label frequency of the selected subsequence is
    within epsilon of the full-sequence frequency; subsequences shorter than
    min_length are inconclusive rather than failed.  One label_counts pass
    over x counts the base and every rule's selection; no subsequence is
    built.
    """
    counts = label_count_rows(x, [len(x)], family)[0]
    return rule_reports(x.alphabet, family, counts, epsilon, min_length)[1]


def rule_reports(alphabet: LabelAlphabet, family: Sequence[PlaceSelectionRule],
                 counts, epsilon=DEFAULT_EPSILON,
                 min_length: int = 10**3) -> tuple[dict, list[RuleReport]]:
    """(base frequencies, one RuleReport per rule) of randomness_check, from
    the label_count_rows (or label_counts) of the family at one checkpoint."""
    if not epsilon >= 0:
        raise InputError(f"epsilon must be >= 0, got {epsilon}")
    _check_min_count(min_length)
    rows = [[int(c) for c in row] for row in counts]
    n = sum(rows[0])
    base = {lab: Fraction(c, n) for lab, c in zip(alphabet.labels, rows[0])}
    out = []
    for rule, row in zip(family, rows[1:]):
        selected = sum(row)
        if selected < min_length:
            out.append(RuleReport(rule.describe(), selected, None, None, "inconclusive"))
            continue
        fr = {lab: Fraction(c, selected) for lab, c in zip(alphabet.labels, row)}
        dev = max(abs(fr[lab] - base[lab]) for lab in alphabet.labels)
        out.append(RuleReport(rule.describe(), selected, fr, dev,
                              "pass" if dev <= epsilon else "fail"))
    return base, out


def mix(x: TrialSequence, members: Iterable) -> TrialSequence:
    """Binary indicator sequence of membership in a label subset.

    Position j holds "1" iff x_j is in the subset, so the count of ones at
    any N equals the sum of the member labels' counts -- additivity of
    frequency probability holds exactly at every finite N.  Empty and full
    subsets are allowed and produce the degenerate all-0/all-1 sequences.

    A binary x mixes to itself, its complement (its packed bytes translated)
    or a constant word.  Up to 256 labels, each window of index bytes is
    translated to 0/1 digits through a member table and packed; above, a
    member array maps each window of the index array.
    """
    member = {x.alphabet.index(lab) for lab in members}
    n, size = len(x), x.alphabet.size
    if size == 2:
        if len(member) == 1:
            packed = bytes(x.packed())
            if 0 in member:
                packed = packed.translate(_COMPLEMENT)
        else:
            packed = (b"\xff" if member else b"\x00") * ((n + 7) // 8)
        return TrialSequence.from_packed(packed, n)  # clears the padding bits
    if size <= 256:
        digits = bytes(ord("1") if j in member else ord("0") for j in range(256))
        windows = (x.index_bytes(a, a + CHUNK).translate(digits) for a in range(0, n, CHUNK))
        return TrialSequence._held(BINARY, _pack_digits(n, windows), n)
    import numpy as np

    table = np.zeros(size, dtype=np.uint8)
    table[list(member)] = 1
    return TrialSequence.from_windows(BINARY, n, (table[w] for _, w in x.windows()))


@dataclass(frozen=True)
class FrequencyProbability:
    value: Fraction | None
    verdict: str  # "stabilized" | "no frequency probability"
    stabilization: StabilizationVerdict


def frequency_probability(
    x: TrialSequence,
    members: Iterable,
    window: int | None = None,
    epsilon=DEFAULT_EPSILON,
    checkpoints: Sequence[int] | None = None,
) -> FrequencyProbability:
    """Stabilized limit of the mixed sequence's frequency of "1", when the
    stabilization criterion accepts it; otherwise an explicit non-verdict."""
    mixed = mix(x, members)
    cps = tuple(checkpoints) if checkpoints is not None else log_checkpoints(len(mixed))
    return trace_probability(frequencies(mixed, cps), window, epsilon)


def trace_probability(trace: FrequencyTrace, window: int | None = None,
                      epsilon=DEFAULT_EPSILON) -> FrequencyProbability:
    """frequency_probability from the frequency trace of a mixed sequence."""
    verdict = detect_stabilization(trace, window=window, epsilon=epsilon)
    lab = verdict.per_label["1"]
    if lab.stabilized:
        return FrequencyProbability(lab.limit, "stabilized", verdict)
    return FrequencyProbability(None, "no frequency probability", verdict)


def kamke_adversary(x: TrialSequence, target):
    """1-based positions of every occurrence of the target label.

    This selection *reads the trial it selects*, which is exactly what the
    causal rule interface forbids; it exists to show that without causality,
    every sequence owns a subsequence of frequency 1.  Returns an empty
    array when the label never occurs.
    """
    import numpy as np

    j = x.alphabet.index(target)
    return np.concatenate([np.zeros(0, dtype=np.intp),
                           *(np.flatnonzero(w == j) + (a + 1) for a, w in x.windows())])


class VilleSequence(TrialSequence):
    """ville_generator's sequence with what its scan read: its count of ones,
    the least running margin 2 * ones - n and the family's label_counts row."""

    __slots__ = ("ones", "min_margin", "counts")


def ville_generator(
    family: Sequence[PlaceSelectionRule],
    n_trials: int,
    epsilon=DEFAULT_EPSILON,
    min_count: int | None = None,
    backtrack_budget: int = 32,
) -> VilleSequence:
    """A binary sequence whose running mean never drops below 1/2 while every
    family rule's selected subsequence stays epsilon-balanced.

    Greedy construction: at each position the admissible bit minimizing the
    worst selected-rule count imbalance (dead-band 2) is chosen, ties steered
    toward a small positive ones-surplus so the mean floor stays slack.  The
    result is scanned, never assumed; a scan failure triggers bounded
    backtracking (budget of reverted choices), and exhaustion raises
    ConstructionError rather than returning an invalid sequence.
    """
    if n_trials < 1:
        raise InputError("n_trials must be >= 1")
    eps = Fraction(epsilon) if not isinstance(epsilon, float) else epsilon
    if min_count is None:
        if not eps > 0:
            raise InputError(f"epsilon must be > 0 unless min_count is given, got {eps}")
        min_count = _derived_min_count(eps)
    elif not eps >= 0:
        raise InputError(f"epsilon must be >= 0, got {eps}")
    _check_min_count(min_count)

    check_mem(VILLE_BYTES_PER_TRIAL * n_trials, f"ville construction of {n_trials} trials")
    overrides: dict[int, int] = {}
    budget = backtrack_budget

    while True:
        bits, last_free, counts = _ville_attempt(family, n_trials, overrides)
        failure, ones, low = _ville_scan(bits, counts, eps, min_count)
        if failure is None:
            import numpy as np

            x = VilleSequence(BINARY, bits)
            x.ones, x.min_margin = ones, low
            x.counts = np.array([[n_trials - ones, ones], *([k - o, o] for k, o in counts)])
            return x
        if budget > 0 and last_free is not None:
            overrides = {p: b for p, b in overrides.items() if p < last_free}
            overrides[last_free] = 1 - int(bits[last_free])
            budget -= 1
        else:
            raise ConstructionError(
                f"construction failed within the backtracking budget: {failure}"
            )


def _check_min_count(min_count: int):
    if min_count < 1:
        raise InputError(f"min_count must be >= 1, got {min_count}")


def _derived_min_count(eps) -> int:
    """max(30, ceil(2 / eps)) in floats; an eps past the float range gives 30."""
    try:
        f = float(eps)
    except OverflowError:
        return 30
    ratio = 2 / f if f else math.inf
    if math.isinf(ratio):
        raise InputError("epsilon is too small for 2/eps in floats; give min_count")
    return max(30, math.ceil(ratio))


def _packed_masks(rules, data, start, stop) -> bytes:
    """One byte per position start..stop-1 whose bit j is the decision of
    rules[j] (at most 8 rules), from their binary window masks.  The masks
    are ORed as Python ints, one byte per position, which pages in no numpy
    integer kernel that the ville command would not otherwise run."""
    packed = 0
    for j, rule in enumerate(rules):
        mask = _window_mask(rule, BINARY, data, start, stop)
        packed |= int.from_bytes(mask.tobytes(), "little") << j
    return packed.to_bytes(stop - start, "little")


def _ville_attempt(family, n_trials, overrides):
    """One greedy pass, in doubled integer units.  A rule that has selected
    k trials with o ones, surplus e = 2o - k, is put off by bit b as
    |e + 2b - 1| (twice |o + b - (k + 1)/2|) beyond a dead-band of 4.  With
    hi and lo the largest and smallest e of the selecting rules, bit 0 costs
    max(hi - 1, 1 - lo, 4) and bit 1 max(hi + 1, -1 - lo, 4), so bit 0 is
    cheaper exactly when hi + lo > 0 and hi >= 4, and bit 1 when hi + lo < 0
    and lo <= -4.  Otherwise the costs tie, and the bit that leaves the
    running surplus 2(ones + b) - n nearest 3 wins (0 when both are): 0
    exactly when 2*ones - n >= 2.

    The rules that never read the trials (reads_trials=False; the first 8 of
    them) are decided ahead, VILLE_WINDOW positions at a time: their masks
    are packed into one byte per position, bit j for the j-th such rule, and
    a table maps each byte value to the tuple of rules it selects.  An after:
    rule compares its pattern with the last k bits, kept in a rolling int.
    Any other rule is asked for the one-position window of each trial as it
    comes, on the bits built so far.

    Returns (bits, last_free, counts): last_free is the last position whose
    bit was free to take either value (None when none was), and counts[i]
    is [selected, ones among selected] of family[i], by label_count_rows."""
    import numpy as np

    blind, afters, scalars = [], [], []
    for i, rule in enumerate(family):
        if not rule.reads_trials and len(blind) < 8:
            blind.append(i)
        elif isinstance(rule.mask, _AfterPattern):
            pidx = [BINARY.index(c) for c in rule.mask.labels(BINARY)]
            k = len(pidx)
            afters.append((i, (1 << k) - 1, int("".join(map(str, pidx)), 2), k))
        else:
            scalars.append(i)
    recent_mask = max((m for _, m, _, _ in afters), default=0)
    blind_rules = [family[i] for i in blind]
    # packed byte -> the blind rules it selects
    picks = [tuple(i for j, i in enumerate(blind) if v >> j & 1) for v in range(1 << len(blind))]
    buf = bytearray(n_trials)
    arr = np.frombuffer(buf, dtype=np.uint8)  # the bits, as the masks read them
    ones = recent = 0  # recent: the last bits, the latest lowest, masked to the longest pattern
    surplus = [0] * len(family)  # 2 * ones - selected, over each rule's selections
    last_free = None
    for start in range(0, n_trials, VILLE_WINDOW):
        stop = min(start + VILLE_WINDOW, n_trials)
        for n, v in enumerate(_packed_masks(blind_rules, arr, start, stop), start + 1):
            names = picks[v]
            for i, m, t, k in afters:
                if recent & m == t and n > k:
                    names += (i,)
            if scalars:
                names += tuple(i for i in scalars
                               if _window_mask(family[i], BINARY, arr, n - 1, n)[0])
            if 2 * ones < n:  # floor binds: only b=1 keeps the mean >= 1/2
                b = 1
            elif (n - 1) in overrides:
                b = overrides[n - 1]
            else:
                b = 0 if 2 * ones - n >= 2 else 1
                if names:
                    hi = lo = surplus[names[0]]
                    for i in names:  # a loop: max() and min() cost more on 1-3 rules
                        e = surplus[i]
                        if e > hi:
                            hi = e
                        elif e < lo:
                            lo = e
                    if hi + lo > 0 and hi >= 4:
                        b = 0
                    elif hi + lo < 0 and lo <= -4:
                        b = 1
                last_free = n - 1
            buf[n - 1] = b
            ones += b
            recent = (recent << 1 | b) & recent_mask
            step = 2 * b - 1
            for i in names:
                surplus[i] += step
    rows = label_count_rows(TrialSequence(BINARY, arr), [n_trials], family)[0][1:]
    return arr, last_free, [[z + o, o] for z, o in rows]


def running_margins(bits):
    """2 * ones - n at every prefix length n of a 0/1 array, as an int64 array."""
    import numpy as np

    return 2 * np.cumsum(bits, dtype=np.int64) - np.arange(1, len(bits) + 1)


def _ville_scan(bits, counts, eps, min_count):
    """(failure, ones, least running margin): failure names the first
    position where the running mean drops below 1/2, else the first rule out
    of balance, else is None.  The margins are taken VILLE_WINDOW positions
    at a time."""
    import numpy as np

    ones, low = 0, len(bits)  # no margin exceeds n
    for a in range(0, len(bits), VILLE_WINDOW):
        margins = running_margins(bits[a:a + VILLE_WINDOW]) + (2 * ones - a)
        below = np.flatnonzero(margins < 0)
        if below.size:
            return f"running mean below 1/2 at position {a + below[0] + 1}", None, None
        low = min(low, int(margins.min()))
        ones = (int(margins[-1]) + a + len(margins)) // 2
    for i, (k, o) in enumerate(counts):
        if k >= min_count and abs(Fraction(o, k) - Fraction(1, 2)) > eps:
            return f"rule #{i} deviation {o}/{k} exceeds epsilon", None, None
    return None, ones, low


def seq_to_unit_interval(x: TrialSequence) -> float:
    """Binary expansion value sum x_j 2^-j of the first 64 trials."""
    if x.alphabet.size != 2:
        raise InputError("sequence must be binary")
    r = 0.0
    for j, b in enumerate(x.trials(0, 64).tolist(), start=1):
        if b:
            r += 2.0 ** -j
    return r
