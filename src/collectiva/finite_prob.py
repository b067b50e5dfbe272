"""Finite probability spaces as partitions.

Events are bitmasks over a fixed atom ordering, so unions/intersections/
complements are single integer operations.  An algebra is stored as its
blocks, and an event is in it iff each block lies inside it or outside it.
Weights are assigned to *blocks*, not to atoms, and an event weighs the
blocks inside it: an atom whose singleton is missing from the algebra has
no probability at all, and asking for one raises ``NotMeasurableError``.

Arithmetic is dual-mode: build everything from ``fractions.Fraction`` (or
ints) and all identities are checked exactly; use floats and comparisons
fall back to an absolute tolerance of 1e-12.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (FLOAT_TOL, CapacityError, InputError, NotMeasurableError,
                     NullConditioningError, is_exact, values_equal)

ALGEBRA_CAP = 1 << 20

Value = Fraction | int | float


@dataclass(frozen=True)
class SampleSpace:
    atoms: tuple

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise InputError("sample space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise InputError("atom identifiers must be pairwise distinct")
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, atom) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise InputError(f"unknown atom {atom!r}") from None

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True)
class Event:
    """A subset of a SampleSpace, stored as a bitmask over the atom order."""

    space: SampleSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.space.full_mask:
            raise InputError("event mask outside the sample space")

    @classmethod
    def from_atoms(cls, space: SampleSpace, members: Iterable) -> "Event":
        mask = 0
        for atom in members:
            mask |= 1 << space.index(atom)
        return cls(space, mask)

    def atoms(self) -> tuple:
        return tuple(a for i, a in enumerate(self.space.atoms) if self.mask >> i & 1)

    def __contains__(self, atom) -> bool:
        return bool(self.mask >> self.space.index(atom) & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def _check_same_space(self, other: "Event"):
        if self.space is not other.space and self.space != other.space:
            raise InputError("events live on different sample spaces")

    def union(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.mask | other.mask)

    def intersection(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.mask & other.mask)

    def complement(self) -> "Event":
        return Event(self.space, self.mask ^ self.space.full_mask)

    def isdisjoint(self, other: "Event") -> bool:
        return (self.mask & other.mask) == 0

    __or__ = union
    __and__ = intersection
    __invert__ = complement


def _signature_blocks(space: SampleSpace, masks: Sequence[int]) -> tuple[int, ...]:
    """Groups of atoms that every mask contains or omits together, in atom order."""
    groups: dict[tuple, int] = {}
    for i in range(space.size):
        sig = tuple(m >> i & 1 for m in masks)
        groups[sig] = groups.get(sig, 0) | (1 << i)
    return tuple(groups.values())


@dataclass(frozen=True, init=False)
class EventAlgebra:
    """The 2^len(blocks) unions of blocks, stored as the blocks (atom-signature
    groups, in atom order).  ``EventAlgebra(space, masks)`` needs a closed set."""

    space: SampleSpace
    block_masks: tuple[int, ...]

    def __init__(self, space: SampleSpace, masks: Iterable[int] = frozenset()):
        masks = tuple(frozenset(masks))
        if 0 not in masks or space.full_mask not in masks:
            raise InputError("algebra must contain the empty event and the full space")
        if any(m & ~space.full_mask for m in masks):
            raise InputError("event mask outside the sample space")
        blocks = _signature_blocks(space, masks)
        if len(masks) != 1 << len(blocks):
            raise InputError("event set is not closed under complement/union")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "block_masks", blocks)

    @classmethod
    def _from_blocks(cls, space: SampleSpace, blocks: tuple[int, ...]) -> "EventAlgebra":
        alg = object.__new__(cls)
        object.__setattr__(alg, "space", space)
        object.__setattr__(alg, "block_masks", blocks)
        return alg

    def _has(self, mask) -> bool:
        """Membership of a raw mask: every block lies inside it or is disjoint from it."""
        return (isinstance(mask, int) and 0 <= mask <= self.space.full_mask
                and all(mask & blk in (0, blk) for blk in self.block_masks))

    def __contains__(self, event: Event) -> bool:
        return self._has(event.mask)

    def __len__(self) -> int:
        k = len(self.block_masks)
        if k >= sys.maxsize.bit_length():
            raise CapacityError(f"algebra has 2^{k} events, more than len() can count")
        return 1 << k

    @property
    def masks(self) -> frozenset[int]:
        """Every event mask, enumerated over the blocks; capped at ALGEBRA_CAP."""
        if 1 << len(self.block_masks) > ALGEBRA_CAP:
            raise CapacityError(f"algebra has 2^{len(self.block_masks)} events (cap {ALGEBRA_CAP})")
        out = [0]
        for blk in self.block_masks:
            out += [m | blk for m in out]
        return frozenset(out)

    def events(self) -> list[Event]:
        return [Event(self.space, m) for m in sorted(self.masks)]

    def is_closed(self) -> bool:
        """Complements and unions with each block stay among the enumerated events."""
        ms, full = self.masks, self.space.full_mask
        return all(m ^ full in ms and all(m | b in ms for b in self.block_masks) for m in ms)

    def blocks(self) -> list[int]:
        """Minimal nonempty events (the partition the algebra is built from)."""
        return list(self.block_masks)


def build_algebra(space: SampleSpace, generators: Sequence[Event]) -> EventAlgebra:
    """Smallest set algebra containing the generators (and the trivial events).

    Atoms sharing the same membership signature across all generators can
    never be separated, so the algebra is exactly the set of unions of
    signature blocks; only the blocks are built.
    """
    for g in generators:
        if g.space != space:
            raise InputError("generator references an unknown atom / foreign space")
    return EventAlgebra._from_blocks(space, _signature_blocks(space, [g.mask for g in generators]))


class _EventWeights(Mapping):
    """Read-only event mask -> weight: a lookup adds the blocks inside the mask in
    block order (not by ``sum``, whose float rounding varies by Python version)."""

    def __init__(self, algebra: EventAlgebra, block_weights: Iterable[Value]):
        self.algebra = algebra
        self.block_weights = tuple(block_weights)
        self.zero = Fraction(0) if is_exact(*self.block_weights) else 0.0

    def __getitem__(self, mask) -> Value:
        if not self.algebra._has(mask):
            raise KeyError(mask)
        total = self.zero
        for blk, v in zip(self.algebra.block_masks, self.block_weights):
            if mask & blk:
                total = total + v
        return total

    def __iter__(self):
        return iter(self.algebra.masks)

    def __len__(self) -> int:
        return len(self.algebra)

    def __eq__(self, other):
        """Block by block against another block-weight map, without
        enumerating the events; by event against any other mapping."""
        if isinstance(other, _EventWeights):
            return self.algebra == other.algebra and self.block_weights == other.block_weights
        return super().__eq__(other)

    def __repr__(self) -> str:
        pairs = zip(self.algebra.block_masks, self.block_weights)
        blocks = ", ".join(f"{m:#b}: {v!r}" for m, v in pairs)
        return f"{type(self).__name__}({{{blocks}}})"


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """(sample space, event algebra, normalized additive weight) triple, stored as
    one weight per block; a map over all events must weigh each as its blocks."""

    algebra: EventAlgebra
    weight: Mapping[int, Value]  # event mask -> value

    def __post_init__(self):
        w, alg = self.weight, self.algebra
        if not (isinstance(w, _EventWeights) and w.algebra == alg):
            w = dict(w)
            if len(w) != 1 << len(alg.block_masks) or set(w) != alg.masks:
                raise InputError("weight map must cover exactly the algebra's events")
            exact = is_exact(*w.values())
            by_block = _EventWeights(alg, [w[blk] for blk in alg.block_masks])
            for m, v in w.items():
                if not values_equal(by_block[m], v, exact):
                    raise InputError(f"additivity violated on event mask {m:b}: "
                                     f"{v} != sum of blocks {by_block[m]}")
            object.__setattr__(self, "weight", by_block)
        exact = self.exact
        if not values_equal(self.weight[alg.space.full_mask], 1, exact):
            raise InputError("weight of the full space must be 1")
        for v in self.weight.block_weights:
            if (v < 0 or v > 1) and (exact or not -FLOAT_TOL <= v <= 1 + FLOAT_TOL):
                raise InputError(f"weight {v} outside [0,1]")

    @property
    def space(self) -> SampleSpace:
        return self.algebra.space

    @property
    def exact(self) -> bool:
        return is_exact(*self.weight.block_weights)

    @classmethod
    def from_block_weights(
        cls, algebra: EventAlgebra, block_weight: Mapping[int, Value]
    ) -> "FiniteProbabilitySpace":
        """The space with the given weight on each minimal block."""
        if set(block_weight) != set(algebra.block_masks):
            raise InputError("need a weight for each minimal block exactly")
        return cls(algebra, _EventWeights(algebra, (block_weight[b] for b in algebra.block_masks)))

    @classmethod
    def from_atom_weights(
        cls, space: SampleSpace, atom_weight: Mapping
    ) -> "FiniteProbabilitySpace":
        """Power-set space with per-atom weights (every event measurable)."""
        if set(atom_weight) != set(space.atoms):
            raise InputError("need a weight for every atom")
        alg = build_algebra(space, [Event(space, 1 << i) for i in range(space.size)])
        return cls(alg, _EventWeights(alg, (atom_weight[a] for a in space.atoms)))

    @classmethod
    def uniform(cls, space: SampleSpace) -> "FiniteProbabilitySpace":
        p = Fraction(1, space.size)
        return cls.from_atom_weights(space, {a: p for a in space.atoms})


@dataclass(frozen=True)
class RandomVariable:
    """Total map atom -> value over a SampleSpace."""

    space: SampleSpace
    values: Mapping

    def __post_init__(self):
        vals = dict(self.values)
        object.__setattr__(self, "values", vals)
        if set(vals) != set(self.space.atoms):
            raise InputError("variable must assign a value to every atom")

    def __call__(self, atom):
        return self.values[atom]

    def range(self) -> list:
        return sorted(set(self.values.values()))

    def preimage(self, value) -> Event:
        return Event.from_atoms(
            self.space, (a for a in self.space.atoms if self.values[a] == value)
        )


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint positive-probability events covering the space."""

    blocks: tuple[Event, ...]

    def validate(self, ps: FiniteProbabilitySpace):
        union = 0
        for i, b in enumerate(self.blocks):
            if b not in ps.algebra:
                raise NotMeasurableError(f"partition block {i} not measurable")
            if union & b.mask:
                raise InputError(f"partition blocks overlap at block {i}")
            union |= b.mask
            if not probability(ps, b) > 0:
                raise InputError(f"partition block {i} has zero probability")
        if union != ps.space.full_mask:
            raise InputError("partition does not cover the sample space")


def probability(ps: FiniteProbabilitySpace, event: Event) -> Value:
    if event.space != ps.space:
        raise InputError("event belongs to a different sample space")
    if event not in ps.algebra:
        raise NotMeasurableError(
            f"event not measurable: {set(event.atoms())!r} is outside the algebra"
        )
    return ps.weight[event.mask]


def is_measurable(ps: FiniteProbabilitySpace, a: RandomVariable) -> bool:
    if a.space != ps.space:
        raise InputError("variable defined on a different sample space")
    return all(a.preimage(v) in ps.algebra for v in a.range())


def distribution(ps: FiniteProbabilitySpace, a: RandomVariable) -> dict:
    """pmf of a measurable variable: value -> probability of its preimage."""
    if not is_measurable(ps, a):
        raise NotMeasurableError("variable is not measurable in this algebra")
    return {v: probability(ps, a.preimage(v)) for v in a.range()}


def expectation(ps: FiniteProbabilitySpace, a: RandomVariable) -> Value:
    pmf = distribution(ps, a)
    return sum(v * p for v, p in pmf.items())


def conditional(ps: FiniteProbabilitySpace, b: Event, c: Event) -> Value:
    """P(B | C) by the Bayes quotient; both events must be measurable."""
    pc = probability(ps, c)
    if not pc > 0:
        raise NullConditioningError("conditioning on null event")
    return probability(ps, b & c) / pc


def conditional_space(ps: FiniteProbabilitySpace, c: Event) -> FiniteProbabilitySpace:
    """The measure B -> P(B|C) on the same algebra (itself a valid space)."""
    pc = probability(ps, c)
    if not pc > 0:
        raise NullConditioningError("conditioning on null event")
    w = {blk: ps.weight[blk & c.mask] / pc for blk in ps.algebra.block_masks}
    return FiniteProbabilitySpace.from_block_weights(ps.algebra, w)


def independent(ps: FiniteProbabilitySpace, a: Event, b: Event) -> bool:
    pab = probability(ps, a & b)
    return values_equal(pab, probability(ps, a) * probability(ps, b), ps.exact)


def total_probability(
    ps: FiniteProbabilitySpace, partition: Partition, b: Event
) -> tuple[Value, list[tuple[Value, Value]]]:
    """Sum of P(A_k) * P(B|A_k); returned with the per-block factor pairs.

    Asserts agreement with the direct probability of B (exact in rational
    mode), which is the point of the identity.
    """
    partition.validate(ps)
    terms = []
    total = None
    for blk in partition.blocks:
        pk = probability(ps, blk)
        cond = conditional(ps, b, blk)
        terms.append((pk, cond))
        total = pk * cond if total is None else total + pk * cond
    direct = probability(ps, b)
    if not values_equal(total, direct, ps.exact):
        raise AssertionError(f"total-probability identity failed: {total} != {direct}")
    return total, terms


def partition_from_rv(ps: FiniteProbabilitySpace, a: RandomVariable) -> Partition:
    """Partition into the variable's preimages (each must have mass > 0)."""
    pmf = distribution(ps, a)
    for v, p in pmf.items():
        if not p > 0:
            raise InputError(f"value {v!r} has probability 0; not a valid partition")
    return Partition(tuple(a.preimage(v) for v in a.range()))


# --- JSON round-trip -------------------------------------------------------

def _value_to_json(v: Value):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def space_to_document(
    ps: FiniteProbabilitySpace, variables: Mapping[str, RandomVariable] | None = None
) -> dict:
    atoms = list(ps.space.atoms)
    masks = sorted(ps.algebra.masks)
    events = [[i for i in range(len(atoms)) if m >> i & 1] for m in masks]
    weights = {str(j): _value_to_json(ps.weight[m]) for j, m in enumerate(masks)}
    doc = {"atoms": atoms, "events": events, "weights": weights, "variables": {}}
    for name, var in (variables or {}).items():
        doc["variables"][name] = {str(a): var.values[a] for a in atoms}
    return doc


def space_from_document(doc: dict) -> tuple[FiniteProbabilitySpace, dict]:
    from .seqio import MALFORMED, parse_rational
    try:
        space = SampleSpace(tuple(doc["atoms"]))
        masks = frozenset(
            sum(1 << i for i in idxs) for idxs in doc["events"]
        )
        algebra = EventAlgebra(space, masks)
        sorted_masks = sorted(masks)
        weight = {
            sorted_masks[int(j)]: parse_rational(v) if isinstance(v, str) else v
            for j, v in doc["weights"].items()
        }
        ps = FiniteProbabilitySpace(algebra, weight)
        variables = {}
        by_str = {str(a): a for a in space.atoms}
        for name, vals in doc.get("variables", {}).items():
            variables[name] = RandomVariable(
                space, {by_str[k]: v for k, v in vals.items()}
            )
        return ps, variables
    except MALFORMED as exc:
        raise InputError(f"malformed probability-space document: {exc}") from exc
