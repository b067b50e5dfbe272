"""Joint-distribution existence for families of marginals.

Given pairwise (or more general) marginal distributions of finitely many
finite-valued observables, decide whether one joint distribution produces
all of them, produce a witness when it does, and evaluate the linear
correlation inequalities that are necessary for existence.

Existence is one HiGHS LP for every family.  Float families take its answer
("lp-highs"); exact ones get it certified in `Fraction` ("lp-certified"): a
witness, or a Farkas vector y with A^T y <= 0 < b.y, a Boole/Bell-type
inequality the marginals violate.  Disagreeing overlaps: "marginal-consistency".

The inequality catalogue is *generated*, not transcribed: the facets of
the correlation polytope (convex hull of the pair-correlation vectors of
deterministic +-1 assignments) are enumerated once by exact rational
hyperplane fitting and cached.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, InputError, check_mem
from .finite_prob import FLOAT_TOL, is_exact, values_equal

FLOAT_SLACK = 1e-9  # constraint slack in float mode
# HiGHS feasibility tolerances, below FLOAT_SLACK: at its default of 1e-7 a float
# family 1e-8 off the feasibility boundary got a witness _verify_witness rejects
HIGHS_OPTIONS = {"primal_feasibility_tolerance": FLOAT_SLACK / 10,
                 "dual_feasibility_tolerance": FLOAT_SLACK / 10}
SUPPORT_CAP = 10**6


@dataclass(frozen=True)
class JointPMF:
    """pmf over tuples of observable values, with named coordinates."""

    observables: tuple[str, ...]
    ranges: Mapping[str, tuple]
    mass: Mapping[tuple, object]

    def __post_init__(self):
        obs = tuple(self.observables)
        object.__setattr__(self, "observables", obs)
        if len(set(obs)) != len(obs):
            raise InputError("duplicate observable names")
        ranges = {o: tuple(self.ranges[o]) for o in obs}
        if any(len(set(r)) != len(r) for r in ranges.values()):
            raise InputError("duplicate value in an observable's range")
        object.__setattr__(self, "ranges", ranges)
        mass = dict(self.mass)
        object.__setattr__(self, "mass", mass)
        support = set(itertools.product(*(ranges[o] for o in obs)))
        for t, m in mass.items():
            if t not in support:
                raise InputError(f"mass assigned to out-of-range tuple {t!r}")
            if m < 0 and (is_exact(m) or m < -FLOAT_TOL):
                raise InputError(f"negative mass {m} at {t!r}")
        total = sum(mass.values())
        exact = is_exact(*mass.values()) if mass else True
        if not values_equal(total, Fraction(1) if exact else 1.0, exact):
            raise InputError(f"masses sum to {total}, not 1")

    @cached_property
    def exact(self) -> bool:
        return is_exact(*self.mass.values()) if self.mass else True

    def prob(self, t: tuple):
        return self.mass.get(tuple(t), Fraction(0) if self.exact else 0.0)

    def support(self):
        return itertools.product(*(self.ranges[o] for o in self.observables))


def marginalize(joint: JointPMF, subset: Sequence[str]) -> JointPMF:
    """Sum out every observable not in `subset` (result ordered as given)."""
    subset = tuple(subset)
    for o in subset:
        if o not in joint.observables:
            raise InputError(f"unknown observable {o!r}")
    pos = [joint.observables.index(o) for o in subset]
    out: dict[tuple, object] = {}
    for t, m in joint.mass.items():
        key = tuple(t[i] for i in pos)
        out[key] = out.get(key, Fraction(0) if joint.exact else 0.0) + m
    return JointPMF(subset, {o: joint.ranges[o] for o in subset}, out)


@dataclass(frozen=True)
class MarginalFamily:
    pmfs: tuple[JointPMF, ...]

    def __post_init__(self):
        pmfs = tuple(self.pmfs)
        object.__setattr__(self, "pmfs", pmfs)
        seen = set()
        for p in pmfs:
            # two orderings of one index set may coexist (their agreement is
            # what the permutation check verifies); exact duplicates may not
            key = p.observables
            if key in seen:
                raise InputError(f"duplicate index subset {key!r}")
            seen.add(key)

    @property
    def exact(self) -> bool:
        return all(p.exact for p in self.pmfs)

    @cached_property
    def no_signaling(self) -> tuple[bool, list]:
        """check_no_signaling of this family, computed once."""
        return check_no_signaling(self)

    def observables(self) -> tuple[str, ...]:
        names: list[str] = []
        for p in self.pmfs:
            for o in p.observables:
                if o not in names:
                    names.append(o)
        return tuple(sorted(names))

    def range_of(self, obs: str) -> tuple:
        vals: list = []
        for p in self.pmfs:
            if obs in p.observables:
                for v in p.ranges[obs]:
                    if v not in vals:
                        vals.append(v)
        return tuple(vals)


def check_no_signaling(family: MarginalFamily) -> tuple[bool, list]:
    """Do overlapping pmfs agree on their common marginals?

    Returns (ok, violations); each violation is
    (observables_a, observables_b, common, max_deviation).
    """
    violations = []
    for pa, pb in itertools.combinations(family.pmfs, 2):
        common = tuple(sorted(set(pa.observables) & set(pb.observables)))
        if not common:
            continue
        dev, bad = _max_deviation(marginalize(pa, common), marginalize(pb, common))
        if bad:
            violations.append((pa.observables, pb.observables, common, dev))
    return not violations, violations


def _max_deviation(p: JointPMF, q: JointPMF, perm=None) -> tuple:
    """max |p(t) - q(t')| over p's support, t' being t reordered by `perm`,
    and whether it exceeds the slack (none when both pmfs are exact)."""
    exact = p.exact and q.exact
    dev = Fraction(0) if exact else 0.0
    for t in p.support():
        dev = max(dev, abs(p.prob(t) - q.prob(t if perm is None else tuple(t[i] for i in perm))))
    return dev, dev > (0 if exact else FLOAT_SLACK)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: JointPMF | None = None
    violated: tuple | None = None  # (name, value)
    method: str = ""


def _pivot(T: list[list], r: int, c: int):
    """Scale row r so T[r][c] == 1 and clear column c from every other row."""
    piv = Fraction(T[r][c])
    T[r] = [v / piv if v else v for v in T[r]]
    nz = [(j, v) for j, v in enumerate(T[r]) if v]
    for i, row in enumerate(T):
        f = row[c]
        if i != r and f:
            for j, v in nz:
                row[j] -= f * v


def _row_reduce(T: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ncols columns of T, in place; returns the
    pivot column of each leading row (the rows below are zero there)."""
    pivots: list[int] = []
    for c in range(ncols):
        pr = next((i for i in range(len(pivots), len(T)) if T[i][c] != 0), None)
        if pr is not None:
            T[len(pivots)], T[pr] = T[pr], T[len(pivots)]
            _pivot(T, len(pivots), c)
            pivots.append(c)
    return pivots


def _check_cells(cells: int, what: str, cap: float = math.inf):
    """CapacityError past `cap` cells or the COLLECTIVA_MAX_MEM budget at 64 bytes a cell."""
    if cells > cap:
        raise CapacityError(f"{what} exceeds {cap} cells")
    check_mem(64 * cells, what)


def _price(R: np.ndarray, y: list) -> np.ndarray:
    """(A^T y)_j of every atom j, times the lcm of y's denominators to sum ints."""
    scale = math.lcm(*(v.denominator for v in y))
    Y = np.array([v.numerator * (scale // v.denominator) for v in y] + [0], dtype=object)
    return sum(Y[row] for row in R)


def _support_solve(R: np.ndarray, b: list[Fraction], atoms) -> dict | None:
    """The exact solution of A_S x = b on the atoms S, free columns at 0, if it is >= 0."""
    _check_cells(len(b) * (len(atoms) + 1), "exact support solve", SUPPORT_CAP)
    T = [[0] * len(atoms) + [v] for v in b]
    for k, j in enumerate(atoms):
        for r in R[:, j][R[:, j] >= 0]:
            T[r][k] = 1
    pivots = _row_reduce(T, len(atoms))
    if any(row[-1] for row in T[len(pivots):]) or any(row[-1] < 0 for row in T):
        return None
    return {atoms[c]: T[i][-1] for i, c in enumerate(pivots) if T[i][-1]}


def _repair_simplex(R: np.ndarray, b: list[Fraction], atoms) -> tuple:
    """Exact phase-1 simplex (Bland's rule), min 1.a s.t. A_S x + a = b, on the atoms S; atoms
    its dual y prices positive join, at most m a round, until it decides: (witness, None) or
    (None, b.y).  Rows [b_i | B^-1 | atoms], the last [-objective | -y | reduced costs]."""
    m = len(b)
    T = [[v] + [int(i == r) for i in range(m)] for r, v in enumerate(b)] + [[-sum(b)] + [-1] * m]
    basis, cols, new = list(range(1, m + 1)), [], list(atoms)
    while True:
        _check_cells((m + 1) * (1 + m + len(cols) + len(new)), "exact repair tableau", SUPPORT_CAP)
        for j in new:
            rows = [1 + r for r in R[:, j] if r >= 0]
            for row in T:
                row.append(sum(row[r] for r in rows))
        cols.extend(new)
        while (c := next((c for c in range(1 + m, len(T[-1])) if T[-1][c] < 0), None)):
            r = min((T[i][0] / T[i][c], basis[i], i) for i in range(m) if T[i][c] > 0)[2]
            _pivot(T, r, c)
            basis[r] = c
        if T[-1][0] == 0:
            return {cols[c - 1 - m]: T[i][0] for i, c in enumerate(basis) if c > m and T[i][0]}, None
        new = np.flatnonzero(_price(R, [-v for v in T[-1][1:m + 1]]) > 0)[:m]
        if not len(new):
            return None, -T[-1][0]


def joint_exists(family: MarginalFamily) -> FeasibilityVerdict:
    """Linear feasibility: is there a joint pmf with the given marginals?

    HiGHS solves min 1.a s.t. A x + a = b, x, a >= 0 (0 just when a joint exists).  Float
    families take its answer; exact ones its dual y if A^T y <= 0 < b.y holds exactly on
    every atom, else an exact solve on its support, else the repair simplex."""
    ok, violations = family.no_signaling
    if not ok:
        worst = max(violations, key=lambda v: v[3])
        return FeasibilityVerdict(
            False, violated=("no-signaling", worst[3]), method="marginal-consistency"
        )
    names = family.observables()
    ranges = {o: family.range_of(o) for o in names}
    dims = [len(ranges[o]) for o in names]
    support = 1
    for d in dims:
        support *= d
        if support > SUPPORT_CAP:
            raise CapacityError(f"joint support exceeds {SUPPORT_CAP} atoms")
    _check_cells((len(family.pmfs) + 1) * support, "feasibility LP")

    # R[k, j]: atom j's row among pmf k's cells (mixed-radix index into its ranges),
    # -1 when a value is outside them; the last block is the total-mass row
    grid, blocks, rhs = np.indices(dims, sparse=True), [], []
    for p in family.pmfs:
        loc = np.broadcast_arrays(*(
            np.array([p.ranges[o].index(v) if v in p.ranges[o] else -1
                      for v in ranges[o]])[grid[names.index(o)]] for o in p.observables))
        cell = np.ravel_multi_index(loc, [len(p.ranges[o]) for o in p.observables], mode="clip")
        blocks.append(np.broadcast_to(
            np.where(np.min(loc, axis=0) < 0, -1, cell + len(rhs)), dims).ravel())
        rhs.extend(p.prob(t) for t in p.support())
    R = np.array(blocks + [np.full(support, len(rhs))])
    rhs.append(Fraction(1) if family.exact else 1.0)

    from scipy.optimize import linprog
    from scipy.sparse import csc_array, hstack, identity

    m, keep = len(rhs), R >= 0
    A = csc_array((np.ones(keep.sum()), (R[keep], keep.nonzero()[1])), shape=(m, support))
    res = linprog(np.r_[np.zeros(support), np.ones(m)], A_eq=hstack([A, identity(m)], format="csc"),
                  b_eq=np.array([float(v) for v in rhs]), bounds=(0, None), method="highs",
                  options=HIGHS_OPTIONS)
    if res.status != 0:
        raise CapacityError(f"LP solver returned status {res.status}: {res.message}")
    x, method = res.x[:support], "lp-certified" if family.exact else "lp-highs"
    if not family.exact:
        if res.x[support:].max() > FLOAT_SLACK:  # per cell, as _verify_witness checks
            return FeasibilityVerdict(False, violated=("linear-system", None), method=method)
        mass = {j: float(x[j]) for j in np.flatnonzero(x > 1e-15)}
        total = sum(mass.values())
        mass = {j: v / total for j, v in mass.items()}
    else:
        b = [Fraction(v) for v in rhs]
        y = [Fraction(v).limit_denominator() for v in res.eqlin.marginals]
        by, mass = sum(u * v for u, v in zip(b, y)), None
        if not (by > 0 and (_price(R, y) <= 0).all()):
            mass = _support_solve(R, b, np.flatnonzero(x > 0))
            if mass is None:
                mass, by = _repair_simplex(R, b, np.flatnonzero(x > 0))
        if mass is None:
            return FeasibilityVerdict(False, violated=("farkas", by), method=method)
    digits = np.unravel_index(list(mass), dims or [1])  # no pmfs: one empty atom
    witness = JointPMF(names, ranges, {
        tuple(ranges[o][d[k]] for o, d in zip(names, digits)): v for k, v in enumerate(mass.values())})
    _verify_witness(witness, family)
    return FeasibilityVerdict(True, witness=witness, method=method)


def _verify_witness(witness: JointPMF, family: MarginalFamily):
    """An exact witness that misses a marginal is a bug; a float one sits at the
    limit of float precision, where the family must be given exactly."""
    for p in family.pmfs:
        dev, bad = _max_deviation(p, marginalize(witness, p.observables))
        if bad and family.exact:
            raise AssertionError(f"witness fails to reproduce marginal {p.observables}")
        if bad:
            raise CapacityError(
                f"float witness misses marginal {p.observables} by {dev:.3g} > {FLOAT_SLACK}: "
                "the family is too close to the feasibility boundary to decide in floats; "
                "give its masses as exact rationals")


# --- correlation polytope --------------------------------------------------

@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations of three +-1 observables, with optional means."""

    e12: object
    e23: object
    e13: object
    means: tuple = (0, 0, 0)

    def __post_init__(self):
        for v in (self.e12, self.e23, self.e13, *self.means):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise InputError(f"correlation/mean {v!r} is not a number")
            if not -1 <= v <= 1:
                raise InputError(f"correlation/mean {v} outside [-1, 1]")
        object.__setattr__(self, "means", tuple(self.means))

    def vector(self):
        return (self.e12, self.e23, self.e13)


def _rational_nullspace_vector(rows: list[list[Fraction]]):
    """One nonzero nullspace vector of a (d x d+1) rational matrix, or None
    if the nullspace is not one-dimensional."""
    m = [row[:] for row in rows]
    ncols = len(m[0])
    pivots = _row_reduce(m, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * ncols
    vec[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        vec[pc] = -m[i][fc]
    return vec


@lru_cache(maxsize=None)
def correlation_facets(n_obs: int) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
    """Facets (c, bound) with c . E <= bound of the pair-correlation polytope
    of n_obs +-1 observables, enumerated from the deterministic assignments.

    Pairs are ordered lexicographically: (1,2), (1,3), ..., (n-1,n).
    """
    if n_obs < 2:
        raise InputError("need at least two observables")
    pairs = list(itertools.combinations(range(n_obs), 2))
    d = len(pairs)
    verts = sorted(
        {
            tuple(Fraction(a[i] * a[j]) for i, j in pairs)
            for a in itertools.product((1, -1), repeat=n_obs)
        }
    )
    facets = set()
    for sub in itertools.combinations(verts, d):
        rows = [list(v) + [Fraction(1)] for v in sub]
        vec = _rational_nullspace_vector(rows)
        if vec is None:
            continue
        c, negb = vec[:d], vec[d]
        bound = -negb
        vals = [sum(ci * vi for ci, vi in zip(c, v)) for v in verts]
        if all(v <= bound for v in vals):
            pass
        elif all(v >= bound for v in vals):
            c, bound = [-ci for ci in c], -bound
        else:
            continue
        if all(v == bound for v in (sum(ci * vi for ci, vi in zip(c, v)) for v in verts)):
            continue  # degenerate: not a proper face
        if bound <= 0:
            continue  # origin (uniform joint) is interior, so every facet has bound > 0
        scale = bound
        facets.add((tuple(ci / scale for ci in c), Fraction(1)))
    return tuple(sorted(facets))


def boole_bell_value(triple: CorrelationTriple):
    """Max facet functional of the 3-observable correlation polytope.

    Returns (value, satisfied, tight_coefficients); satisfied means the
    point lies inside every generated facet (necessary for a joint).
    Coefficients follow the facet coordinate order (E12, E13, E23).
    """
    e = (triple.e12, triple.e13, triple.e23)
    exact = is_exact(*e)
    best = None
    for c, bound in correlation_facets(3):
        v = sum(ci * ei for ci, ei in zip(c, e))
        if best is None or v > best[0]:
            best = (v, c)
    value, coeffs = best
    tol = 0 if exact else FLOAT_SLACK
    return value, bool(value <= 1 + tol), coeffs


def triple_to_family(triple: CorrelationTriple) -> MarginalFamily:
    """The three pair pmfs determined by the correlations and means:
    p(s, t) = (1 + s*m_i + t*m_j + s*t*E_ij) / 4 on {+1, -1}^2."""
    m1, m2, m3 = triple.means
    spec = [("a1", "a2", m1, m2, triple.e12), ("a2", "a3", m2, m3, triple.e23),
            ("a1", "a3", m1, m3, triple.e13)]
    pmfs = []
    for oi, oj, mi, mj, eij in spec:
        mass = {}
        for s, t in itertools.product((1, -1), repeat=2):
            q = (1 + s * mi + t * mj + s * t * eij)
            q = Fraction(q) / 4 if is_exact(q) else q / 4
            mass[(s, t)] = q
        pmfs.append(JointPMF((oi, oj), {oi: (1, -1), oj: (1, -1)}, mass))
    return MarginalFamily(tuple(pmfs))


def kolmogorov_consistency(family: MarginalFamily) -> tuple[bool, list]:
    """Permutation symmetry + projection compatibility over the family.

    Violations are ("permutation"|"projection", obs_a, obs_b, max_deviation).
    """
    violations = []
    for pa, pb in itertools.combinations(family.pmfs, 2):
        sa, sb = set(pa.observables), set(pb.observables)
        if sa == sb and pa.observables != pb.observables:
            perm = [pa.observables.index(o) for o in pb.observables]
            dev, bad = _max_deviation(pa, pb, perm)
            if bad:
                violations.append(("permutation", pa.observables, pb.observables, dev))
    for pa, pb in itertools.permutations(family.pmfs, 2):
        sa, sb = set(pa.observables), set(pb.observables)
        if sb < sa:
            dev, bad = _max_deviation(pb, marginalize(pa, pb.observables))
            if bad:
                violations.append(("projection", pa.observables, pb.observables, dev))
    return not violations, violations


# --- file formats ------------------------------------------------------------

def _parse_value(s: str):
    s = s.strip()
    try:
        return Fraction(s) if ("/" in s or "." not in s and "e" not in s.lower()) else float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse value {s!r}: {exc}") from exc


def _parse_label(s: str):
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        return s


def family_from_csv_rows(rows: Sequence[Sequence[str]]) -> MarginalFamily:
    """Rows of (observable_set, value_tuple, mass); fields within the first
    two columns separated by '|'."""
    groups: dict[tuple[str, ...], dict[tuple, object]] = {}
    for row in rows:
        if len(row) != 3:
            raise InputError(f"expected 3 columns, got {row!r}")
        obs = tuple(s.strip() for s in row[0].split("|"))
        vals = tuple(_parse_label(s) for s in row[1].split("|"))
        if len(vals) != len(obs):
            raise InputError(f"tuple arity mismatch in row {row!r}")
        groups.setdefault(obs, {})[vals] = _parse_value(row[2])
    pmfs = []
    for obs, mass in groups.items():
        ranges = {o: tuple(sorted({t[i] for t in mass}, key=repr)) for i, o in enumerate(obs)}
        pmfs.append(JointPMF(obs, ranges, mass))
    return MarginalFamily(tuple(pmfs))


def family_from_document(doc) -> MarginalFamily:
    try:
        pmfs = []
        for entry in doc["pmfs"]:
            obs = tuple(entry["observables"])
            ranges = {o: tuple(entry["ranges"][o]) for o in obs}
            mass = {}
            for key, v in entry["mass"].items():
                vals = tuple(_parse_label(s) for s in str(key).split("|"))
                mass[vals] = _parse_value(str(v)) if isinstance(v, str) else v
            pmfs.append(JointPMF(obs, ranges, mass))
        return MarginalFamily(tuple(pmfs))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed marginal-family document: {exc}") from exc
