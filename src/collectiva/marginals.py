"""Joint-distribution existence for families of marginals.

Given pairwise (or more general) marginal distributions of finitely many
finite-valued observables, decide whether one joint distribution produces
all of them, produce a witness when it does, and evaluate the linear
correlation inequalities that are necessary for existence.

The inequality catalogue is *generated*, not transcribed: the facets of
the correlation polytope (convex hull of the pair-correlation vectors of
deterministic +-1 assignments) are enumerated once by exact rational
hyperplane fitting and cached.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, InputError, max_mem_bytes
from .finite_prob import FLOAT_TOL, is_exact, values_equal

FLOAT_SLACK = 1e-9  # constraint slack in float mode
SUPPORT_CAP = 10**6
EXACT_SIMPLEX_CAP = 4096  # beyond this many joint atoms, use the float solver


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

    @property
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
        ma, mb = marginalize(pa, common), marginalize(pb, common)
        exact = ma.exact and mb.exact
        dev = Fraction(0) if exact else 0.0
        for t in ma.support():
            d = abs(ma.prob(t) - mb.prob(t))
            if d > dev:
                dev = d
        tol = 0 if exact else FLOAT_SLACK
        if dev > tol:
            violations.append((pa.observables, pb.observables, common, dev))
    return not violations, violations


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: JointPMF | None = None
    violated: tuple | None = None  # (name, value)
    method: str = ""


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


def joint_exists(family: MarginalFamily) -> FeasibilityVerdict:
    """Linear feasibility: is there a joint pmf with the given marginals?

    Exact rational solve (phase-1 simplex) when all masses are rational and
    the joint support is small; scipy's HiGHS LP otherwise.  Inconsistent
    overlapping marginals short-circuit to infeasible.
    """
    ok, violations = check_no_signaling(family)
    if not ok:
        worst = max(violations, key=lambda v: v[3])
        return FeasibilityVerdict(
            False, violated=("no-signaling", worst[3]), method="marginal-consistency"
        )
    names = family.observables()
    ranges = {o: family.range_of(o) for o in names}
    support = 1
    for o in names:
        support *= len(ranges[o])
        if support > SUPPORT_CAP:
            raise CapacityError(f"joint support exceeds {SUPPORT_CAP} atoms")
    tuples = list(itertools.product(*(ranges[o] for o in names)))
    col = {t: j for j, t in enumerate(tuples)}

    rows: list[list] = []
    rhs: list = []
    for p in family.pmfs:
        pos = [names.index(o) for o in p.observables]
        for sub in p.support():
            row = [0] * len(tuples)
            for t, j in col.items():
                if tuple(t[i] for i in pos) == sub:
                    row[j] = 1
            rows.append(row)
            rhs.append(p.prob(sub))
    rows.append([1] * len(tuples))
    rhs.append(Fraction(1) if family.exact else 1.0)

    mem = max_mem_bytes()
    if mem is not None and len(rows) * len(tuples) > max(1, mem // 64):
        raise CapacityError("feasibility tableau exceeds COLLECTIVA_MAX_MEM")

    if family.exact and len(tuples) <= EXACT_SIMPLEX_CAP:
        sol = _phase1_simplex(
            [[Fraction(v) for v in row] for row in rows], [Fraction(v) for v in rhs]
        )
        if sol is None:
            return FeasibilityVerdict(False, violated=("linear-system", None),
                                      method="exact-simplex")
        mass = {t: sol[col[t]] for t in tuples if sol[col[t]] != 0}
        witness = JointPMF(names, ranges, mass)
        _verify_witness(witness, family, exact=True)
        return FeasibilityVerdict(True, witness=witness, method="exact-simplex")

    from scipy.optimize import linprog

    A = np.array([[float(v) for v in row] for row in rows])
    bvec = np.array([float(v) for v in rhs])
    res = linprog(np.zeros(len(tuples)), A_eq=A, b_eq=bvec,
                  bounds=[(0, None)] * len(tuples), method="highs")
    if res.status == 2:
        return FeasibilityVerdict(False, violated=("linear-system", None),
                                  method="lp-highs")
    if res.status != 0:
        raise AssertionError(f"LP solver returned status {res.status}: {res.message}")
    mass = {t: max(float(res.x[col[t]]), 0.0) for t in tuples if res.x[col[t]] > 1e-15}
    total = sum(mass.values())
    mass = {t: v / total for t, v in mass.items()}
    witness = JointPMF(names, ranges, mass)
    _verify_witness(witness, family, exact=False)
    return FeasibilityVerdict(True, witness=witness, method="lp-highs")


def _verify_witness(witness: JointPMF, family: MarginalFamily, exact: bool):
    for p in family.pmfs:
        m = marginalize(witness, p.observables)
        for t in p.support():
            if exact:
                ok = m.prob(t) == p.prob(t)
            else:
                ok = abs(m.prob(t) - p.prob(t)) <= FLOAT_SLACK
            if not ok:
                raise AssertionError(
                    f"witness fails to reproduce marginal {p.observables} at {t}"
                )


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
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
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
            exact = pa.exact and pb.exact
            dev = Fraction(0) if exact else 0.0
            for t in pa.support():
                d = abs(pa.prob(t) - pb.prob(tuple(t[i] for i in perm)))
                dev = max(dev, d)
            if dev > (0 if exact else FLOAT_SLACK):
                violations.append(("permutation", pa.observables, pb.observables, dev))
    for pa, pb in itertools.permutations(family.pmfs, 2):
        sa, sb = set(pa.observables), set(pb.observables)
        if sb < sa:
            proj = marginalize(pa, pb.observables)
            exact = proj.exact and pb.exact
            dev = Fraction(0) if exact else 0.0
            for t in pb.support():
                dev = max(dev, abs(proj.prob(t) - pb.prob(t)))
            if dev > (0 if exact else FLOAT_SLACK):
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
