"""Joint-distribution existence for families of marginals.

Given pairwise (or more general) marginal distributions of finitely many
finite-valued observables, decide whether one joint distribution produces
all of them, produce a witness when it does, and evaluate the linear
correlation inequalities that are necessary for existence.

Existence is a phase-1 LP over the atoms of the joint support.  Its rows are a
basis of the marginal cells: each pmf, read over the family's ranges, keeps
the cells whose set of observables off their last value is nonempty and lies
in no earlier pmf's index set, plus one total-mass row.  Expanding each last value
as 1 minus the others writes every cell as the indicator of its off-last
values plus indicators on larger sets, a triangular change of basis, so the
kept rows are independent and span every cell row; once overlaps agree
(check_no_signaling), every dropped equation holds on every solution of the
kept ones (Abramsky & Brandenburger 2011).  HiGHS solves the LP by delayed
column generation (Dantzig & Wolfe 1960; Gilmore & Gomory 1961): it starts on
as many atoms as the LP has rows and adds, warm by the primal simplex, the
atoms its row duals price positive, a round at a time, so it holds the whole
support only when it must.  Float families take its answer ("lp-highs"); exact ones get
it certified exactly ("lp-certified"): a witness, or a Farkas vector y
with A^T y <= 0 < b.y on every atom, a Boole/Bell-type inequality the marginals
violate.  HiGHS's rationalized duals are that y when they pass the check; otherwise
one exact simplex decides from HiGHS's final basis (Applegate, Cook, Dash & Espinoza
2007), its tableau in integers over one common denominator (Edmonds 1967).
Disagreeing overlaps: "marginal-consistency".

HiGHS is called through the pybind11 bindings SciPy ships as
scipy/optimize/_highspy/_core, loaded from their file: `import scipy.optimize`
would spend about 0.55 s and 43 MB on its __init__ for a solver reached through it.
The options and result checks are those of linprog(method="highs").

The inequality catalogue is *generated*, not transcribed: the facets of
the correlation polytope (convex hull of the pair-correlation vectors of
deterministic +-1 assignments) are enumerated once by exact rational
hyperplane fitting and cached.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, InputError, check_mem, echo, echoed
from .finite_prob import FLOAT_TOL, is_exact, values_equal
from .seqio import MALFORMED, parse_rational

FLOAT_SLACK = 1e-9  # constraint slack in float mode
# HiGHS feasibility tolerances, below FLOAT_SLACK: at its default of 1e-7 a float
# family 1e-8 off the feasibility boundary got a witness _verify_witness rejects
HIGHS_OPTIONS = {"primal_feasibility_tolerance": FLOAT_SLACK / 10,
                 "dual_feasibility_tolerance": FLOAT_SLACK / 10}
SUPPORT_CAP = 10**6
HIGHS_MODULE = "scipy.optimize._highspy._core"
HIGHS_SCIPY = "scipy>=1.15"  # the first SciPy that ships HIGHS_MODULE
LP_CHECK_TOL = math.sqrt(1e-9) * 10  # linprog's _check_result tolerance


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
        values = [set(ranges[o]) for o in obs]
        for t, m in mass.items():
            if not (isinstance(t, tuple) and len(t) == len(obs)
                    and all(v in r for v, r in zip(t, values))):
                raise InputError(f"mass assigned to out-of-range tuple {t!r}")
            if isinstance(m, bool) or not isinstance(m, numbers.Real):
                raise InputError(f"mass {echo(repr(m))} at {t!r} is not a number")
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
    """Do overlapping pmfs agree on their common marginals?  One pass over the pairs, each
    pmf marginalized once per common set; a deviation is the max over every cell.

    Returns (ok, violations); each violation is
    (observables_a, observables_b, common, max_deviation).
    """
    violations = []
    marginal = lru_cache(maxsize=None)(lambda k, common: marginalize(family.pmfs[k], common))
    for (i, pa), (j, pb) in itertools.combinations(enumerate(family.pmfs), 2):
        common = tuple(sorted(set(pa.observables) & set(pb.observables)))
        if not common:
            continue
        dev, bad = _max_deviation(marginal(i, common), marginal(j, common))
        if bad:
            violations.append((pa.observables, pb.observables, common, dev))
    return not violations, violations


def _max_deviation(p: JointPMF, q: JointPMF) -> tuple:
    """max |p(t) - q(t)| over the cells either pmf gives mass (both are 0 elsewhere), and
    whether it exceeds the slack (none when both pmfs are exact)."""
    exact = p.exact and q.exact
    dev = Fraction(0) if exact else 0.0
    for t in itertools.chain(p.mass, q.mass):
        dev = max(dev, abs(p.prob(t) - q.prob(t)))
    return dev, dev > (0 if exact else FLOAT_SLACK)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: JointPMF | None = None
    violated: tuple | None = None  # (name, value)
    method: str = ""


def _pivot(T: list[list[int]], r: int, c: int, d: int) -> int:
    """Integer-preserving Gauss-Jordan pivot on T[r][c] (Edmonds 1967), in place: T holds d
    times a tableau and afterwards p = T[r][c] times that tableau pivoted; returns p.  Row r
    stays, every division is exact (Sylvester's identity)."""
    p, pr = T[r][c], T[r]
    for i, row in enumerate(T):
        f = row[c]
        if i != r and f:
            T[i] = [(p * u - f * v) // d for u, v in zip(row, pr)]
        elif i != r and p != d:
            T[i] = [p * u // d for u in row]
    return p


def _row_reduce(T: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Integer-preserving Gauss-Jordan on the first ncols columns of T, in place; returns
    the pivot column of each leading row (the rows below are zero there) and d, the value
    of every pivot entry: T / d is the reduced matrix."""
    pivots, d = [], 1
    for c in range(ncols):
        pr = next((i for i in range(len(pivots), len(T)) if T[i][c] != 0), None)
        if pr is not None:
            T[len(pivots)], T[pr] = T[pr], T[len(pivots)]
            d = _pivot(T, len(pivots), c, d)
            pivots.append(c)
    return pivots, d


def _check_cells(cells: int, what: str, cap: float = math.inf):
    """CapacityError past `cap` cells or the COLLECTIVA_MAX_MEM budget at 64 bytes a cell."""
    if cells > cap:
        raise CapacityError(f"{what} exceeds {cap} cells")
    check_mem(64 * cells, what)


def _row_sums(R: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """sum_k v[R[k][j]] for every atom j, flat, one table of R at a time (v[-1]: no row)."""
    return np.reshape(sum(v[t] for t in R), -1)


def _rows(R: list[np.ndarray], atoms) -> np.ndarray:
    """Each table's rows at the atoms, flat indices of the grid: [k, i] is R[k] at atoms[i]."""
    digits = np.unravel_index(atoms, np.broadcast_shapes(*(t.shape for t in R)))
    # clipped, a digit reads a table's one cell on each axis the table does not span
    return np.array([t.take(np.ravel_multi_index(digits, t.shape, mode="clip")) for t in R])


def _price(R: list[np.ndarray], y: list) -> np.ndarray:
    """(A^T y)_j of every atom j, times the lcm of y's denominators to sum ints."""
    scale = math.lcm(*(v.denominator for v in y))
    return _row_sums(R, np.array(
        [v.numerator * (scale // v.denominator) for v in y] + [0], dtype=object))


def _repair_simplex(R: list[np.ndarray], b: list[Fraction], basic: np.ndarray) -> tuple:
    """Exact phase-1 simplex (Bland's rule), min 1.a s.t. A_S x + a = b, from the basis
    `basic` (a mask over (x, a)) on its atoms S; atoms its dual y prices positive join, at
    most m a round, until it decides: (witness, None) or (None, b.y).  The tableau holds
    d [L b | B^-1 | atoms] in integers, L the lcm of b's denominators, its last row
    d [-L objective | -y | reduced costs].  Each atom of `basic` enters as it joins, in the
    first row that still holds its artificial, one `basic` leaves nonbasic, and where the
    atom's entry is nonzero; a start that is not exactly primal feasible is made again from
    the artificials (every one in `basic`), on the same atoms."""
    m, n = len(b), len(basic) - len(b)
    L = math.lcm(*(v.denominator for v in b))
    basis, cols, new, T, d = list(range(1, m + 1)), [], np.flatnonzero(basic[:n]), None, 1
    while True:
        _check_cells((m + 1) * (1 + m + len(cols) + len(new)), "exact repair tableau", SUPPORT_CAP)
        if start := T is None:  # built only once the first round's cells pass the check
            T = [[v.numerator * (L // v.denominator)] + [int(i == r) for i in range(m)]
                 for r, v in enumerate(b)]
            T.append([-sum(row[0] for row in T)] + [-1] * m)
        for col in _rows(R, new).T:
            rows = [1 + r for r in col if r >= 0]
            for row in T:
                row.append(sum(row[r] for r in rows))
            if start:  # entering as it joins, no pivot updates a column that joins later
                c = len(T[-1]) - 1
                r = next((i for i in range(m) if basis[i] <= m and not basic[n + i] and T[i][c]),
                         None)
                if r is not None:
                    d, basis[r] = _pivot(T, r, c, d), c
        cols.extend(new)
        if d < 0:
            T, d = [[-v for v in row] for row in T], -d
        if start and any(row[0] < 0 for row in T[:m]):
            return _repair_simplex(R, b, np.r_[basic[:n], np.ones(m, bool)])
        while (c := next((c for c in range(1 + m, len(T[-1])) if T[-1][c] < 0), None)):
            r = min((Fraction(T[i][0], T[i][c]), basis[i], i) for i in range(m) if T[i][c] > 0)[2]
            d, basis[r] = _pivot(T, r, c, d), c
        if T[-1][0] == 0:
            return {cols[c - 1 - m]: Fraction(T[i][0], d * L)
                    for i, c in enumerate(basis) if c > m and T[i][0]}, None
        new = np.flatnonzero(_price(R, [-v for v in T[-1][1:m + 1]]) > 0)[:m]
        if not len(new):
            return None, Fraction(-T[-1][0], d * L)


def _load_highs(directory):
    """Load HIGHS_MODULE from its file in `directory` under its own name, so a later
    `import scipy.optimize` reuses it: pybind11 registers its types only once a process."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
            core = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(core)
            sys.modules[HIGHS_MODULE] = core
            return core
    raise ImportError(f"marginal feasibility needs {HIGHS_SCIPY}, whose optimize/_highspy/_core "
                      f"holds the HiGHS bindings; there is none in {directory}")


def _highs():
    """HiGHS's bindings, loaded on first use."""
    core = sys.modules.get(HIGHS_MODULE)
    if core is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError(f"marginal feasibility needs {HIGHS_SCIPY}; scipy is not installed")
        core = _load_highs(os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy"))
    return core


def _phase1_model(R: np.ndarray, b: np.ndarray):
    """HiGHS holding min 1.a s.t. A x + a = b, x, a >= 0, where atom j has a 1 in each row
    R[:, j] >= 0, as [A | I] column by column, with the options linprog(method="highs",
    options=HIGHS_OPTIONS) sets."""
    h, m = _highs(), len(b)
    lp = h.HighsLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.row_lower_ = lp.row_upper_ = b
    highs = h._Highs()
    options = {"output_flag": False, "log_to_console": False, "presolve": "on",
               "simplex_strategy": int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
               "highs_debug_level": int(h.HighsDebugLevel.kHighsDebugLevelNone), **HIGHS_OPTIONS}
    for name, value in options.items():
        _set_option(highs, name, value)
    highs.passModel(lp)
    _add_atoms(highs, R)
    _add_atoms(highs, np.arange(m)[None], 1.0)  # the artificials
    return highs


def _set_option(highs, name: str, value):
    """Set a HiGHS option; ValueError when HiGHS rejects it."""
    if highs.setOptionValue(name, value) != _highs().HighsStatus.kOk:
        raise ValueError(f"HiGHS rejects the option {name}={value!r}")


def _add_atoms(highs, R: np.ndarray, cost: float = 0.0):
    """Append R's atoms to the model as columns of cost `cost` after its last one."""
    keep, n = R.T >= 0, R.shape[1]  # each column's rows ascending
    highs.addCols(n, np.full(n, cost), np.zeros(n), np.full(n, np.inf), int(keep.sum()),
                  np.r_[0, np.cumsum(keep.sum(axis=1))[:-1]].astype(np.int32),
                  R.T[keep], np.ones(keep.sum()))


def _phase1_lp(highs, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HiGHS's optimal column values and row duals of the model, warm from its last basis
    once it has one, checked as linprog checks them (else CapacityError).  On a fresh
    _phase1_model(R, b), what linprog returns on the same LP, bit for bit."""
    h = _highs()
    highs.run()
    status = highs.getModelStatus()
    if status != h.HighsModelStatus.kOptimal:
        raise CapacityError(f"LP solver ended with model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    xa, duals = np.array(solution.col_value), np.array(solution.row_dual)
    residual = b - np.array(solution.row_value)
    if not ((xa >= -LP_CHECK_TOL).all() and (abs(residual) <= LP_CHECK_TOL).all()
            and np.isfinite(duals).all() and np.isfinite(highs.getInfo().objective_function_value)):
        raise CapacityError(
            f"LP solution misses its bounds or equalities by more than {LP_CHECK_TOL:.2e}")
    return xa, duals


def _priced_phase1(R: list[np.ndarray], b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The optimal (x, a), row duals and final basis (a mask over (x, a)) of the phase-1 LP
    on every atom of the row tables R, by delayed column generation: HiGHS solves on the
    m = len(b) atoms with the largest sum of log masses of their rows (on all of them when
    there are at most m), then, warm, on those and at most m a round of the atoms its duals
    price above its dual tolerance, most positive first, until none is.  The last optimum is
    one of the full LP, its duals feasible for every atom."""
    m = len(b)
    logs = _row_sums(R, np.r_[np.log(b, out=np.full(m, -np.inf), where=b > 0), 0.0])
    order, n = np.sort(np.argsort(-logs, kind="stable")[:m]), len(logs)
    first, highs = len(order), _phase1_model(_rows(R, order), b)
    while True:  # the model's columns: atoms order[:first], a, atoms order[first:]
        xa, duals = _phase1_lp(highs, b)
        price = _row_sums(R, np.r_[duals, 0.0])
        price[order] = -np.inf  # every round adds an atom the model lacks
        new = np.flatnonzero(price > HIGHS_OPTIONS["dual_feasibility_tolerance"])
        if not len(new):
            break
        new = np.sort(new[np.argsort(-price[new], kind="stable")[:m]])
        _add_atoms(highs, _rows(R, new))
        order = np.r_[order, new]
        # added columns leave the last basis primal feasible, so the rounds after the first
        # solve re-optimize by the primal simplex (Desrosiers & Luebbecke 2005)
        _set_option(highs, "simplex_strategy",
                    int(_highs().simplex_constants.SimplexStrategy.kSimplexStrategyPrimal))
    # basic columns (a basic row reads -1 - row); any mask is a start the simplex repairs
    basic, cols = np.zeros(len(xa), bool), highs.getBasicVariables()[1]
    basic[cols[cols >= 0]] = True
    x, mask = np.zeros(n + m), np.zeros(n + m, bool)
    for out, v in ((x, xa), (mask, basic)):
        out[order], out[n:] = np.concatenate((v[:first], v[first + m:])), v[first:first + m]
    return x, duals, mask


def joint_exists(family: MarginalFamily) -> FeasibilityVerdict:
    """Linear feasibility: is there a joint pmf with the given marginals?

    HiGHS solves min 1.a s.t. A x + a = b, x, a >= 0 (0 just when a joint exists), adding
    atoms by pricing (_priced_phase1).  A has a row basis of the marginal cells: of each
    pmf, the cells t whose set U(t) of observables off their last value is nonempty and
    in no earlier pmf's index set, plus the total-mass row.  Overlaps that agree make every
    dropped cell's equation a signed sum of kept ones, right-hand sides included, so the
    LP has as many rows as the cells' rank.  Float families take its answer; exact ones
    its dual y if A^T y <= 0 < b.y holds exactly on every atom, else the repair simplex
    from its final basis.  A witness is checked on every cell of every pmf."""
    ok, violations = family.no_signaling
    if not ok:
        worst = max(violations, key=lambda v: v[3])
        return FeasibilityVerdict(
            False, violated=("no-signaling", worst[3]), method="marginal-consistency"
        )
    names = family.observables()
    ranges = {o: family.range_of(o) for o in names}
    dims = [len(ranges[o]) for o in names] or [1]  # no pmfs: one empty atom
    _check_cells(support := math.prod(dims), "joint support", SUPPORT_CAP)

    # R[k][d]: the row of atom d of the grid among pmf k's kept cells, -1 for a dropped one;
    # the last table, one cell, is the total-mass row.  Each pmf is read over the family's
    # ranges (a tuple outside its own has mass 0); it keeps cell t when the set U(t) of
    # observables t holds off their last value is nonempty and no earlier pmf holds all of U(t)
    R, rhs, held = [], [], []
    grid = np.indices(dims, sparse=True)
    for p in family.pmfs:
        axes = [names.index(o) for o in p.observables]
        row = np.full([dims[i] for i in axes], -1, np.int32)
        for d in np.ndindex(row.shape):
            off = {o for o, i, v in zip(p.observables, axes, d) if v != dims[i] - 1}
            if off and not any(off <= s for s in held):
                row[d] = len(rhs)
                rhs.append(p.prob(tuple(ranges[o][v] for o, v in zip(p.observables, d))))
        held.append(set(p.observables))
        R.append(row[tuple(grid[i] for i in axes)])
    R.append(np.full([1] * len(dims), len(rhs), np.int32))
    rhs.append(Fraction(1) if family.exact else 1.0)

    xa, duals, basic = _priced_phase1(R, np.array([float(v) for v in rhs]))
    method = "lp-certified" if family.exact else "lp-highs"
    if not family.exact:
        if xa[support:].max() > FLOAT_SLACK:  # per cell, as _verify_witness checks
            return FeasibilityVerdict(False, violated=("linear-system", None), method=method)
        mass = {j: float(xa[j]) for j in np.flatnonzero(xa[:support] > 1e-15)}
        total = sum(mass.values())
        mass = {j: v / total for j, v in mass.items()}
    else:
        b = [Fraction(v) for v in rhs]
        y = [Fraction(v).limit_denominator() for v in duals]
        by, mass = sum(u * v for u, v in zip(b, y)), None
        if not (by > 0 and (_price(R, y) <= 0).all()):
            mass, by = _repair_simplex(R, b, basic)
        if mass is None:
            return FeasibilityVerdict(False, violated=("farkas", by), method=method)
    digits = np.unravel_index(list(mass), dims)
    witness = JointPMF(names, ranges, {
        tuple(ranges[o][d[k]] for o, d in zip(names, digits)): v for k, v in enumerate(mass.values())})
    _verify_witness(witness, family)
    return FeasibilityVerdict(True, witness=witness, method=method)


def _verify_witness(witness: JointPMF, family: MarginalFamily):
    """Each pmf against the witness's marginal, over every cell either gives mass (a value
    outside the pmf's own range too).  An exact witness that misses one is a bug; a float
    one sits at the limit of float precision, where the family must be given exactly."""
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


def _nullspace_vector(m: list[list[int]]):
    """One nonzero nullspace vector of a (d x d+1) integer matrix, in integers, or None
    if the nullspace is not one-dimensional; m is row-reduced in place."""
    pivots, d = _row_reduce(m, len(m[0]))
    free = [c for c in range(len(m[0])) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [0] * len(m[0])
    vec[free[0]] = d
    for i, pc in enumerate(pivots):
        vec[pc] = -m[i][free[0]]
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
    verts = sorted({tuple(a[i] * a[j] for i, j in pairs)
                    for a in itertools.product((1, -1), repeat=n_obs)})
    facets = set()
    for sub in itertools.combinations(verts, d):
        vec = _nullspace_vector([list(v) + [1] for v in sub])
        if vec is None:
            continue
        c, bound = vec[:d], -vec[d]
        vals = [sum(ci * vi for ci, vi in zip(c, v)) for v in verts]
        if all(v >= bound for v in vals):
            c, bound, vals = [-ci for ci in c], -bound, [-v for v in vals]
        elif not all(v <= bound for v in vals):
            continue
        if all(v == bound for v in vals):
            continue  # degenerate: not a proper face
        if bound <= 0:
            continue  # origin (uniform joint) is interior, so every facet has bound > 0
        facets.add((tuple(Fraction(ci, bound) for ci in c), Fraction(1)))
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
    """Permutation symmetry + projection compatibility over the family: the no-signaling
    violations of pairs on one index set, and of pairs where one index set holds the other.

    Violations are ("permutation"|"projection", obs_a, obs_b, max_deviation), a projection
    naming the larger pmf first: permutations in pair order, then projections by their
    (larger, smaller) places.
    """
    place = {p.observables: k for k, p in enumerate(family.pmfs)}
    perms, projs = [], []
    for a, b, common, dev in family.no_signaling[1]:
        if len(a) == len(b) == len(common):
            perms.append(("permutation", a, b, dev))
        elif len(common) in (len(a), len(b)):
            projs.append(("projection", *sorted((a, b), key=len, reverse=True), dev))
    violations = perms + sorted(projs, key=lambda v: (place[v[1]], place[v[2]]))
    return not violations, violations


# --- file formats ------------------------------------------------------------

def _parse_value(v):
    """A document value: a non-string as decoded; a string with a decimal point or
    an exponent is a float, any other an exact rational (parse_rational)."""
    if not isinstance(v, str):
        return v
    try:
        if "/" in v or "." not in v and "e" not in v.lower():
            return parse_rational(v)
        return float(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse value {echo(v.strip())}: {echoed(exc, v)}") from exc


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
        mass = groups.setdefault(obs, {})
        if vals in mass:
            raise InputError(f"pmf {obs!r} repeats cell {vals!r}")
        mass[vals] = _parse_value(row[2])
    pmfs = []
    for obs, mass in groups.items():
        ranges = {o: tuple(sorted({t[i] for t in mass}, key=repr)) for i, o in enumerate(obs)}
        pmfs.append(JointPMF(obs, ranges, mass))
    return MarginalFamily(tuple(pmfs))


def family_from_document(doc) -> MarginalFamily:
    try:
        pmfs = []
        for entry in doc["pmfs"]:
            obs, ranges = entry["observables"], entry["ranges"]
            if not isinstance(obs, list) or not all(isinstance(ranges[o], list) for o in obs):
                raise InputError("a pmf's 'observables' and each of its ranges must be a JSON list")
            obs, mass = tuple(obs), {}
            for key, v in entry["mass"].items():
                vals = tuple(_parse_label(s) for s in str(key).split("|"))
                if vals in mass:
                    raise InputError(f"pmf {obs!r} repeats cell {vals!r}")
                mass[vals] = _parse_value(v)
            pmfs.append(JointPMF(obs, ranges, mass))
        return MarginalFamily(tuple(pmfs))
    except MALFORMED as exc:
        raise InputError(f"malformed marginal-family document: {exc}") from exc
