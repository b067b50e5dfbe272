"""Output checks of the benchmark's operations.

Every check compares a JSON report with values the benchmark computed
itself from the generated inputs, without calling collectiva, and returns
a list of problems (empty when the output is right).  Report numbers are
"n/d" strings, ints or floats; ``Fraction`` reads each of them exactly.
"""

from __future__ import annotations

import itertools
import math
import zlib
from fractions import Fraction

import numpy as np

EPS = Fraction(1, 100)          # the CLI's default --eps
SIGNIFICANCE = 0.01             # the CLI's default battery --significance
VILLE_MIN_COUNT = 200           # max(30, ceil(2 / eps)): the balance threshold
MAX_PROBLEMS = 5

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def prime_mask(n: int) -> np.ndarray:
    """mask[i] is True iff i + 1 is prime, for i < n."""
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    is_p[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if is_p[p]:
            is_p[p * p::2 * p] = False
    return is_p[1:]


def after_mask(x: np.ndarray, pattern) -> np.ndarray:
    """mask[i] is True iff trials i-len..i-1 spell pattern (0-based)."""
    k = len(pattern)
    mask = np.zeros(x.size, dtype=bool)
    hit = np.ones(x.size - k, dtype=bool)
    for j, v in enumerate(pattern):
        hit &= x[j:x.size - k + j] == v
    mask[k:] = hit
    return mask


def coin_mask(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).random(n) < 0.5


class Problems(list):
    def expect(self, ok: bool, what: str):
        if not ok and len(self) < MAX_PROBLEMS:
            self.append(what)
        return ok


# --- bitstream ---------------------------------------------------------------

class BitFacts:
    """Counts of a packed uniform bit file (most significant bit first)."""

    def __init__(self, packed: np.ndarray, seed: int):
        self.packed = packed
        self.n = 8 * packed.size
        self.byte_prefix = np.concatenate([[0], np.cumsum(_POPCOUNT[packed])])
        self.ones = int(self.byte_prefix[-1])
        bits = np.unpackbits(packed)
        self.transitions = int(np.count_nonzero(bits[1:] != bits[:-1]))
        self.rules = {}
        for name, mask in (("identity", np.ones(self.n, dtype=bool)),
                           ("primes", prime_mask(self.n)),
                           ("after:10", after_mask(bits, (1, 0))),
                           (f"coin:{seed}", coin_mask(seed, self.n))):
            self.rules[name] = (int(mask.sum()), int(bits[mask].sum()))
        co = zlib.compressobj(9, zlib.DEFLATED, -15)  # raw DEFLATE, level 9
        self.deflate_bits = 8 * len(co.compress(packed.tobytes()) + co.flush())

    def ones_prefix(self, c: int) -> int:
        """Popcount of the first c bits, from the packed bytes."""
        q, r = divmod(c, 8)
        head = int(self.byte_prefix[q])
        return head + int(_POPCOUNT[self.packed[q] >> (8 - r)]) if r else head


def check_stabilize(bits: BitFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    cps, t1, t0 = p["checkpoints"], p["trace"]["1"], p["trace"]["0"]
    out.expect(p["length"] == bits.n, f"length {p['length']} != {bits.n}")
    out.expect(cps[-1] == bits.n and len(cps) == len(t1) == len(t0), "checkpoint grid")
    for c, f1, f0 in zip(cps, t1, t0):
        want = Fraction(bits.ones_prefix(c), c)
        out.expect(Fraction(f1) == want, f"nu_{c}(1) = {f1}, popcount gives {want}")
        out.expect(Fraction(f0) == 1 - want, f"nu_{c}(0) = {f0}, popcount gives {1 - want}")
    return out


def _rule_rows(p, out, expected: dict, base: dict, labels):
    rows = {r["rule"]: r for r in p["rules"]}
    out.expect(sorted(rows) == sorted(expected), f"rules {sorted(rows)}")
    for name, (count, label_counts) in expected.items():
        r = rows.get(name)
        if r is None:
            continue
        out.expect(r["selected"] == count, f"{name}: selected {r['selected']} != {count}")
        freqs = {lab: Fraction(label_counts[lab], count) for lab in labels}
        got = {lab: Fraction(v) for lab, v in (r["frequencies"] or {}).items()}
        out.expect(got == freqs, f"{name}: frequencies {r['frequencies']}")
        dev = max(abs(freqs[lab] - base[lab]) for lab in labels)
        out.expect(Fraction(r["max_deviation"]) == dev, f"{name}: max_deviation {r['max_deviation']}")
        out.expect(r["status"] == ("pass" if dev <= EPS else "fail"), f"{name}: status")
    return rows


def check_randomness(bits: BitFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    out.expect(p["length"] == bits.n, "length")
    expected = {name: (k, {"1": o, "0": k - o}) for name, (k, o) in bits.rules.items()}
    base = {"1": Fraction(bits.ones, bits.n), "0": Fraction(bits.n - bits.ones, bits.n)}
    rows = _rule_rows(p, out, expected, base, ("0", "1"))
    overall = "fail" if any(r["status"] == "fail" for r in rows.values()) else "pass"
    out.expect(p["overall"] == overall, f"overall {p['overall']}")
    return out


def check_complexity(bits: BitFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    est, cond = p["estimate"], p["conditional"]
    out.expect(p["n_bits"] == bits.n, "n_bits")
    out.expect(cond["k_hat"] <= est["k_hat"], "conditional k_hat above plain k_hat")
    out.expect(cond["k_hat"] == bits.deflate_bits,
               f"conditional k_hat {cond['k_hat']} != raw deflate size {bits.deflate_bits}")
    out.expect(0.99 <= est["rate"] <= 1.01, f"rate {est['rate']} on uniform bits")
    out.expect(p["dips"] == [], f"dips {p['dips'][:3]} on uniform bits")
    lengths, c = [], 64
    while c < bits.n:
        lengths.append(c)
        c *= 2
    lengths.append(bits.n)
    out.expect([e["n_bits"] for e in p["curve"]] == lengths, "curve lengths")
    out.expect(p["curve"][-1]["k_hat"] == est["k_hat"], "curve end != estimate")
    return out


def check_battery(bits: BitFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    res = {r["name"]: r for r in p["results"]}
    n, s = bits.n, abs(2 * bits.ones - bits.n)
    mono = res["monobit"]
    out.expect(mono["statistic"] == s, f"monobit statistic {mono['statistic']} != {s}")
    want_p = math.erfc(s / math.sqrt(2 * n))
    out.expect(math.isclose(mono["p_value"], want_p, rel_tol=1e-9, abs_tol=1e-300),
               f"monobit p {mono['p_value']} != {want_p}")
    runs = res["runs"]
    if abs(Fraction(bits.ones, n) - Fraction(1, 2)) >= 2 / math.sqrt(n):
        out.expect(runs["p_value"] == 0.0, "runs prerequisite")
    else:
        out.expect(runs["statistic"] == 1 + bits.transitions,
                   f"runs statistic {runs['statistic']} != {1 + bits.transitions}")
    for r in p["results"]:
        if not r["skipped"]:
            out.expect(r["passed"] == (r["p_value"] >= SIGNIFICANCE), f"{r['name']}: passed")
    executed = [r["passed"] for r in p["results"] if not r["skipped"]]
    out.expect(p["passed"] == all(executed), "battery verdict")
    return out


def check_padic_frequency(bits: BitFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    want = Fraction(bits.ones, bits.n)
    out.expect(Fraction(p["final_value"]) == want, f"final_value {p['final_value']} != {want}")
    return out


class TernaryFacts:
    """Counts of a ternary a/b/c trial file (indices 0, 1, 2)."""

    LABELS = ("a", "b", "c")

    def __init__(self, tern: np.ndarray, seed: int):
        self.n = tern.size
        self.member_prefix = np.cumsum(tern != 1)  # labels a and c
        self.counts = {lab: int((tern == j).sum()) for j, lab in enumerate(self.LABELS)}
        evens = (np.arange(1, self.n + 1) % 2) == 0
        self.rules = {}
        for name, mask in (("identity", np.ones(self.n, dtype=bool)), ("evens", evens),
                           ("after:ab", after_mask(tern, (0, 1))),
                           (f"coin:{seed}", coin_mask(seed, self.n))):
            sel = tern[mask]
            self.rules[name] = (int(mask.sum()),
                                {lab: int((sel == j).sum()) for j, lab in enumerate(self.LABELS)})


def check_mix(tri: TernaryFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    out.expect(p["length"] == tri.n, "length")
    out.expect(p["additivity_exact"] is True, "additivity_exact is not true")
    for c, f in zip(p["checkpoints"], p["mixed_frequency"]):
        want = Fraction(int(tri.member_prefix[c - 1]), c)
        out.expect(Fraction(f) == want, f"mixed nu_{c} = {f}, text gives {want}")
    final = Fraction(tri.counts["a"] + tri.counts["c"], tri.n)
    out.expect(Fraction(p["mixed_frequency"][-1]) == final, "final mixed frequency")
    return out


def check_select(tri: TernaryFacts, rep) -> list:
    p, out = rep["payload"], Problems()
    base = {lab: Fraction(c, tri.n) for lab, c in tri.counts.items()}
    got = {lab: Fraction(v) for lab, v in p["base_frequencies"].items()}
    out.expect(got == base, "base frequencies")
    _rule_rows(p, out, tri.rules, base, tri.LABELS)
    return out


# --- structure ---------------------------------------------------------------

def pmfs_of(doc) -> dict:
    """{(obs_a, obs_b): {(value_a, value_b): Fraction}} of a pmf document."""
    out = {}
    for e in doc["pmfs"]:
        out[tuple(e["observables"])] = {
            tuple(int(v) for v in key.split("|")): Fraction(m) for key, m in e["mass"].items()
        }
    return out


def check_marginal_witness(pmfs: dict, tol: Fraction, rep) -> list:
    """The witness is a pmf whose pair marginals are the input pmfs (within tol)."""
    p, out = rep["payload"], Problems()
    feas = p["feasibility"]
    if not out.expect(feas["feasible"] is True and feas["witness"] is not None,
                      f"declared infeasible ({feas['method']})"):
        return out
    obs = feas["witness"]["observables"]
    mass = {tuple(int(v) for v in key.split("|")): Fraction(m)
            for key, m in feas["witness"]["mass"].items()}
    out.expect(all(m >= 0 for m in mass.values()), "negative witness mass")
    out.expect(abs(sum(mass.values()) - 1) <= tol, "witness masses do not sum to 1")
    for (a, b), want in pmfs.items():
        i, j = obs.index(a), obs.index(b)
        got = dict.fromkeys(want, Fraction(0))
        for t, m in mass.items():
            got[(t[i], t[j])] = got.get((t[i], t[j]), Fraction(0)) + m
        for key, w in want.items():
            out.expect(abs(got[key] - w) <= tol, f"witness marginal ({a},{b}) at {key}")
    return out


def check_marginal_infeasible(pmfs: dict, rep) -> list:
    """Any joint of k +-1 observables has sum_{i<j} E_ij >= -k/2, since
    (sum_i s_i)^2 >= 0; an input below that bound has no joint."""
    p, out = rep["payload"], Problems()
    k = len({o for pair in pmfs for o in pair})
    total = sum(sum(s * t * m for (s, t), m in pmf.items()) for pmf in pmfs.values())
    out.expect(total < Fraction(-k, 2), f"input sum E_ij = {total} is not below {-k}/2")
    out.expect(p["feasibility"]["feasible"] is False, "declared feasible")
    return out


def check_consistency(rep) -> list:
    p, out = rep["payload"], Problems()
    out.expect(p["consistent"] is True, "declared inconsistent")
    out.expect(p["no_signaling"]["violations"] == [], "no-signaling violations")
    out.expect(p["projective"]["violations"] == [], "projection violations")
    return out


def check_triple(triple: dict, rep) -> list:
    """Facets of the 3-observable correlation polytope in (E12, E13, E23):
    c . E <= 1 for the four sign vectors c whose product is -1."""
    p, out = rep["payload"], Problems()
    e = (Fraction(triple["e12"]), Fraction(triple["e13"]), Fraction(triple["e23"]))
    best = max(sum(c * x for c, x in zip(signs, e))
               for signs in itertools.product((1, -1), repeat=3)
               if signs[0] * signs[1] * signs[2] == -1)
    fc = p["facet_check"]
    out.expect(Fraction(fc["max_functional"]) == best, f"max functional {fc['max_functional']} != {best}")
    out.expect(fc["satisfied"] == (best <= 1), "facet verdict")
    if best > 1:
        out.expect(p["feasibility"]["feasible"] is False, "declared feasible past a facet")
    return out


def check_finite_prob(facts: dict, rep) -> list:
    out = Problems()
    totals = [Fraction(s["total"]) for s in rep["spaces"]]
    out.expect(totals == facts["totals"], f"total probabilities {totals}")
    for got, want in zip(rep["coarse"], facts["coarse"]):
        out.expect(got["events"] == want["events"], f"algebra of {got['events']} events")
        probs = [Fraction(v) for v in got["generator_probs"]]
        out.expect(probs == want["generator_probs"], "generator probabilities")
    out.expect(len(rep["coarse"]) == len(facts["coarse"]), "coarse algebra count")
    return out


# --- laws --------------------------------------------------------------------

# The bundled signed spaces as documented; the check also confirms that the
# report's Jordan decomposition matches these weights.
SIGNED_SPACES = {
    "three-atom": ({"w1": Fraction(-1, 2), "w2": Fraction(3, 4), "w3": Fraction(3, 4)},
                   {"w1": 0, "w2": 1, "w3": 2}),
    "sixteen-atom": ({f"s{i}": Fraction(3, 8) if i % 2 == 0 else Fraction(-1, 4)
                      for i in range(16)},
                     {f"s{i}": i % 4 + 2 for i in range(16)}),
}


def negative_subset_count(weights) -> int:
    """Subsets with negative total weight, by a subset-sum count over the
    integer numerators on a common denominator."""
    den = math.lcm(*(w.denominator for w in weights))
    counts = {0: 1}
    for w in weights:
        a = int(w * den)
        nxt = dict(counts)
        for s, c in counts.items():
            nxt[s + a] = nxt.get(s + a, 0) + c
        counts = nxt
    return sum(c for s, c in counts.items() if s < 0)


def check_signed(name: str, n_max: int, rep) -> list:
    p, out = rep["payload"], Problems()
    w, var = SIGNED_SPACES[name]
    jd = p["jordan"]
    seen = {a: Fraction(v) for a, v in jd["positive"].items()}
    seen.update({a: -Fraction(v) for a, v in jd["negative"].items()})
    out.expect(seen == w, f"{name}: weights differ from the bundled definition")
    neg = sum((v for v in w.values() if v < 0), Fraction(0))
    ng = p["negativity"]
    out.expect(Fraction(ng["min_event_prob"]) == neg, f"min_event_prob {ng['min_event_prob']} != {neg}")
    out.expect(Fraction(ng["complement_prob"]) == 1 - neg, "complement_prob")
    count = negative_subset_count(list(w.values()))
    out.expect(ng["negative_event_count"] == count,
               f"negative_event_count {ng['negative_event_count']} != {count}")
    m = sum(var[a] * x for a, x in w.items())
    e2 = sum(var[a] ** 2 * x for a, x in w.items())
    wl = p["weak_law"]
    out.expect(Fraction(wl["variable_mean"]) == m and Fraction(wl["f_of_mean"]) == m * m, "mean")
    schedule = [2**i for i in range(n_max.bit_length())]
    out.expect([r["n"] for r in wl["rows"]] == schedule, "weak-law schedule")
    for r in wl["rows"]:
        want = m * m + (e2 - m * m) / r["n"]
        out.expect(Fraction(r["expectation"]) == want, f"N={r['n']}: E f = {r['expectation']} != {want}")
        out.expect(Fraction(r["gap"]) == abs(want - m * m), f"N={r['n']}: gap")
    return out


def check_ville_large(n: int, rep) -> list:
    p, out = rep["payload"], Problems()
    if not out.expect(p["constructed"] is True, "construction failed"):
        return out
    out.expect(p["n"] == n, "length")
    out.expect(p["never_below_half"] is True, "running mean dropped below 1/2")
    out.expect(p["min_twice_ones_minus_n"] >= 0, "min_twice_ones_minus_n < 0")
    out.expect(Fraction(p["final_mean"]) == Fraction(p["ones"], n), "final_mean")
    return out


def check_ville_small(n: int, seed: int, rep) -> list:
    """Re-check the emitted sequence: running mean >= 1/2 at every prefix and
    each rule's selection within eps of 1/2 once it holds VILLE_MIN_COUNT."""
    p, out = rep["payload"], Problems()
    if not out.expect(p["constructed"] is True, "construction failed"):
        return out
    seq = p["sequence"]
    if not out.expect(len(seq) == n and set(seq) <= {"0", "1"}, "sequence"):
        return out
    x = np.frombuffer(seq.encode(), dtype=np.uint8) - ord("0")
    margin = 2 * np.cumsum(x) - np.arange(1, n + 1)
    out.expect(int(margin.min()) >= 0, f"running mean below 1/2 at {int(np.argmin(margin)) + 1}")
    rows = {r["rule"]: r for r in p["rules"]}
    for name, mask in (("identity", np.ones(n, dtype=bool)), ("primes", prime_mask(n)),
                       ("after:10", after_mask(x, (1, 0))), (f"coin:{seed}", coin_mask(seed, n))):
        k, o = int(mask.sum()), int(x[mask].sum())
        out.expect(name in rows and rows[name]["selected"] == k, f"{name}: selected")
        if k >= VILLE_MIN_COUNT:
            out.expect(abs(Fraction(o, k) - Fraction(1, 2)) <= EPS, f"{name}: {o}/{k} unbalanced")
    return out


def check_two_adic(terms: int, rep) -> list:
    """The frequencies (2^k-1)/(2^k+1) tend 2-adically to -1: the reported
    limit must be congruent to -1 modulo 2^digits."""
    p, out = rep["payload"], Problems()
    out.expect(p["count"] == terms, "count")
    out.expect(Fraction(p["final_value"]) == Fraction(2**terms - 1, 2**terms + 1), "final_value")
    pad = p["padic"]
    if not out.expect(pad["stabilized"] is True, "2-adic path not stabilized"):
        return out
    limit = pad["limit"]
    v = Fraction(limit["value"]) + 1
    out.expect(v.denominator == 1 and v.numerator % 2 ** len(limit["digits"]) == 0,
               f"limit {limit['value']} is not -1 mod 2^{len(limit['digits'])}")
    return out
