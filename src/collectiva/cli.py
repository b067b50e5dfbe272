"""Command-line interface.

Every command reads its inputs, runs one analysis, and emits a single
schema-validated JSON report (stdout or --out).  Exit codes: 0 success,
2 malformed input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

# each command runs only the modules it calls (the package loads them lazily)
from . import collectives, complexity, marginals, padic, report, seqio, signed_prob
from .errors import CapacityError, ConstructionError, InputError, echo

DEFAULT_RULES = "identity,primes,after:10"
NEGATIVITY_ATOM_CAP = 32  # the event count takes 2^(k/2) subset sums per half


# --- small shared helpers ------------------------------------------------------

def _frac(text) -> Fraction:
    """Exact rational from a CLI string ("0.01", "1/100", "1e-3")."""
    text = str(text)
    try:
        return seqio.parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {echo(text)} as a number: {exc}") from exc


def _parse_rules(spec: str, seed: int) -> list[collectives.PlaceSelectionRule]:
    parts = [s for s in (p.strip() for p in spec.split(",")) if s]
    if not parts:
        raise InputError("empty rule list")
    return [collectives.rule_from_spec(p, default_seed=seed) for p in parts]


def _input_echo(path: str):
    """An input file as its basename, byte count and SHA-256, so one analysis
    reports the same bytes from any directory; a bundled space name as given."""
    if not os.path.isfile(path):
        return path
    import hashlib  # past the check: it loads OpenSSL, which a bundled space name never needs

    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
    return {"name": os.path.basename(path), "bytes": size, "sha256": digest.hexdigest()}


def _config(args: argparse.Namespace) -> dict:
    """Echo of the run configuration.  --out is excluded so that identical
    analyses written to different paths produce identical reports."""
    skip = {"handler", "command", "out"}
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }
    if "input" in config:
        config["input"] = _input_echo(config["input"])
    return config


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise InputError(f"seed {seed} outside the unsigned 64-bit range")
    return seed


def _overall(reports) -> str:
    if any(r.status == "fail" for r in reports):
        return "fail"
    if any(r.status == "inconclusive" for r in reports):
        return "inconclusive"
    return "pass"


def _stabilization_dict(verdict: collectives.StabilizationVerdict) -> dict:
    return {
        "stabilized": verdict.stabilized,
        "window": verdict.window,
        "epsilon": verdict.epsilon,
        "criterion": verdict.criterion,
        "per_label": {
            str(lab): {
                "stabilized": s.stabilized,
                "limit": s.limit,
                "oscillation": s.oscillation,
            }
            for lab, s in verdict.per_label.items()
        },
    }


# --- command handlers ----------------------------------------------------------

def cmd_stabilize(args) -> tuple[dict, list[str]]:
    x = seqio.read_sequence(args.input, args.format)
    eps = _frac(args.eps)
    cps = collectives.log_checkpoints(len(x))
    trace = collectives.frequencies(x, cps)
    verdict = collectives.detect_stabilization(trace, window=args.window, epsilon=eps)
    payload = {
        "length": len(x),
        "alphabet": [str(lab) for lab in x.alphabet.labels],
        "checkpoints": list(cps),
        "trace": {str(lab): list(vals) for lab, vals in trace.values.items()},
        "stabilization": _stabilization_dict(verdict),
    }
    return payload, []


def cmd_select(args) -> tuple[dict, list[str]]:
    x = seqio.read_sequence(args.input, args.format)
    family = _parse_rules(args.rules, _check_seed(args.seed))
    eps = _frac(args.eps)
    counts = collectives.label_count_rows(x, [len(x)], family)[0]
    base, reports = collectives.rule_reports(x.alphabet, family, counts, epsilon=eps,
                                             min_length=1)
    payload = {
        "length": len(x),
        "epsilon": eps,
        "base_frequencies": {str(k): v for k, v in base.items()},
        "rules": reports,
    }
    return payload, []


def cmd_mix(args) -> tuple[dict, list[str]]:
    members = [s.strip() for s in args.labels.split(",") if s.strip()]
    for k, lab in enumerate(members):
        if lab in members[:k]:  # it would be summed twice into member_frequency_sum
            raise InputError(f"label {lab!r} repeated in --labels")
    x = seqio.read_sequence(args.input, args.format)
    eps = _frac(args.eps)
    cps = collectives.log_checkpoints(len(x))
    mixed = collectives.mix(x, members)
    mixed_trace = collectives.frequencies(mixed, cps)
    base_trace = collectives.frequencies(x, cps)
    member_sum = [
        sum((base_trace.values[lab][k] for lab in members), Fraction(0))
        for k in range(len(cps))
    ]
    additive = all(
        mixed_trace.values["1"][k] == member_sum[k] for k in range(len(cps))
    )
    fp = collectives.trace_probability(mixed_trace, window=args.window, epsilon=eps)
    payload = {
        "length": len(x),
        "members": members,
        "checkpoints": list(cps),
        "mixed_frequency": list(mixed_trace.values["1"]),
        "member_frequency_sum": member_sum,
        "additivity_exact": bool(additive),
        "frequency_probability": {"value": fp.value, "verdict": fp.verdict},
        "stabilization": _stabilization_dict(fp.stabilization),
    }
    return payload, []


def cmd_randomness(args) -> tuple[dict, list[str]]:
    x = seqio.read_sequence(args.input, args.format)
    family = _parse_rules(args.rules, _check_seed(args.seed))
    eps = _frac(args.eps)
    reports = collectives.randomness_check(
        x, family, epsilon=eps, min_length=args.min_count
    )
    payload = {
        "length": len(x),
        "epsilon": eps,
        "min_count": args.min_count,
        "rules": reports,
        "overall": _overall(reports),
    }
    return payload, []


def cmd_complexity(args) -> tuple[dict, list[str]]:
    word = complexity.as_word(seqio.read_sequence(args.input, args.format))
    # one stream compresses the word once, each prefix a flushed copy; the last
    # prefix is the whole word (unless it is one bit), round-tripped by the curve
    curve = complexity.complexity_rate_curve(word)
    est = curve[-1] if curve else complexity.estimate_K(word)
    cond = complexity.without_header(est)
    dips = [e.n_bits for e in curve if complexity.is_dip(complexity.without_header(e))]
    payload = {
        "n_bits": len(word),
        "codec": est.codec,
        "estimate": {"k_hat": est.k_hat, "rate": est.rate},
        "conditional": {"k_hat": cond.k_hat, "rate": cond.rate},
        "curve": [
            {"n_bits": e.n_bits, "k_hat": e.k_hat, "rate": e.rate} for e in curve
        ],
        "dips": [int(n) for n in dips],
        "dip_threshold": "n - log2(n)",
    }
    return payload, [est.note]


def cmd_battery(args) -> tuple[dict, list[str]]:
    word = complexity.as_word(seqio.read_sequence(args.input, args.format))
    results = complexity.run_battery(word, significance=args.significance)
    payload = {
        "n_bits": len(word),
        "significance": args.significance,
        "results": [
            {
                "name": r.name,
                "statistic": None if r.skipped else r.statistic,
                "p_value": r.p_value,
                "passed": r.passed,
                "skipped": r.skipped,
                "note": r.note,
            }
            for r in results
        ],
        "passed": complexity.battery_passed(results),
    }
    warn = [f"{r.name}: skipped ({r.note})" for r in results if r.skipped]
    return payload, warn


def _family_from_input(args) -> tuple[marginals.MarginalFamily, marginals.CorrelationTriple | None]:
    if args.format == "csv" or args.input.endswith(".csv"):
        rows = [r for r in seqio.csv_rows(args.input) if any(s.strip() for s in r)]
        return marginals.family_from_csv_rows(rows), None
    doc = seqio.read_json(args.input)
    if not isinstance(doc, dict):
        raise InputError("marginal document must be a JSON object")
    if "pmfs" in doc:
        return marginals.family_from_document(doc), None
    if {"e12", "e23", "e13"} <= set(doc):
        val = marginals._parse_value
        means = doc.get("means", [0, 0, 0])
        if not isinstance(means, list) or len(means) != 3:
            raise InputError("'means' must be a list of three numbers")
        triple = marginals.CorrelationTriple(
            val(doc["e12"]), val(doc["e23"]), val(doc["e13"]),
            tuple(val(m) for m in means),
        )
        return marginals.triple_to_family(triple), triple
    raise InputError(
        "marginal document needs either a 'pmfs' list or correlations e12/e23/e13"
    )


def _feasibility_dict(verdict: marginals.FeasibilityVerdict) -> dict:
    out = {
        "feasible": verdict.feasible,
        "method": verdict.method,
        "violated_facet": None,
        "witness": None,
    }
    if verdict.violated is not None:
        name, value = verdict.violated
        out["violated_facet"] = {"facet": name, "value": value}
    if verdict.witness is not None:
        out["witness"] = {
            "observables": list(verdict.witness.observables),
            "mass": verdict.witness.mass,
        }
    return out


def cmd_marginal(args) -> tuple[dict, list[str]]:
    family, triple = _family_from_input(args)
    payload: dict = {"observables": list(family.observables())}
    if triple is not None:
        value, satisfied, coeffs = marginals.boole_bell_value(triple)
        payload["correlations"] = {
            "e12": triple.e12, "e23": triple.e23, "e13": triple.e13,
            "means": list(triple.means),
        }
        payload["facet_check"] = {
            "max_functional": value,
            "bound": 1,
            "satisfied": satisfied,
            "tight_coefficients": list(coeffs),
        }
    ns_ok, ns_viol = family.no_signaling
    payload["no_signaling"] = {
        "consistent": ns_ok,
        "violations": [list(v) for v in ns_viol],
    }
    payload["feasibility"] = _feasibility_dict(marginals.joint_exists(family))
    return payload, []


def cmd_consistency(args) -> tuple[dict, list[str]]:
    family, _ = _family_from_input(args)
    ns_ok, ns_viol = family.no_signaling
    ko_ok, ko_viol = marginals.kolmogorov_consistency(family)
    payload = {
        "observables": list(family.observables()),
        "no_signaling": {
            "consistent": ns_ok,
            "violations": [list(v) for v in ns_viol],
        },
        "projective": {
            "consistent": ko_ok,
            "violations": [list(v) for v in ko_viol],
        },
        "consistent": ns_ok,
    }
    return payload, []


def _metric_dict(v) -> dict | None:
    if v is None:
        return None
    out = {
        "metric": v.metric,
        "stabilized": v.stabilized,
        "oscillation": v.oscillation,
        "window": v.window,
        "epsilon": v.epsilon,
    }
    if isinstance(v.limit, padic.PAdicExpansion):
        out["limit"] = {
            "p": v.limit.p,
            "valuation": v.limit.valuation,
            "digits": list(v.limit.digits),
            "value": v.limit.evaluate(),
        }
    else:
        out["limit"] = v.limit
    return out


def cmd_padic(args) -> tuple[dict, list[str]]:
    ctx = padic.PAdicContext(args.prime)
    eps_real = _frac(args.eps)
    eps_padic = _frac(args.padic_eps)
    if args.format == "csv":
        vals = seqio.read_rationals(args.input)
        source = "csv"
    else:
        x = seqio.read_sequence(args.input, args.format)
        label = args.label if args.label is not None else str(x.alphabet.labels[0])
        cps = collectives.log_checkpoints(len(x))
        vals = padic.realized_trace(x, cps, label=label)
        source = f"frequency path of label {label!r}"
    rep = padic.compare_convergence(
        vals, ctx, window=args.window, eps_real=eps_real, eps_padic=eps_padic
    )
    payload = {
        "prime": ctx.p,
        "source": source,
        "count": len(vals),
        "final_value": vals[-1],
        "real": _metric_dict(rep.real),
        "padic": _metric_dict(rep.padic),
        "verdict": rep.verdict,
    }
    return payload, []


def _negativity_scan(space: signed_prob.SignedProbabilitySpace, negative_atoms):
    """Most negative event and the count of negative events.  The most
    negative event is the Hahn negative set, the negative atoms in atom
    order.  Its mass is summed from the last negative atom to the first,
    which keeps float reports identical to those of the earlier full
    subset scan."""
    zero = Fraction(0) if space.exact else 0.0
    worst = sum(reversed([space.weight[a] for a in negative_atoms]), zero)
    return worst, list(negative_atoms), signed_prob.negative_event_count(space)


def cmd_signed(args) -> tuple[dict, list[str]]:
    if os.path.exists(args.input):
        space, var = signed_prob.load_space(args.input)
    elif args.input in signed_prob.BUNDLED_SPACES:
        space = signed_prob.BUNDLED_SPACES[args.input]
        var = signed_prob.BUNDLED_VARIABLES.get(args.input)
    else:
        raise InputError(
            f"{args.input!r} is neither a file nor a bundled space "
            f"(bundled: {', '.join(sorted(signed_prob.BUNDLED_SPACES))})"
        )
    diag = signed_prob.validate(space)
    jd = signed_prob.jordan(space)
    payload: dict = {
        "atoms": len(space.atoms),
        "total": diag.total,
        "negative_atoms": [str(a) for a in diag.negative_atoms],
        "total_variation": diag.total_variation,
        "jordan": {
            "positive": {str(a): w for a, w in jd.positive.items()},
            "negative": {str(a): w for a, w in jd.negative.items()},
        },
    }
    warnings: list[str] = []
    if len(space.atoms) <= NEGATIVITY_ATOM_CAP:
        worst, argmin, negative_count = _negativity_scan(space, diag.negative_atoms)
        comp = [a for a in space.atoms if a not in set(argmin)]
        pa, pc = signed_prob.complement_excess(space, argmin)
        payload["negativity"] = {
            "min_event_prob": worst,
            "argmin_event": [str(a) for a in argmin],
            "complement_prob": pc,
            "negative_event_count": negative_count,
            "complement_size": len(comp),
        }
    else:
        warnings.append(
            f"negativity scan skipped: more than {NEGATIVITY_ATOM_CAP} atoms"
        )
    if var is not None:
        m = signed_prob.expectation_signed(space, var)
        schedule = []
        n = 1
        while n <= args.n:
            schedule.append(n)
            n *= 2
        sq = dict(signed_prob.POLY_TEST_FUNCTIONS)["x^2"]
        rows = signed_prob.weak_lln_check(space, var, sq, schedule)
        payload["weak_law"] = {
            "variable_mean": m,
            "f": "x^2",
            "f_of_mean": sq(m),
            "rows": [
                {"n": n, "expectation": ef, "gap": gap} for n, ef, gap in rows
            ],
        }
    else:
        warnings.append("no variable supplied: weak-law table omitted")
    return payload, warnings


def cmd_ville(args) -> tuple[dict, list[str]]:
    family = _parse_rules(args.rules, _check_seed(args.seed))
    eps = _frac(args.eps)
    try:
        x = collectives.ville_generator(
            family, args.n, epsilon=eps, min_count=args.min_count
        )
    except ConstructionError as exc:
        payload = {
            "constructed": False,
            "verdict": "construction-failed",
            "n": args.n,
            "epsilon": eps,
            "detail": str(exc),
        }
        return payload, ["construction failed; no sequence emitted"]
    _, reports = collectives.rule_reports(x.alphabet, family, x.counts, epsilon=eps, min_length=1)
    payload = {
        "constructed": True,
        "n": len(x),
        "epsilon": eps,
        "ones": x.ones,
        "never_below_half": x.min_margin >= 0,
        "min_twice_ones_minus_n": x.min_margin,
        "final_mean": Fraction(x.ones, len(x)),
        "unit_interval_value": collectives.seq_to_unit_interval(x),
        "rules": reports,
    }
    warnings = []
    if len(x) <= 4096:
        payload["sequence"] = "".join(x.labels())
    else:
        warnings.append(
            "sequence omitted from the report (> 4096 trials); rerun with the "
            "same configuration to regenerate it deterministically"
        )
    return payload, warnings


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = {  # each command declares only the options its handler reads
        "format": dict(choices=("raw", "ascii", "csv"), default="ascii",
                       help="input encoding: raw bit-packed bytes, ascii labels, or csv"),
        "rules": dict(default=DEFAULT_RULES, metavar="NAME[:PARAM],...",
                      help=f"selection-rule family (default {DEFAULT_RULES})"),
        "seed": dict(type=int, default=0, metavar="U64",
                     help="seed for any randomized rule (default 0)"),
        "window": dict(type=int, default=None, metavar="N",
                       help="stabilization window (default: data-dependent)"),
        "eps": dict(default="0.01", metavar="X",
                    help="tolerance, decimal or rational (default 0.01)"),
    }

    parser = argparse.ArgumentParser(
        prog="collectiva",
        description="Frequency stabilization, marginal feasibility, compression-"
                    "based complexity, signed measures, and p-adic metrics "
                    "over finite data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, handler, help_text, flags=(), needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="input file path")
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSON report here instead of stdout")
        p.set_defaults(handler=handler)
        return p

    add("stabilize", cmd_stabilize,
        "frequency trace and stabilization verdict of a label sequence",
        ("format", "window", "eps"))
    add("select", cmd_select,
        "per-rule selected-subsequence frequencies against the base rates",
        ("format", "rules", "seed", "eps"))
    p_mix = add("mix", cmd_mix,
                "indicator sequence of a label subset; exact additivity check",
                ("format", "window", "eps"))
    p_mix.add_argument("--labels", required=True, metavar="A,B,...",
                       help="comma-separated member labels of the mixture")
    p_rand = add("randomness", cmd_randomness,
                 "frequency invariance under a family of selection rules",
                 ("format", "rules", "seed", "eps"))
    p_rand.add_argument("--min-count", type=int, default=10**3, metavar="N",
                        help="selections below this are inconclusive (default 1000)")
    add("complexity", cmd_complexity,
        "compression-based description-length estimates and dip scan", ("format",))
    p_bat = add("battery", cmd_battery,
                "statistical test battery on a binary word", ("format",))
    p_bat.add_argument("--significance", type=float, default=0.01, metavar="A",
                       help="per-test significance level (default 0.01)")
    family_format = dict(choices=("json", "csv"), default="json",
                         help="input encoding (default json; a .csv suffix also means csv)")
    add("marginal", cmd_marginal, "joint-distribution feasibility of a marginal "
        "family or correlations").add_argument("--format", **family_format)
    add("consistency", cmd_consistency, "no-signaling and projective-consistency "
        "checks on a family").add_argument("--format", **family_format)
    p_padic = add("padic", cmd_padic,
                  "real vs p-adic stabilization of a rational sequence",
                  ("format", "window", "eps"))
    p_padic.add_argument("--prime", type=int, default=2, metavar="P",
                         help="prime for the p-adic metric (default 2)")
    p_padic.add_argument("--label", default=None, metavar="L",
                         help="label whose frequency path is analyzed "
                              "(default: first alphabet label)")
    p_padic.add_argument("--padic-eps", default=f"1/{2**20}", metavar="X",
                         help="p-adic stabilization tolerance (default 1/2^20)")
    p_signed = add("signed", cmd_signed,
                   "diagnostics and weak-law table of a signed weight system")
    p_signed.add_argument("--n", type=int, default=256, metavar="N",
                          help="largest sample size in the weak-law table "
                               "(default 256)")
    p_ville = add("ville", cmd_ville, "construct a rule-balanced binary sequence whose "
                  "running mean never drops below 1/2", ("rules", "seed", "eps"), False)
    p_ville.add_argument("--n", type=int, default=10**4, metavar="N",
                         help="number of trials to construct (default 10000)")
    p_ville.add_argument("--min-count", type=int, default=None, metavar="N",
                         help="rule-balance check threshold (default: derived "
                              "from eps)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, warnings = args.handler(args)
        doc = report.make_report(args.command, _config(args), payload, warnings)
        report.write_report(doc, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an allocation refused, with or without COLLECTIVA_MAX_MEM
        detail = f": {exc}" if str(exc) else ""
        print(f"capacity limit: out of memory{detail}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
