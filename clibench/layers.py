"""Per-layer metrics of the traced run.

The traced run wraps the functions below in every collectiva namespace that
holds them (so ``cli``'s ``from .seqio import read_sequence`` is wrapped
too) and records one span per call: ``{op, name, start, end, parent}``
plus counts taken at the same boundary.  ``trace_op.py`` records the spans
in the operation's own process; ``per_pass`` turns one pass's spans into
the metrics.

A ``<layer>.<function>_s`` metric is the inclusive time of the calls to that
function that are not nested in another call to the same function, summed
over the pass: ``complexity.estimate_K_s`` includes the calls the rate curve
makes, and ``report.write_report_s`` includes its ``validate_report``.
``cli.self_s`` is the self time of ``cli.main``: its span minus its child
spans (argparse, handler glue and ``_negativity_scan``).
"""

from __future__ import annotations

import os
import re

# module -> wrapped functions ("Class.method" for classmethods)
WRAPPED = {
    "seqio": ("read_sequence", "read_rationals"),
    "collectives": ("frequencies", "apply_selection", "detect_stabilization", "mix",
                    "ville_generator"),
    "complexity": ("estimate_K", "estimate_K_conditional", "complexity_rate_curve",
                   "martin_lof_dip_scan", "run_battery",
                   "_deflate_compress", "_deflate_decompress",
                   "_arith_compress", "_arith_decompress"),
    "padic": ("realized_trace", "compare_convergence"),
    "marginals": ("joint_exists", "check_no_signaling", "kolmogorov_consistency",
                  "boole_bell_value"),
    "finite_prob": ("build_algebra", "total_probability",
                    "FiniteProbabilitySpace.from_atom_weights",
                    "FiniteProbabilitySpace.from_block_weights"),
    "signed_prob": ("weak_lln_check", "complement_excess", "mean_law_table"),
    "report": ("make_report", "validate_report", "write_report", "render_report"),
}

CODEC_SPANS = {f"complexity.{f}" for f in WRAPPED["complexity"] if f.startswith("_")}

# spans whose tracemalloc peak is recorded (the read path and complexity)
ALLOC_LAYERS = {
    "collectives.frequencies": "collectives", "collectives.apply_selection": "collectives",
    "collectives.detect_stabilization": "collectives", "collectives.mix": "collectives",
    **{f"complexity.{f}": "complexity" for f in WRAPPED["complexity"] if not f.startswith("_")},
}

TIME_METRICS = {
    "seqio.read_sequence_s": "seqio.read_sequence",
    "seqio.read_rationals_s": "seqio.read_rationals",
    "collectives.frequencies_s": "collectives.frequencies",
    "collectives.apply_selection_s": "collectives.apply_selection",
    "collectives.detect_stabilization_s": "collectives.detect_stabilization",
    "collectives.mix_s": "collectives.mix",
    "collectives.ville_generator_s": "collectives.ville_generator",
    "complexity.estimate_K_s": "complexity.estimate_K",
    "complexity.estimate_K_conditional_s": "complexity.estimate_K_conditional",
    "complexity.rate_curve_s": "complexity.complexity_rate_curve",
    "complexity.dip_scan_s": "complexity.martin_lof_dip_scan",
    "complexity.run_battery_s": "complexity.run_battery",
    "padic.realized_trace_s": "padic.realized_trace",
    "padic.compare_convergence_s": "padic.compare_convergence",
    "marginals.check_no_signaling_s": "marginals.check_no_signaling",
    "marginals.kolmogorov_consistency_s": "marginals.kolmogorov_consistency",
    "marginals.boole_bell_value_s": "marginals.boole_bell_value",
    "finite_prob.from_atom_weights_s": "finite_prob.from_atom_weights",
    "finite_prob.build_algebra_s": "finite_prob.build_algebra",
    "finite_prob.from_block_weights_s": "finite_prob.from_block_weights",
    "finite_prob.total_probability_s": "finite_prob.total_probability",
    "signed_prob.weak_lln_check_s": "signed_prob.weak_lln_check",
    "signed_prob.complement_excess_s": "signed_prob.complement_excess",
    "report.make_report_s": "report.make_report",
    "report.validate_report_s": "report.validate_report",
    "report.write_report_s": "report.write_report",
}

_SPAN_METRIC = {span: metric for metric, span in TIME_METRICS.items()}

# span attribute -> metric it is summed into
COUNT_ATTRS = {
    "bytes_in": "seqio.bytes_in",
    "lp_cells": "marginals.lp_cells",
    "witness_atoms": "marginals.witness_atoms",
    "algebra_events": "finite_prob.algebra_events",
    "mean_law_support": "signed_prob.mean_law_support",
    "bytes_out": "report.bytes_out",
}

# (name, unit, better), in the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("seqio.read_sequence_s", "s", "lower"),
    ("seqio.read_rationals_s", "s", "lower"),
    ("seqio.bytes_in", "bytes", "lower"),
    ("collectives.frequencies_s", "s", "lower"),
    ("collectives.frequencies_calls", "count", "lower"),
    ("collectives.apply_selection_s", "s", "lower"),
    ("collectives.detect_stabilization_s", "s", "lower"),
    ("collectives.mix_s", "s", "lower"),
    ("collectives.peak_alloc_mb", "MB", "lower"),
    ("collectives.ville_generator_s", "s", "lower"),
    ("complexity.estimate_K_s", "s", "lower"),
    ("complexity.estimate_K_conditional_s", "s", "lower"),
    ("complexity.rate_curve_s", "s", "lower"),
    ("complexity.dip_scan_s", "s", "lower"),
    ("complexity.run_battery_s", "s", "lower"),
    ("complexity.codec_calls", "count", "lower"),
    ("complexity.peak_alloc_mb", "MB", "lower"),
    ("padic.realized_trace_s", "s", "lower"),
    ("padic.compare_convergence_s", "s", "lower"),
    ("marginals.joint_exists_exact_feasible_s", "s", "lower"),
    ("marginals.joint_exists_exact_infeasible_s", "s", "lower"),
    ("marginals.joint_exists_float_s", "s", "lower"),
    ("marginals.check_no_signaling_s", "s", "lower"),
    ("marginals.kolmogorov_consistency_s", "s", "lower"),
    ("marginals.boole_bell_value_s", "s", "lower"),
    ("marginals.lp_cells", "count", "lower"),
    ("marginals.witness_atoms", "count", "lower"),
    ("finite_prob.from_atom_weights_s", "s", "lower"),
    ("finite_prob.build_algebra_s", "s", "lower"),
    ("finite_prob.from_block_weights_s", "s", "lower"),
    ("finite_prob.total_probability_s", "s", "lower"),
    ("finite_prob.algebra_events", "count", "lower"),
    ("signed_prob.weak_lln_check_s", "s", "lower"),
    ("signed_prob.complement_excess_s", "s", "lower"),
    ("signed_prob.mean_law_support", "count", "lower"),
    ("report.make_report_s", "s", "lower"),
    ("report.validate_report_s", "s", "lower"),
    ("report.write_report_s", "s", "lower"),
    ("report.bytes_out", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


# --- counts taken at the span boundary (run inside the traced process) --------

def _lp_shape(family) -> tuple[int, int]:
    rows = 1 + sum(len(list(p.support())) for p in family.pmfs)
    atoms = 1
    for o in family.observables():
        atoms *= len(family.range_of(o))
    return rows, atoms


def attributes(name: str, args: tuple, result) -> dict:
    """Counts recorded on a finished span of the named function."""
    if name in ("seqio.read_sequence", "seqio.read_rationals"):
        return {"bytes_in": os.path.getsize(args[0])}
    if name == "marginals.joint_exists":
        family = args[0]
        rows, atoms = _lp_shape(family)
        if family.exact:
            variant = "exact_feasible" if result.feasible else "exact_infeasible"
        else:
            variant = "float"
        witness = len(result.witness.mass) if result.witness is not None else 0
        return {"variant": variant, "lp_cells": rows * atoms, "witness_atoms": witness}
    if name == "finite_prob.build_algebra":
        return {"algebra_events": len(result)}
    if name == "signed_prob.mean_law_table":
        return {"mean_law_support": sum(len(d.mass) for d in result.values())}
    if name == "report.render_report":
        return {"bytes_out": len(result.encode("utf-8"))}
    return {}


# --- metrics of one pass (run in the benchmark process) -----------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr_text: str) -> tuple[float, float]:
    """(cumulative import of collectiva.cli, all scipy imports) in seconds,
    from ``-X importtime`` output."""
    lines = []
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            lines.append((int(m.group(2)), (len(m.group(3)) - 1) // 2, m.group(4)))
    cli_us = sum(cum for cum, depth, name in lines if depth == 0 and name == "collectiva.cli")
    scipy_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy), walking parents first
    for cum, depth, name in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cum
        stack.append((depth, inside or is_scipy))
    return cli_us / 1e6, scipy_us / 1e6


def per_pass(ops: list[dict]) -> dict:
    """Per-layer metrics of one traced pass.  Each item of ``ops`` holds an
    operation's ``spans`` and its ``importtime`` stderr text."""
    m = {name: 0.0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    for op in ops:
        cli_s, scipy_s = import_times(op["importtime"])
        m["cli.import_s"] += cli_s
        m["cli.import_scipy_s"] += scipy_s
        spans = op["spans"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            for key, metric in COUNT_ATTRS.items():
                m[metric] += s.get(key, 0)
            if name == "cli.main":
                kids = sum(c["end"] - c["start"] for c in spans if c["parent"] == i)
                m["cli.self_s"] += dur - kids
            elif name == "collectives.frequencies":
                m["collectives.frequencies_calls"] += 1
            elif name in CODEC_SPANS:
                m["complexity.codec_calls"] += 1
            if "peak_alloc_mb" in s:
                key = f"{ALLOC_LAYERS[name]}.peak_alloc_mb"
                m[key] = max(m[key], s["peak_alloc_mb"])
            if _nested_in_same(spans, i):
                continue
            if name == "marginals.joint_exists":
                m[f"marginals.joint_exists_{s['variant']}_s"] += dur
            if name in _SPAN_METRIC:
                m[_SPAN_METRIC[name]] += dur
    return m


def _nested_in_same(spans, i) -> bool:
    name, p = spans[i]["name"], spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False
