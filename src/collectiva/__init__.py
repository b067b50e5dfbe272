"""collectiva: finite probability spaces, marginal-feasibility polytopes,
frequency collectives, compression-based complexity, signed weight systems,
and p-adic metrics — with exact rational arithmetic wherever the inputs are
exact and explicit tolerances wherever they are not.

Importing the package runs none of its modules.  Each library module is
registered in ``sys.modules`` and as a package attribute by importlib's
``LazyLoader``, and its body (numpy included, where it uses numpy) runs on
the first attribute access.  A one-shot command thus pays only for the
modules it calls.  The public names below are served from their modules on
first use (PEP 562).
"""

import importlib.util
import sys

# library module -> the public names it defines
_PUBLIC = {
    "errors": (
        "CapacityError", "CodecIntegrityError", "CollectivaError", "ConstructionError",
        "InputError", "NotMeasurableError", "NullConditioningError",
    ),
    "finite_prob": (
        "Event", "EventAlgebra", "FiniteProbabilitySpace", "Partition", "RandomVariable",
        "SampleSpace", "build_algebra", "conditional", "conditional_space", "distribution",
        "expectation", "independent", "is_measurable", "partition_from_rv", "probability",
        "total_probability",
    ),
    "marginals": (
        "CorrelationTriple", "FeasibilityVerdict", "JointPMF", "MarginalFamily",
        "boole_bell_value", "check_no_signaling", "correlation_facets", "joint_exists",
        "kolmogorov_consistency", "marginalize", "triple_to_family",
    ),
    "collectives": (
        "BINARY", "FrequencyTrace", "LabelAlphabet", "PlaceSelectionRule", "TrialPrefix",
        "TrialSequence", "VilleSequence", "apply_selection", "detect_stabilization",
        "frequencies", "frequency_probability", "kamke_adversary", "log_checkpoints", "mix",
        "randomness_check", "rule_from_spec", "trace_probability", "ville_generator",
    ),
    "complexity": (
        "Codec", "ComplexityEstimate", "arith_codec", "as_bits", "as_word", "battery_passed",
        "deflate_codec", "estimate_K", "estimate_K_conditional", "martin_lof_dip_scan",
        "run_battery",
    ),
    "signed_prob": (
        "BUNDLED_SPACES", "BUNDLED_VARIABLES", "Polynomial", "SignedProbabilitySpace",
        "complement_excess", "conditional_signed", "expectation_signed", "jordan",
        "mean_law_table", "sum_distribution", "weak_lln_check",
    ),
    "padic": (
        "PAdicContext", "PAdicExpansion", "compare_convergence",
        "detect_padic_stabilization", "frequency_path_realizer", "padic_distance",
        "padic_expand", "padic_valuation",
    ),
    "stability": (),
    "seqio": (),
    "report": (),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def _register_lazily(module: str):
    """collectiva.<module>, registered but not yet run (the lazy-import
    recipe of the importlib documentation)."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    globals()[module] = mod


for _module in _PUBLIC:
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
