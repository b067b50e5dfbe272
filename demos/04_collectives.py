"""Frequency stabilization, place-selection invariance, and exact
additivity of label mixtures on long trial sequences."""

from fractions import Fraction

import numpy as np

from collectiva.collectives import (
    BINARY,
    LabelAlphabet,
    TrialSequence,
    default_family,
    detect_stabilization,
    frequencies,
    frequency_probability,
    log_checkpoints,
    mix,
    randomness_check,
    ville_generator,
)

rng = np.random.default_rng(7)
x = TrialSequence(BINARY, rng.integers(0, 2, size=10**5))
cps = log_checkpoints(len(x))

trace = frequencies(x, cps)
verdict = detect_stabilization(trace)
print("seeded coin, n =", len(x))
print("stabilized:", verdict.stabilized,
      " final nu(1) =", trace.values["1"][-1],
      f"~ {float(trace.values['1'][-1]):.5f}")

# place-selection rules must not move the frequency
print("\nselection-rule checks (tolerance 1/100):")
for report in randomness_check(x, default_family()):
    print(f"  {report.rule:>9}: selected {report.selected:>6},"
          f" max deviation {float(report.max_deviation):.5f} -> {report.status}")

# mixing two labels of a ternary sequence adds frequencies exactly
ter = TrialSequence.from_labels(LabelAlphabet(("a", "b", "c")), "abc" * 20000)
fp = frequency_probability(ter, ("a", "c"))
print("\nternary mixture {a, c}: verdict =", fp.verdict,
      " value ~", float(fp.value))
ter_cps = log_checkpoints(len(ter))
base = frequencies(ter, ter_cps)
lhs = list(frequencies(mix(ter, ("a", "c")), ter_cps).values["1"])
rhs = [sum((base.values[l][k] for l in ("a", "c")), Fraction(0))
       for k in range(len(ter_cps))]
print("additivity exact at every checkpoint:", lhs == rhs)

# a sequence whose running mean never dips below 1/2, yet every default
# rule sees frequency 1/2 +- 0.01
v = ville_generator(default_family(), 10**4)
ones = np.cumsum(v.data, dtype=np.int64)
margins = 2 * ones - np.arange(1, len(v) + 1)
print("\nconstructed sequence: n =", len(v),
      " min(2*ones - n) =", int(margins.min()),
      " final mean =", Fraction(int(ones[-1]), len(v)))
