"""Library-script operation for ``collectiva.finite_prob``, which has no CLI
command: build the spaces and algebras of an input document and write what
they give.

usage: python fp_script.py INPUT.json OUTPUT.json

Input: {"spaces": [{"weights": ["n/d", ...], "partition": [[atom index, ...], ...],
"target": [atom index, ...]}, ...], "coarse": [{"weights": [...],
"generators": [[atom index, ...], ...]}, ...]}.
"""

import json
import sys
from fractions import Fraction

from collectiva import (
    Event,
    FiniteProbabilitySpace,
    Partition,
    SampleSpace,
    build_algebra,
    total_probability,
)


def _event(space, idxs) -> Event:
    return Event(space, sum(1 << i for i in idxs))


def main(src: str, dst: str):
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    spaces = []
    for s in doc["spaces"]:
        w = [Fraction(v) for v in s["weights"]]
        space = SampleSpace(tuple(f"a{i}" for i in range(len(w))))
        ps = FiniteProbabilitySpace.from_atom_weights(space, dict(zip(space.atoms, w)))
        part = Partition(tuple(_event(space, blk) for blk in s["partition"]))
        total, terms = total_probability(ps, part, _event(space, s["target"]))
        spaces.append({"total": str(total), "terms": len(terms)})
    coarse = []
    for c in doc["coarse"]:
        w = [Fraction(v) for v in c["weights"]]
        space = SampleSpace(tuple(f"a{i}" for i in range(len(w))))
        gens = [_event(space, g) for g in c["generators"]]
        alg = build_algebra(space, gens)
        blocks = {b: sum((w[i] for i in range(len(w)) if b >> i & 1), Fraction(0))
                  for b in alg.blocks()}
        ps = FiniteProbabilitySpace.from_block_weights(alg, blocks)
        coarse.append({"events": len(alg),
                       "generator_probs": [str(ps.weight[g.mask]) for g in gens]})
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump({"spaces": spaces, "coarse": coarse}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
