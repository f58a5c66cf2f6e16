"""Inheritance schemes: different combination trees, one composite score.

Eight standardized measures are pairwise combined up a binary tree; internal
nodes are abstract intermediate measures (e.g. an overall "IN" score).  The
root barely depends on the tree when the measures are correlated, which is
exactly the situation for real network measures -- this script quantifies
that, and shows the display-height bookkeeping that makes sibling bars sum
to their parent in the fingerprint figure.
"""

import json

import numpy as np

from ccnet import (
    MeasureVector,
    STANDARD_MEASURE_NAMES,
    builtin_scheme,
    combine_set,
    run_scheme,
    scheme_invariance,
    scheme_to_dict,
    standardize_set,
)

rng = np.random.default_rng(3)
n = 200

# correlated raw measures: one latent "importance" factor plus noise
factor = rng.standard_normal(n)
raw = [MeasureVector(name, np.exp(0.5 * (0.97 * factor + 0.24 * rng.standard_normal(n))))
       for name in STANDARD_MEASURE_NAMES]
sm = standardize_set(raw)

schemes = [builtin_scheme(s) for s in ("drt", "rtd", "tdr")]
flat = combine_set(sm)

print("root-vs-flat agreement per scheme (max abs difference over nodes):")
for scheme in schemes:
    root = run_scheme(scheme, sm).root()
    print(f"  {scheme.scheme_id}: {np.max(np.abs(root.values - flat.values)):.2e}")

print(f"\nmax discrepancy across the three trees: "
      f"{scheme_invariance(sm, schemes):.2e}")

gens = run_scheme(schemes[0], sm)
node = 0
print(f"\ngeneration scores for node {node} under the drt scheme:")
for gen in gens.generations():
    scores = gens.by_generation(gen)
    rendered = ", ".join(f"{s.name}={s.values[node]:+.2f}" for s in scores)
    print(f"  G{gen}: {rendered}")

print(f"\ndisplay heights per generation (sibling heights sum to the parent):")
for gen in gens.generations():
    total = sum(float(s.display_heights[node]) for s in gens.by_generation(gen))
    print(f"  G{gen}: net stacked height = {total:+.6f}")

print("\nthe drt tree as scheme JSON:")
print(json.dumps(scheme_to_dict(schemes[0]), indent=2)[:400] + " ...")
