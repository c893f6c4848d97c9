"""Counterfactual policy studies on a fitted model.

Uses the generator's own parameters as the fitted model (any calibrated
model works the same way) and walks through the four analyses: regional
transmission reduction, budgeted greedy allocation versus brute force
and random baselines, the per-capita sensitivity matrix, and
outbreak-source ranking.  Greedy and brute-force allocation return the
same ``analysis.Allocation``; its ``reduction`` is the final cumulative
reduction.  Outbreak ranking seeds each source itself.
"""

import numpy as np

from calypso import analysis, synth
from calypso.core import PARAM_NAMES, DiseaseParams

bundle = synth.generate(synth.SynthSpec(n_patches=12, n_regions=3, weeks=60, horizon=4, seed=7))
graph, data = bundle.graph, bundle.data
window = data.window
params = DiseaseParams(
    region_ids=bundle.params.region_ids,
    **{n: getattr(bundle.params, n)[:, :window] for n in PARAM_NAMES},
)
model = analysis.FittedModel(params=params, init=data.initial_infections, steps=window)

# 1. which region's transmission reduction helps the state most?
print("10% transmission reduction, statewide effect by targeted region:")
for rid in graph.region_ids:
    rep = analysis.regional_beta_reduction(model, graph, rid, factor=0.9)
    print(f"  {rid}: reduction {-rep.details['state_delta']:.0f} cases")

# 2. budgeted allocation across healthcare patches
greedy = analysis.unit_greedy(model, graph, budget=3)
print(f"\ngreedy picks {greedy.selected} with cumulative reductions {np.round(greedy.reductions, 0)}"
      f" (final {greedy.reduction:.0f}) in {greedy.evaluations} simulator runs")
brute = analysis.brute_force_allocation(model, graph, budget=2)
print(f"brute-force optimal pair {brute.selected}: reduction {brute.reduction:.0f} "
      f"({brute.evaluations} runs)")
random_red = analysis.random_allocation_reduction(model, graph, budget=3, n_draws=20, seed=0)
print(f"random 3-patch allocations average {random_red.mean():.0f}")

# 3. who is most exposed to transmission increases elsewhere?
sens = analysis.sensitivity_scan(model, graph, bump=1.1)
print("\nmost sensitive receiving regions (per-capita impact from external bumps):")
for rid, value in sens.ranking:
    print(f"  {rid}: {value:.2e}")

# 4. where would seeded outbreaks hurt the state most?
outbreak = analysis.outbreak_ranking(model, graph, k=50.0)
top = outbreak.ranking[:3]
print("\ntop outbreak sources (50 seeded infections):")
for pid, delta in top:
    pct = outbreak.details["percent_of_baseline"][pid]
    print(f"  {pid}: +{delta:.0f} statewide cases ({pct:.2f}% of baseline)")
