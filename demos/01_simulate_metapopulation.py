"""Build a small patch graph by hand and run the weekly SIRS simulator.

Walks through the core objects: travel-matrix construction from commute
and facility flows, the patch graph with its region hierarchy, constant
disease parameters, and a 30-week simulation with level aggregation.
"""

import numpy as np

from calypso.core import DiseaseParams, PatchGraph, aggregate, build_travel_matrix
from calypso.sim import SimConfig, simulate

# Two regions; each has a community patch and a healthcare-facility patch.
populations = {"east-town": 12_000.0, "east-hosp": 900.0,
               "west-town": 8_000.0, "west-hosp": 600.0}
commute = {("east-town", "west-town"): 1_500.0, ("west-town", "east-town"): 900.0}
transfers = {("east-town", "east-hosp"): 700.0, ("west-town", "west-hosp"): 450.0,
             ("west-town", "east-hosp"): 200.0}

theta = build_travel_matrix(commute, transfers, populations)
print("travel matrix (rows sum to 1):")
print(np.round(theta, 4))

graph = PatchGraph(
    populations,
    region_of={"east-town": "east", "east-hosp": "east",
               "west-town": "west", "west-hosp": "west"},
    category_of={"east-town": "general", "east-hosp": "non-general",
                 "west-town": "general", "west-hosp": "non-general"},
    theta=theta,
)

params = DiseaseParams.constant(
    graph.region_ids, steps=30,
    beta=0.55, gamma=0.33, delta=0.06, kappa=0.2, epsilon=0.6,
)
init = np.array([40.0, 5.0, 20.0, 2.0])  # ordering is sorted patch ids
init = init[np.argsort(list(populations))]

traj = simulate(graph, params, init, SimConfig(steps=30))
traj.check(graph)  # S+I+R == P at every step

print("\nweekly state-level prevalence:")
state = aggregate(traj.weekly_series, "state", graph)[0]
print(np.round(state, 1))

print("\ncumulative new infections by region:")
per_region = aggregate(traj.new_infections, "region", graph).sum(axis=1)
for rid in graph.region_ids:
    print(f"  {rid}: {per_region[graph.region_index[rid]]:.0f}")
