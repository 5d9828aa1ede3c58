"""Exact transport geometry on finitely supported belief measures.

Distances between filter laws use optimal transport with total variation as
ground cost.  Every plan ships with an optimality certificate (dual
potentials, complementary slackness); lower bounds come from the barycenter
gap, and the matching construction shows the gap is attained.
"""

import numpy as np

import filterlab as fl
from filterlab.measures import hahn_witness

model = fl.example_product([[0.7, 0.3], [0.3, 0.7]], [[0.8, 0.2], [0.2, 0.8]])
space = model.states
e1 = fl.DensityVector.point_mass(space, 1)
e2 = fl.DensityVector.point_mass(space, 2)

# Point masses are as far apart as their points.
d, plan = fl.kantorovich(fl.PointMassMeasure.dirac(e1),
                         fl.PointMassMeasure.dirac(e2))
print(f"distance between opposite vertices: {d} (method: {plan.method})")

# A split measure vs its mean: same barycenter, positive distance.
split = fl.PointMassMeasure(space, [[1, 0], [0, 1]], [0.5, 0.5])
mean = fl.PointMassMeasure.dirac(fl.DensityVector(space, [0.5, 0.5]))
d, plan = fl.kantorovich(split, mean)
print("split vs mean: distance", d,
      "| barycenter lower bound", fl.barycenter_lower_bound(split, mean))
print("plan certificate: marginal residual", plan.marginal_residual,
      "slackness", plan.slackness_residual)

# The dual side: the sign-split witness of the barycenters attains the
# barycenter gap and never exceeds the primal value.
mu = fl.PointMassMeasure.dirac(e1)
witness = hahn_witness(mu, split)
print("dual witness bound:", fl.kantorovich_dual_check(mu, split, [witness]))

# Constructive matching: move the atoms of a measure so its barycenter hits
# a target, at total cost exactly the barycenter gap.  Every atom gives up
# the same share of its mass on each cell where the barycenter exceeds the
# target and spreads it over the cells short of it: here the atom at (0, 1)
# moves 0.6 of its mass to cell 1, and the atom at (1, 0) stays put.
phi = fl.PointMassMeasure(space, [[1, 0], [0, 1]], [0.5, 0.5])
target = fl.DensityVector(space, [0.8, 0.2])
psi = fl.barycenter_match(phi, target)
print("\nmatched points:", psi.points)
cost = sum(w * np.abs(p - q).sum()
           for p, q, w in zip(phi.mass_matrix(), psi.mass_matrix(), phi.weights))
print("transport cost:", cost, "= barycenter gap:",
      np.abs(phi.barycenter_masses() - target.masses).sum())

# Hence the distance from a measure to the nearest measure with a given
# barycenter is exactly the barycenter gap, certified both ways without a
# transport solve: the in-place cost of the match bounds it above, the gap
# below, and the two meet.
psi2, achieved = fl.nearest_barycenter_distance(phi, target)
print("nearest measure with target barycenter: achieved distance", achieved)

# Any measure with barycenter pi keeps mass near every set pi charges.
pi, _ = fl.stationary(model)
for F in ([1], [2]):
    mass, bound = fl.half_mass_check(fl.PointMassMeasure.atomized(pi), F, pi=pi)
    print(f"half-mass check on F={F}: mass {mass} >= bound {bound}")
