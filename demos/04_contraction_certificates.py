"""Projective contraction of positive kernels, quantified and verified.

A kernel that is strictly positive on a rectangle of rows and columns maps
any two starting measures closer together in normalized total variation; the
per-factor rate is (kappa-1)/(kappa+1) with kappa the square root of the
worst entry cross-ratio.  The demo evaluates the bound, shows it is tight,
and uses the rank-one probe on products of stepping kernels.
"""

import numpy as np

import filterlab as fl

kernel = np.array([[2.0, 1.0], [1.0, 2.0]])
kappa = fl.cross_ratio_kappa(kernel)
print("kappa:", kappa, "| one-factor bound:", fl.hopf_bound([kappa]))

check = fl.verify_hopf([kernel], [1.0, 0.0], [0.0, 1.0])
print(f"achieved merge distance {check.achieved} vs bound {check.bound} "
      "(tight for opposite vertices)")

check2 = fl.verify_hopf([kernel, kernel], [1.0, 0.0], [0.0, 1.0])
print("two factors: achieved", check2.achieved, "bound", check2.bound)

# The oscillation step behind the bound, on explicit test functions.
from filterlab.contraction import birkhoff_osc_step

lhs, rhs = birkhoff_osc_step(kernel, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
print("one oscillation step:", lhs, "<=", rhs)

# Support classification: exact rectangles only.
print("\nsupport of [[0.7,0],[0.3,0]]:",
      fl.rectangular_support([[0.7, 0.0], [0.3, 0.0]]))
print("identity is subrectangular:", fl.is_subrectangular(np.eye(2)))

# Rank-one probe: normalized products of stepping kernels collapse for a
# partition model after a single informative observation, and geometrically
# for a strictly positive kernel.
partition = fl.example_partition([[0.7, 0.3], [0.3, 0.7]], [[1], [2]])
report = fl.check_condition_KR(partition, seq=[1, 1, 1])
print("\npartition model singular ratios:", report.ratios,
      "| verdict:", report.verdict)

smooth = fl.example_product(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                            [[1.0], [1.0]])
report = fl.check_condition_KR(smooth, seq=[1] * 12)
print("positive-kernel ratios (geometric at rate 1/3):",
      np.round(report.ratios[:6], 6), "fitted rate:", report.rate)

# Shortest observation sequence with a subrectangular stepping product.
print("\nsubrectangular witness for the partition model:",
      fl.check_condition_A(partition, max_len=3))
periodic = fl.lab.periodic_control_model()
print("witness for the periodic control (decided: its support closure is "
      "exhausted, so no product of any length is subrectangular):",
      fl.check_condition_A(periodic, max_len=4))
