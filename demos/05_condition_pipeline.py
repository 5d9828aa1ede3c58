"""From block positivity to coupled closeness, end to end.

The pipeline on the two-state partition model:

 1. a one-observation subrectangular witness,
 2. a block-positivity certificate (density pinched between d0 and D0 on
    F0 x F1, landing sets inside F0),
 3. derived closeness constants: horizon N, likelihood floor eta, mass
    bounds xi and beta, decided on the vertices of the threshold polytope,
 4. coupled-chain evidence: the joint mass within rho after N steps beats
    the certified floor xi^2 * beta * eta.
"""

import filterlab as fl
from filterlab.coupling import first_positive_alpha

model = fl.example_partition([[0.7, 0.3], [0.3, 0.7]], [[1], [2]])
pi, erg = fl.stationary(model)
print("stationary density:", pi.values, "| ergodic evidence:", erg.ergodic)

witness = fl.check_condition_A(model, max_len=3)
print("subrectangular witness:", witness)

cert = fl.check_condition_P(model, pi, F0=[1], B0=[1])
print("\nblock-positivity certificate:")
print("  F0:", cert.F0, "B0:", cert.B0)
print("  d0:", cert.d0, "D0:", cert.D0, "beta0:", cert.beta0,
      "kappa:", cert.kappa)

e1 = fl.e1_constants(model, pi, cert, rho=0.1)
print("\nderived closeness constants at rho=0.1:")
print("  horizon N:", e1.N)
print("  xi (mass floor on the threshold set):", e1.xi)
print("  beta (observation-block mass):", e1.beta)
print("  eta (likelihood floor):", e1.eta)
print("  certified coupled-mass floor alpha = xi^2*beta*eta:", e1.alpha)
v = e1.verification
how = "vertex decision" if v.decided else "sampled"
print(f"  {how}: {v.n_pairs} pairs x {v.n_sequences} blocks, "
      f"violations g={v.g_violations} h={v.h_violations}, "
      f"max pair distance {v.max_tv}")

reports = fl.condition_E_estimate(model, pi, rho=0.1, n_max=3)
print("\ncoupled-chain evidence on the extremal barycenter pair:")
for r in reports:
    print(f"  N={r.n}: joint mass within rho = {r.alpha_achieved:.4f}")
best = first_positive_alpha(reports)
print(f"first positive at N={best.n}: {best.alpha_achieved:.4f} "
      f">= certified floor {e1.alpha}")
print("\nnote:", reports[0].note)
