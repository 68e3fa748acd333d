"""Single-link policy tour: steady-state values of the memory-cutoff rules,
the LP optimum, and the finite-horizon backward recursion.

Run: python demos/elementary_link_policies.py
"""

import math

import numpy as np

from entlink import elemlink
from entlink.markov import Policy
from entlink.satlink import memory_f_vector

P = 0.4
M_STAR = 6
T_COH = 20.0

f = memory_f_vector(M_STAR, T_COH, 0.45, 0.5)
model = elemlink.ElemLinkModel(P, M_STAR, f)

print(f"p = {P}, m* = {M_STAR}, memory coherence {T_COH} steps")
print("\ncutoff  Ftilde      X        F")
for ts in range(M_STAR + 1):
    ft, x, fr = elemlink.cutoff_steady_values(model, ts)
    print(f"{ts:>5}  {ft:.6f}  {x:.6f}  {fr:.6f}")

ft, x, _ = elemlink.cutoff_steady_values(model, math.inf)
print(f"  inf  {ft:.6f}  {x:.6f}")

value, d_opt = elemlink.lp_optimal_steady(model)
req = np.nonzero(d_opt.table[1:, elemlink.REQUEST] > 0.5)[0]
print(f"\nLP optimum Ftilde = {value:.6f}"
      f" (requests at ages {req.tolist()})")

print("\nfinite horizon t   optimal E[f]   never-discard E[f]")
pol_inf = Policy.stationary(elemlink.cutoff_decision(model, math.inf))
for t in (1, 2, 4, 8, 16):
    v, _ = elemlink.optimal_backward(model, t)
    ft, _, _ = elemlink.ftilde_x_f(model, pol_inf, t)
    print(f"{t:>16}   {v:.6f}       {ft:.6f}")
