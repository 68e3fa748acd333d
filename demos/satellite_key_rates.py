"""Satellite downlink case study: geometry, heralded-link quality, and QKD
key rates as the ground-station separation grows.

Run: python demos/satellite_key_rates.py
"""

import math

from entlink import elemlink, satlink as S

geom_h = 500.0
eta_zen = 0.5  # atmospheric transmittance at zenith
src = S.SatSourceParams(f_S=0.99, nbar1=1e-4, nbar2=1e-4, M=50)

print("   d(km)   L(km)     eta      p(herald)  F(Phi+)   ent  K_bb84  bits/step")
for d in (100, 400, 800, 1200, 1600, 2000):
    L = S.path_length(S.SatGeometry(d, geom_h))
    eta = S.eta_sg(L, geom_h, eta_zen)
    link = S.heralded_link(eta, eta, src)
    p = S.multiplexed_p(link.p, src.M)
    Q, K, rate = S.qber_and_rates(link.alpha, link.beta, "bb84", src.M, link.p)
    print(f"  {d:>5}  {L:7.1f}  {eta:.2e}  {p:.3e}  {link.coeffs.phi_plus:.5f}"
          f"  {'y' if S.entangled(link) else 'n'}   {K:6.3f}  {rate:.3e}")

print("\nmemory decay at d = 500 km, 1 s coherence time:")
d = 500.0
t_coh = S.coherence_steps(1.0, d)
L = S.path_length(S.SatGeometry(d, geom_h))
eta = S.eta_sg(L, geom_h, eta_zen)
link = S.heralded_link(eta, eta, src)
p = S.multiplexed_p(link.p, src.M)
print(f"  t_coh = {t_coh:.1f} steps, multiplexed p = {p:.4f}")
cut = S.forward_cutoff(p, t_coh)
print(f"  greedy cutoff: {cut if cut != math.inf else 'never discard'}")
for ts in (0, 5, 20, 100):
    model = elemlink.ElemLinkModel(p, ts, S.memory_f_vector(ts, t_coh, link.alpha, link.beta))
    ft, _, fr = elemlink.cutoff_steady_values(model, ts)
    print(f"  t* = {ts:>3}: steady Ftilde = {ft:.5f}, F = {fr:.5f}")
