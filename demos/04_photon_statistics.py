"""Photon-number content of squeezed and coherent states.

The squeezed vacuum contains only photon pairs; the two-mode squeezed
vacuum holds perfectly correlated pairs whose weights follow a Boltzmann
ladder; and for small amplitudes the squeezed vacuum is almost the same
state as an even cat ("kitten") superposition of two coherent states.
"""

import numpy as np

from sqzlab import coherent_fock, fidelity, squeeze, squeezed_vacuum_fock, tmsv_fock, vacuum
from sqzlab.fock import branch_probabilities, mean_photon_number, suggest_cutoff
from sqzlab.protocols import ideal_even_kitten

print("== number distribution of a squeezed vacuum (r = 0.9) ==")
sq = squeezed_vacuum_fock(0.9, suggest_cutoff(squeeze(vacuum(1), 0, 0.9)))
probs = branch_probabilities(sq, 0)
for n in range(8):
    bar = "#" * int(120 * probs[n])
    print(f"n = {n}: {probs[n]:8.5f}  {bar}")
print("only even terms appear: photons are created strictly in pairs")

print("\n== two-mode squeezed vacuum (r = 0.8): a Boltzmann ladder ==")
pair = tmsv_fock(0.8, 40)
diag = np.abs(np.asarray(pair.amps).diagonal()) ** 2
print("pair-number probabilities:", np.array_str(diag[:5], precision=5))
print("successive ratios:", np.array_str(diag[1:5] / diag[:4], precision=5),
      f"-> constant tanh^2(r) = {np.tanh(0.8) ** 2:.5f}")
print(f"mean photons per mode: {mean_photon_number(pair, 0):.5f}"
      f" = sinh^2(r) = {np.sinh(0.8) ** 2:.5f}")

print("\n== coherent state photon statistics (alpha = 1) ==")
coh = coherent_fock(1.0, 20)
print("Poisson weights:", np.array_str(branch_probabilities(coh, 0)[:5], precision=4))

print("\n== tiny squeezed vacuum vs the even kitten ==")
for alpha in (0.3, 0.5, 0.8):
    f = fidelity(squeezed_vacuum_fock(-alpha**2, 30), ideal_even_kitten(alpha, 30))
    print(f"alpha = {alpha}: overlap with squeezed vacuum at r = alpha^2: {f:.5f}")
print("the correspondence is excellent for small alpha and fades as the")
print("higher photon-number terms start to disagree")
