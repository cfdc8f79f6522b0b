"""Continuous-variable quantum teleportation over a squeezed resource.

The teleportation channel at unit gain preserves the mean and adds
exp(-2r) of noise to each quadrature. Without entanglement the best
coherent-state fidelity is 1/2; the no-cloning threshold of 2/3 falls at
r = ln(2)/2; perfect transfer needs infinite squeezing.
"""

import numpy as np

from sqzlab import displace, teleport_gaussian, teleport_wigner_check, vacuum, wigner_grid

print("== fidelity and added noise versus resource squeezing ==")
print(f"{'r':>5} {'fidelity':>9} {'added noise':>12} {'milestone':<28}")
milestones = {
    0.0: "classical limit (no resource)",
    round(np.log(2) / 2, 4): "no-cloning threshold 2/3",
}
for r in (0.0, 0.1615, round(np.log(2) / 2, 4), 0.5, 1.0, 2.0, 3.0):
    result = teleport_gaussian(vacuum(1), r)
    note = milestones.get(r, "")
    if abs(result.coherent_fidelity - 0.58) < 5e-3:
        note = "1998 landmark experiment regime"
    print(
        f"{r:5.3f} {result.coherent_fidelity:9.4f}"
        f" {result.added_noise_per_quadrature:12.4f} {note:<28}"
    )

print("\n== the channel is amplitude independent at unit gain ==")
for alpha in (0.0, 1.0, 2.0j):
    f = teleport_gaussian(displace(vacuum(1), 0, alpha), 0.5).coherent_fidelity
    print(f"input alpha = {alpha!s:>6}: fidelity {f:.6f}")

print("\n== second route: condition on the homodyne outcomes, then average ==")
points, _, _ = wigner_grid(4.0, 21)
state = displace(vacuum(1), 0, 1.0 + 0.5j)
for r in (0.0, 1.0, 8.0):
    disc = teleport_wigner_check(state, r, points)
    print(f"r = {r:3.1f}: max |route - closed form| = {disc:.2e}")
print("at r = 8 the output Wigner function is the input's to a few 1e-8:")
print("teleportation becomes transparent in the strong-squeezing limit")
