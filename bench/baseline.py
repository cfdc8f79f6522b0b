"""Re-measure the rows of the ROADMAP "Baseline" table.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 bench/baseline.py

Each row runs at the size the table states, in this process, and reports
the minimum of its repeats (one repeat for rows over a second). Rows that
hit a cache use fresh inputs on every repeat, so they are cold, as in the
table. Prints a Markdown table with the table's figure, the measured
one, their ratio (to the nearest end of a range) and "off" where they
differ by more than the table's stated 20%.
The full test suite row is not timed.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from sqzlab import fock, gaussian, homodyne, protocols
from sqzlab.scenarios import ScenarioConfig, run_scenario

THETAS24 = np.linspace(0.0, np.pi, 24, endpoint=False)
_fresh = iter(range(1, 10**6))


def _rho():
    """A tap reflectivity near 0.05 that no earlier call has used."""
    return 0.05 * (1.0 + 1e-6 * next(_fresh))


def _scenario(name, **params):
    with tempfile.TemporaryDirectory() as out:
        run_scenario(ScenarioConfig(scenario=name, params=params, output_dir=str(Path(out))))


def _beam_splitter(d):
    vacuum = fock.coherent_fock(0.0, d)
    rho = _rho()
    return fock.beam_splitter_fock(fock.tensor(vacuum, vacuum), (0, 1), np.sqrt(1.0 - rho * rho), rho)


def _superposition(d):
    rho = _rho()  # tap and mix share one unitary, as at the scenario defaults
    return protocols.engineer_kitten_superposition(0.2, 0.05, rho, rho, d)


def _chain(n):
    state = gaussian.vacuum(n)
    for k in range(n):
        state = gaussian.squeeze(state, k, 0.2)
    for k in range(n - 1):
        state = gaussian.beam_splitter(state, (k, k + 1), 0.8, 0.6)
    return state


def _photon():
    one = np.zeros(12)
    one[1] = 1.0
    return fock.from_amplitudes(one)


def _dataset(n_phases, per_phase):
    state = gaussian.squeeze(gaussian.vacuum(1), 0, 0.69)
    return homodyne.sample_quadratures(state, 0, np.linspace(0, np.pi, n_phases, endpoint=False), per_phase)


GRID41 = homodyne.wigner_grid(4.0, 41)[0]
DATA48K = _dataset(48, 1000)
KITTEN40 = protocols.make_kitten(0.2, 40, 0.05)[0]

# (row, table figure in seconds or a (low, high) range, callable)
ROWS = [
    ("`tomography-demo` e2e (default)", 3.9, lambda: _scenario("tomography-demo")),
    ("`kitten` e2e", 0.309, lambda: _scenario("kitten", rho=_rho())),
    ("`spectrum-drift-demo` e2e", 0.230, lambda: _scenario("spectrum-drift-demo")),
    ("`loss-sweep` e2e (one of the other 8)", (0.0007, 0.025), lambda: _scenario("loss-sweep")),
    ("`teleport-sweep` e2e, r_max=2 (one of the other 8)", (0.0007, 0.025), lambda: _scenario("teleport-sweep", r_max=2.0)),
    ("`herald-photon` e2e (one of the other 8)", (0.0007, 0.025), lambda: _scenario("herald-photon")),
    ("`reconstruct_wigner`, 41x41, 48 phases x 1000", 6.9, lambda: homodyne.reconstruct_wigner(DATA48K, GRID41)),
    ("Fock `sample_quadratures`, d=12, 24 x 1000", 0.194, lambda: homodyne.sample_quadratures(_photon(), 0, THETAS24, 1000)),
    ("`wigner_fock`, d=40, 41x41", 0.150, lambda: fock.wigner_fock(KITTEN40, GRID41)),
    ("`photocurrent_with_drift`, 200k samples", 0.079,
     lambda: homodyne.photocurrent_with_drift(0.5, 0.75, 2e-6, 4e6, 0.05)),
    ("`engineer_kitten_superposition`, d=40", 1.1,
     lambda: _superposition(40)),
    ("BS unitary build (via `beam_splitter_fock`), d=32", 0.31,
     lambda: _beam_splitter(32)),
    ("BS unitary build (via `beam_splitter_fock`), d=48", 2.6,
     lambda: _beam_splitter(48)),
    ("BS unitary build (via `beam_splitter_fock`), d=64", 12.8,
     lambda: _beam_splitter(64)),
    ("Gaussian chain, N=20 (39 gates)", 0.012, lambda: _chain(20)),
    ("Gaussian chain, N=100 (199 gates)", 0.98, lambda: _chain(100)),
    ("`teleport_wigner_check`, 21x21", 0.50,
     lambda: protocols.teleport_wigner_check(gaussian.vacuum(1), 0.5, homodyne.wigner_grid(4.0, 21)[0])),
]


def _time(fn) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        if best > 1.0:
            break
    return best


def main():
    print("| row | table (s) | measured (s) | ratio | |")
    print("|---|---|---|---|---|")
    for label, table, fn in ROWS:
        got = _time(fn)
        low, high = table if isinstance(table, tuple) else (table, table)
        ratio = got / min(max(got, low), high)
        flag = "off" if abs(ratio - 1.0) > 0.2 else ""
        shown = f"{low:.3g}-{high:.3g}" if low != high else f"{low:.3g}"
        print(f"| {label} | {shown} | {got:.3g} | {ratio:.2f} | {flag} |", flush=True)


if __name__ == "__main__":
    main()
