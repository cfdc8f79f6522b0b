"""In-memory span tracer for the sqzlab layers.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper wherever a `sqzlab` module holds the original (for
instance `protocols` imports `squeeze` by name), so calls between layers
are recorded as well as calls from the benchmark. `uninstall()` puts the
originals back, so untraced passes run the unmodified program.

A span is (name, tag, start, end, parent). A call into a layer from the
same layer records no span of its own: its time is part of the caller's
span, so a layer's time is never counted twice. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "scenarios", "protocols", "devices", "homodyne", "fock", "gaussian")


def _first_attr(attr):
    return lambda args, kwargs: getattr(args[0], attr, None) if args else None


def _reconstruct_pairs(args, kwargs):
    dataset, grid = args[0], args[1] if len(args) > 1 else kwargs["grid"]
    return len(dataset) * len(grid)


def _bs_key(args, kwargs):
    state, _, tau, rho = args[:4]
    return (state.cutoff, float(tau), float(rho))


# Extra detail kept with a span, by span name; read back by `summary`.
TAGS = {
    "scenarios.run_scenario": _first_attr("scenario"),
    "fock.beam_splitter_fock": _bs_key,
    "fock.wigner_fock": lambda args, kwargs: len(args[1]) if len(args) > 1 else len(kwargs["grid"]),
    "homodyne.reconstruct_wigner": _reconstruct_pairs,
    "homodyne.sample_quadratures": lambda args, kwargs: type(args[0]).__name__,
}
for _gate in ("squeeze", "rotate", "beam_splitter", "two_mode_squeeze", "loss_channel", "displace"):
    TAGS[f"gaussian.{_gate}"] = _first_attr("n_modes")


class Tracer:
    """Records spans of the sqzlab layers while installed."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index]
        self._stack = []
        self._saved = []  # (module, attribute, original) to restore

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _layer_of_top(self):
        return self.spans[self._stack[-1]][0].split(".", 1)[0] if self._stack else None

    @contextmanager
    def span(self, name: str, tag=None):
        """Record one span around the block; does nothing unless installed."""
        if not self.installed:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, tag, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = perf_counter()

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layer_of_top() == layer:
                return fn(*args, **kwargs)
            with self.span(name, tag_of(args, kwargs) if tag_of else None):
                return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self.installed:
            return
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sqzlab.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "sqzlab" and not modname.startswith("sqzlab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved = []

    @contextmanager
    def paused(self):
        """Run the block untraced (used for the benchmark's own checks)."""
        was = self.installed
        self.uninstall()
        try:
            yield
        finally:
            if was:
                self.install()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list:
    """Each span's duration minus that of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


GATES = {
    "squeeze", "rotate", "beam_splitter", "two_mode_squeeze", "loss_channel", "displace",
    "squeeze_op", "rotation_op", "beam_splitter_op", "two_mode_squeeze_op",
}
HERALD = {"herald_click", "project_number", "reduce_to_dominant_branch", "branch_probabilities"}
STATE_PREP = {"coherent_fock", "squeezed_vacuum_fock", "tmsv_fock", "tensor", "from_amplitudes"}
SELF_LAYERS = ("scenarios", "protocols", "homodyne", "fock", "gaussian")


def summary(spans, seen_bs: set) -> tuple[dict, dict]:
    """Per-pass layer totals and per-call samples from one traced pass.

    Returns (totals, samples): totals are additive per pass (seconds,
    counts); samples maps a key to a list of single-call durations. A
    beam splitter call is cold when its (cutoff, tau, rho) has not been
    seen before in this process; `seen_bs` is updated in place.
    """
    totals = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
    samples = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for (name, tag, start, end, _), own in zip(spans, self_times(spans)):
        dur = end - start
        layer, func = name.split(".", 1)
        if layer in SELF_LAYERS:
            add(f"{layer}.self_s", own)
        if layer == "devices":
            add("devices.s", dur)
        elif layer == "scenarios" and func == "run_scenario":
            add(f"scenarios.run_s.{tag}", dur)
        elif layer == "protocols" and func == "teleport_wigner_check":
            add("protocols.teleport_check_s", dur)
        elif layer == "homodyne":
            if func == "reconstruct_wigner":
                add("homodyne.reconstruct_s", dur)
                add("homodyne.reconstruct_pairs", tag)
            elif func == "photocurrent_with_drift":
                add("homodyne.drift_s", dur)
            elif func == "spectrum":
                add("homodyne.spectrum_s", dur)
            elif func.startswith("save_"):
                add("homodyne.csv_write_s", dur)
            elif func.startswith("load_"):
                add("homodyne.csv_read_s", dur)
            elif func == "sample_quadratures":
                add(f"homodyne.sample_s.{tag.replace('State', '').lower()}", dur)
        elif layer == "fock":
            if func == "beam_splitter_fock":
                add("fock.beam_splitter_calls", 1)
                add("fock.beam_splitter_s", dur)
                if tag in seen_bs:
                    samples.setdefault("fock.beam_splitter_warm_s", []).append(dur)
                else:
                    seen_bs.add(tag)
                    samples.setdefault(f"fock.beam_splitter_cold_s.d{tag[0]}", []).append(dur)
            elif func == "wigner_fock":
                add("fock.wigner_s", dur)
                add("fock.wigner_points", tag)
            elif func in HERALD:
                add("fock.herald_s", dur)
            elif func in STATE_PREP:
                add("fock.state_prep_s", dur)
        elif layer == "gaussian":
            if func in GATES:
                add("gaussian.gate_calls", 1)
                add("gaussian.gate_s", dur)
                if tag is not None:
                    samples.setdefault(f"gaussian.gate_mean_us.n{tag}", []).append(dur * 1e6)
            elif func == "boundary":
                add("gaussian.boundary_s", dur)
    return totals, samples
