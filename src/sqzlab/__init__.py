"""sqzlab: a continuous-variable quantum-optics simulator.

Two interoperable state engines (exact Gaussian moments and a truncated
photon-number basis), a homodyne measurement layer with Wigner tomography,
parametric-device models, and protocol pipelines for teleportation, phase
estimation and conditional state engineering.

The package exports every public function and class that one of its five
layers defines. A layer is imported when one of its names is first read,
so `import sqzlab` alone loads none of them (PEP 562).
"""

from importlib import import_module as _import_module
from types import FunctionType as _FunctionType

__version__ = "0.1.0"

# searched in this order; no name is defined by two layers
_LAYERS = ("gaussian", "fock", "homodyne", "devices", "protocols")
# `from sqzlab import fock` asks for these first; a search would import every layer
_SUBMODULES = frozenset(_LAYERS + ("scenarios", "cli"))


def _defines(module, name: str) -> bool:
    obj = getattr(module, name, None)
    return isinstance(obj, (type, _FunctionType)) and obj.__module__ == module.__name__


def _exports() -> list[str]:
    names = []
    for layer in _LAYERS:
        module = _import_module(f"{__name__}.{layer}")
        names += [name for name in vars(module) if name[0] != "_" and _defines(module, name)]
    return names


def __getattr__(name: str):
    if name == "__all__":  # read by `from sqzlab import *`
        return _exports()
    if not name.startswith("_") and name not in _SUBMODULES:
        for layer in _LAYERS:
            module = _import_module(f"{__name__}.{layer}")
            if _defines(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_exports()))
