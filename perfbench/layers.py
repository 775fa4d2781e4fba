"""Per-layer tracing from outside the program.

A ``Tracer`` replaces each listed public function of oamsim by a wrapper at
every name under which an oamsim module looks it up (``oracle`` calls
``bell.chsh_s`` as its own global ``chsh_s``, for instance), and records the
calls and the self time of each: its duration minus the time spent in
wrapped calls nested inside it. Only traced worker processes install it; the
untraced runs carry no wrappers. A listed function that the program no
longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, name) of every wrapped function, a method as Class.method.
TARGETS = (
    ("bell", "chsh_s"),
    ("bell", "search_max_s"),
    ("overlap", "binary_mask_overlap"),
    ("plates", "sector_intervals"),
    ("oracle", "verify_fringe_sample"),
    ("oracle", "standard_sweep"),
    ("angular", "inner_product"),
    ("plates", "plate_state"),
    ("twophoton", "fringe_probability"),
    ("lgfield", "radial_overlaps"),
    ("angular", "oam_spectrum"),
    ("lgfield", "decompose_plate_output"),
    ("lgfield", "far_field"),
    ("lgfield", "FarFieldImage.asymmetry_metric"),
    ("lgfield", "FarFieldImage.azimuthal_variance"),
)

TARGET_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS)

PACKAGE = "oamsim"


def _resolve(module_name, name):
    """(owner, attribute, function) of a target, or None if it is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ModuleNotFoundError:
        return None
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = getattr(owner, attr, None)
    return None if function is None else (owner, attr, function)


class Tracer:
    """Call counts and self times of the wrapped functions in one process."""

    def __init__(self):
        self.calls = dict.fromkeys(TARGET_NAMES, 0)
        self.self_s = dict.fromkeys(TARGET_NAMES, 0.0)
        self.absent = []
        self._nested = []  # per active wrapped call: time of wrapped calls inside it

    def install(self) -> "Tracer":
        for (module_name, name), full in zip(TARGETS, TARGET_NAMES):
            found = _resolve(module_name, name)
            if found is None:
                self.absent.append(full)
                continue
            owner, attr, function = found
            wrapper = self._wrap(full, function)
            if "." in name:
                setattr(owner, attr, wrapper)  # a method: callers look it up on the class
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is function:
                        setattr(module, key, wrapper)
        return self

    def _wrap(self, full, function):
        calls, self_s, nested = self.calls, self.self_s, self._nested
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                calls[full] += 1
                self_s[full] += elapsed - inner

        return wrapper

    def metrics(self) -> dict:
        out = {}
        for full in TARGET_NAMES:
            out[f"{full}.calls"] = self.calls[full]
            out[f"{full}.self_s"] = self.self_s[full]
        return out
