"""Simulation toolkit for orbital-angular-momentum analyzers built from
fractional phase plates: rotation-overlap laws, two-photon coincidence
fringes, CHSH Bell parameters, Laguerre-Gaussian decompositions, and
far-field diffraction images."""

from .angular import (
    AngularGrid,
    ClosedForm,
    inner_product,
    integer_mode,
    oam_spectrum,
)
from .bell import (
    BellResult,
    BellSettings,
    DegenerateFringeError,
    MaskSearchResult,
    POLARIZATION_SETTINGS,
    SPIRAL_SETTINGS,
    chsh_s,
    chsh_s_exact,
    search_max_s,
)
from .overlap import (
    SampledCurve,
    UnsupportedAnalyzerError,
    sample_curve,
    spiral_overlap_probability,
)
from .plates import BinarySectors, PhasePlate, Spiral, Step, plate_state

# lgfield imports numpy, so it and its names load on first access (PEP 562)
# and `import oamsim` runs on the standard library
_LGFIELD_NAMES = ("lgfield", "FarFieldImage", "LgDecomposition", "decompose_plate_output",
                  "far_field")


def __getattr__(name):
    if name not in _LGFIELD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    lgfield = importlib.import_module(".lgfield", __name__)
    return lgfield if name == "lgfield" else getattr(lgfield, name)


def __dir__():
    return sorted({*globals(), *_LGFIELD_NAMES})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"
