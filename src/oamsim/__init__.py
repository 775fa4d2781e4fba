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
from .lgfield import FarFieldImage, LgDecomposition, decompose_plate_output, far_field
from .overlap import (
    SampledCurve,
    sample_curve,
    spiral_overlap_probability,
    step_overlap_probability,
)
from .plates import BinarySectors, PhasePlate, Spiral, Step, plate_state
from .twophoton import UnsupportedAnalyzerError, coincidence_fringe

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
