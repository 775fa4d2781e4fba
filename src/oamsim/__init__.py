"""Simulation toolkit for orbital-angular-momentum analyzers built from
fractional phase plates: rotation-overlap laws, two-photon coincidence
fringes, CHSH Bell parameters, Laguerre-Gaussian decompositions, and
far-field diffraction images."""

from .angular import (
    AngularGrid,
    ClosedForm,
    GridMismatchError,
    NonIntegerOamState,
    Sampled,
    inner_product,
    integer_mode,
    norm,
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
    coincidence_probability,
    e_correlation,
    search_max_s,
)
from .lgfield import FarFieldImage, LgDecomposition, LgMode, decompose_plate_output, far_field
from .overlap import (
    SampledCurve,
    binary_mask_overlap,
    sample_curve,
    spiral_overlap_amplitude,
    spiral_overlap_probability,
    step_overlap_probability,
)
from .plates import BinarySectors, PhasePlate, Spiral, Step, adjoint, apply, plate_state
from .twophoton import (
    AnalyzerSetting,
    TwoPhotonState,
    UnsupportedAnalyzerError,
    coincidence_amplitude,
    coincidence_fringe,
    collapse_idler,
    schmidt_pairing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
