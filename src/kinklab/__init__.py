"""kinklab: a verification lab for the kink dynamics of cellular automaton rule 18."""

__version__ = "0.1.0"  # set before the submodule imports; density records it

from importlib import import_module as _import_module

from .dynamics import (
    R18,
    R90,
    CyclicConfig,
    FiniteSupportConfig,
    Geometry,
    SpacetimeDiagram,
    iterate_word,
    render_spacetime,
    rule18_local,
    step_cyclic,
    step_packed,
    step_support,
    step_word,
    step_word_scalar,
)
from .kinks import (
    KinkOccurrence,
    TwoKinkDecomposition,
    count_kinks,
    count_kinks_cyclic,
    count_kinks_packed,
    find_kinks,
    two_kink_decompose,
)
from .wordclasses import (
    StabilityClass,
    classify_stability,
    in_B,
    in_P,
    is_left_kink_word,
    is_stable,
    reverse,
)
from .preimage import (
    ExtensionFamily,
    PreimageSet,
    check_stable_extension,
    enumerate_extensions,
    preimage_depth,
    preimages,
    two_kink_preimage,
    unique_lift,
)
from .oracles import OracleReport, OracleStatus, run_all

# The density lab is the only module that needs numpy, so it is imported on
# first use of one of its names (PEP 562): every other command starts without it.
_DENSITY_NAMES = frozenset({
    "DensitySeries",
    "PowerLawFit",
    "density_trajectory",
    "fit_power_law",
    "sample_uniform",
    "word_frequency_trajectory",
})


def __getattr__(name: str):
    if name == "density" or name in _DENSITY_NAMES:
        density = _import_module(".density", __name__)
        return density if name == "density" else getattr(density, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "density", *_DENSITY_NAMES})
