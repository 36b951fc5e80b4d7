"""kinklab: a verification lab for the kink dynamics of cellular automaton rule 18."""

__version__ = "0.1.0"  # set before the submodule imports; density records it

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
    rule90_local,
    step_cyclic,
    step_support,
    step_word,
    step_word_scalar,
)
from .kinks import (
    KinkOccurrence,
    TwoKinkDecomposition,
    count_kinks,
    count_kinks_cyclic,
    find_kinks,
    kink_parity,
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
from .density import (
    DensitySeries,
    PowerLawFit,
    density_trajectory,
    fit_power_law,
    sample_uniform,
    word_frequency_trajectory,
)
