"""kinklab: a verification lab for the kink dynamics of cellular automaton rule 18.

Every submodule, and every name below, is imported on first use (PEP 562), so a
command loads only the modules it runs; only ``density`` needs numpy.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "cli": (),
    "density": (
        "DensitySeries", "PowerLawFit", "density_trajectory", "fit_power_law",
        "sample_uniform", "word_frequency_trajectory",
    ),
    "dynamics": (
        "R18", "R90", "CyclicConfig", "FiniteSupportConfig", "iterate_word",
        "rule18_local", "step_cyclic", "step_cyclic_packed", "step_packed",
        "step_support", "step_word", "step_word_scalar",
    ),
    "errors": (),
    "kinks": (
        "KinkOccurrence", "TwoKinkDecomposition", "count_kinks", "count_kinks_cyclic",
        "count_kinks_packed", "find_kinks", "two_kink_decompose",
    ),
    "oracles": ("OracleReport", "OracleStatus", "run_all"),
    "preimage": (
        "ExtensionFamily", "PreimageSet", "check_stable_extension",
        "enumerate_extensions", "preimage_depth", "preimages",
    ),
    "wordclasses": (
        "StabilityClass", "classify_stability", "in_B", "in_P", "is_left_kink_word",
        "is_stable",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# the star import leaves out the CLI and the density lab, so it needs no numpy
__all__ = sorted({*_EXPORTS, *_ORIGIN} - {"cli", "density", *_EXPORTS["density"]})


def __getattr__(name: str):
    if name in _EXPORTS:  # the import binds the submodule as a package attribute
        return _import_module(f".{name}", __name__)
    if name in _ORIGIN:
        module = _import_module(f".{_ORIGIN[name]}", __name__)
        globals()[name] = value = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
