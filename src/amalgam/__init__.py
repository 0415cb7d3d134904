"""Wiener amalgam norms, dispersive kernels, and exponent-region checks.

The public names below resolve on first access (PEP 562), so importing
the package, or a numpy-free module such as ``amalgam.exponents``, does
not import numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "grid": ("GridSpec", "NormResult", "SampledField", "SpaceTimeField", "lebesgue_norm"),
    "wiener": ("WindowSpec", "amalgam_norm", "holder_pairing", "spacetime_amalgam_norm",
               "unit_cube_partition", "weak_lorentz_norm"),
    "propagator": ("DecayProfile", "KernelSamples", "adjoint_accumulate", "evolve_blocks",
                   "hsigma_norm", "kernel_amalgam_profile", "kernel_bound", "kernel_eval",
                   "profile_times"),
    "exponents": ("ExponentTuple", "RegionReport", "check", "classical_sobolev_line",
                  "predicted_kernel_decay", "sample_region"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
