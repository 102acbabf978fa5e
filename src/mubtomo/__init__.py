"""mubtomo: state reconstruction from unbiased measurements.

Two pipelines at desk scale:

* finite-dimensional qudit tomography over the d+1 mutually unbiased
  bases of an odd-prime dimension (``finite_field``, ``qudit_mub``,
  ``qudit_tomography``),
* continuous phase-space tomography, both classical densities and Wigner
  functions, via the Radon transform and its filtered back-projection
  inverse (``classical_radon``, ``cv_wigner``).

Submodules are imported explicitly, e.g. ``from mubtomo import qudit_mub``.
"""

__version__ = "0.1.0"

__all__ = [
    "classical_radon",
    "cli",
    "cv_wigner",
    "errors",
    "finite_field",
    "io_formats",
    "qudit_mub",
    "qudit_tomography",
]
