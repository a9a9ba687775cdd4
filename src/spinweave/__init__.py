"""Exact-arithmetic Clifford algebras, spinor groups, and obstruction checks.

The public names below are imported on first access (PEP 562), so
``import spinweave`` loads no layer and each CLI subcommand loads only the
layers it runs.  ``from spinweave import X`` returns the defining module's
object.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining module
_SOURCES = {
    "CliffordElement": "clifford",
    "Signature": "clifford",
    "VolumeElement": "clifford",
    "blade_mul": "clifford",
    "iso_im": "clifford",
    "volume": "clifford",
    "FrameGroup": "groups",
    "KappaImage": "groups",
    "OrthMatrix": "groups",
    "adjoint_matrix": "groups",
    "build_odd_element": "groups",
    "frame_group": "groups",
    "generate_frame_group": "groups",
    "is_lipschitz": "groups",
    "kappa": "groups",
    "twisted_adjoint": "groups",
    "ExactMatrix": "linalg",
    "CARTAN": "reps",
    "DIRAC": "reps",
    "PAULI": "reps",
    "PAULI_TWISTED": "reps",
    "WEYL_MINUS": "reps",
    "WEYL_PLUS": "reps",
    "Intertwiner": "reps",
    "Representation": "reps",
    "SpinSpace": "reps",
    "anticommutant": "reps",
    "build_rep": "reps",
    "cartan_projectors": "reps",
    "choose_gamma": "reps",
    "commutant": "reps",
    "decompose_even_restriction": "reps",
    "find_intertwiner": "reps",
    "gamma_map": "reps",
    "grading_of": "reps",
    "spin_space": "reps",
    "verify_clifford": "reps",
    "ExactScalar": "scalars",
    "sc": "scalars",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
