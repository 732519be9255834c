"""SU(2) representation invariants and multivariable signatures of
two-component links, with closed-form coverage of the (2,2l)-torus family.

The public names below load their module on first access (PEP 562), so
`import linksig` is cheap and a command pays only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "chebyshev": "eval_T eval_U",
    "errors": "BadSystemError DegeneratePhiError LinksigError NotDefinedError "
    "NullityWarning OmegaOneError TransversalityFailureError ZeroLinkingError",
    "pillowcase": "CurveSample PillowPoint SignedIntersection intersections sample_curve",
    "signature": "Inertia SeifertSystem build_H inertia seifert_from_json "
    "seifert_system seifert_to_json sigma_eval symmetrized_sigma torus_seifert",
    "su2": "UnitQuaternion act",
    "torus_rep": "AnglePair RationalAngle angle_pair h_invariant is_defined rep_count "
    "sigma_torus_closed solve_phi torus_braid",
    "verify": "check_mod4_congruence region_grid sweep_main_identity",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as `import linksig; linksig.verify` did
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
