"""Completed zeta functions of global fields and their functional equation.

For a global field k (the rationals, a quadratic field, or a function
field over a finite field) the package evaluates the Dedekind zeta,
the archimedean Gamma factor, and the completed product

    Z(s) = (pi^(-s/2) Gamma(s/2))^r1 * ((2 pi)^(1-s) Gamma(s))^r2 * zeta_k(s),

computes the adelic covolume beta (sqrt|D| for number fields, q^(g-1)
in positive characteristic), and verifies

    Z(1 - s) = beta^(2s-1) * Z(s)

numerically on point grids, and exactly (integer arithmetic) for
function fields, where the identity is the coefficient symmetry of the
L-polynomial.

The public names below are re-exported lazily (PEP 562): each is looked
up in its defining module on first access and then kept here, so
``import globalzeta.cli`` compiles only what a command runs; ``places``
and ``covolume`` never load kernel, zeta or verify.  The function
``zeta`` shares its name with the submodule globalzeta.zeta.
Importing that submodule would bind the module here in its place, so
the package's class keeps a public name from being rebound to a module.
"""

import importlib
import sys
import types

#: Each public name, listed under the module that defines it.
_EXPORTS = {
    "arith": ("DomainError", "PoleError", "SymmetryError", "WeilBoundWarning", "POLE_EXCLUSION_RADIUS",
              "KroneckerCharacter", "is_fundamental_discriminant", "kronecker_chi"),
    "kernel": ("dirichlet_l", "hurwitz_zeta", "log_gamma", "riemann_zeta"),
    "fields": (
        "FunctionFieldDescriptor", "LPolynomial", "NumberFieldDescriptor", "Place", "covolume",
        "enumerate_places", "field_spec_string", "local_euler_factor", "log_covolume",
        "lpoly_from_point_counts", "make_curve_function_field", "make_quadratic",
        "make_rational_function_field", "make_rationals", "parse_field_spec", "places_above",
        "splitting_type", "truncated_euler_product",
    ),
    "zeta": ("EvaluationRecord", "PoleSet", "completed_zeta", "gamma_factor", "pole_distance", "pole_set", "zeta"),
    "verify": (
        "EulerConsistencyReport", "ExactCheckResult", "FunctionalEquationReport", "GridSpec",
        "SweepSummary", "check_point", "euler_consistency_check", "exact_check_function_field", "sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # the import system binds each loaded submodule here under its name;
        # where that is also a public name (zeta), the public object keeps it
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
