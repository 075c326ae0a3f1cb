"""Exact invariants of flat G-connections on closed 4-manifolds.

The package computes a scalar invariant of a closed oriented 4-manifold
with a flat G-connection from two inputs: a finite type involutory
quasitriangular Hopf G-algebra given by exact structure constants, and
a G-colored Kirby diagram given combinatorially.  All arithmetic is
exact over cyclotomic fields.

``import hopfg`` loads no submodule: each public name imports its own
on first use (PEP 562).
"""

import importlib as _importlib
import sys as _sys
import types as _types

# submodule -> the public names it defines
_EXPORTS = {
    "algebra": "AlgebraStructureError DrinfeldError Graded HopfGAlgebra IntegralError",
    "builtins": "build_cyclic build_kac_paljutkin builtin_algebra",
    "cyclo": "Cyclo render_decimal render_scalar",
    "diagrams": "ColoredDiagram ColoringError Crossing CrossingEnd DiagramError DotPassage "
                "DottedComponent KirbyDiagram UndottedComponent builtin_diagram "
                "builtin_diagram_names color colorings connected_sum fundamental_presentation "
                "renumber reorient rotate_component validate",
    "evaluate": "EvaluationError InvariantValue SummedInvariant evaluate evaluate_summed",
    "groups": "FiniteGroup GroupElement GroupError GroupHom Presentation cyclic_group "
              "enumerate_homs group_from_table product_group",
    "integrals": "IntegralData solve_integrals",
    "moves": "MoveError apply_move move_candidates move_names",
    "serialize": "SerializeError algebra_from_json algebra_to_json diagram_from_json "
                 "diagram_to_json dumps_canonical group_from_json group_to_json "
                 "resolve_algebra resolve_diagram resolve_group",
    "verify": "AxiomReport drinfeld_element verify_axioms",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule hopfg.evaluate binds it here: keep the function
        if name == "evaluate" and isinstance(value, _types.ModuleType):
            value = value.evaluate
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
