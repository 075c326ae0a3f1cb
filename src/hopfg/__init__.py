"""Exact invariants of flat G-connections on closed 4-manifolds.

The package computes a scalar invariant of a closed oriented 4-manifold
with a flat G-connection from two inputs: a finite type involutory
quasitriangular Hopf G-algebra given by exact structure constants, and
a G-colored Kirby diagram given combinatorially.  All arithmetic is
exact over cyclotomic fields.
"""

import types as _types

from .algebra import (
    AlgebraStructureError,
    DrinfeldError,
    GradedTensor,
    GradedVector,
    HopfGAlgebra,
    IntegralError,
)
from .builtins import build_cyclic, build_kac_paljutkin, builtin_algebra
from .cyclo import Cyclo, render_decimal, render_scalar
from .diagrams import (
    ColoredDiagram,
    ColoringError,
    Crossing,
    CrossingEnd,
    DiagramError,
    DotPassage,
    DottedComponent,
    KirbyDiagram,
    UndottedComponent,
    builtin_diagram,
    builtin_diagram_names,
    color,
    colorings,
    connected_sum,
    fundamental_presentation,
    renumber,
    reorient,
    rotate_component,
    validate,
)
from .evaluate import (
    EvaluationError,
    InvariantValue,
    SummedInvariant,
    connected_sum_check,
    evaluate,
    evaluate_summed,
)
from .groups import (
    FiniteGroup,
    GroupElement,
    GroupError,
    GroupHom,
    Presentation,
    cyclic_group,
    enumerate_homs,
    group_from_table,
    product_group,
)
from .integrals import IntegralData, solve_integrals
from .moves import MoveError, apply_move, move_candidates, move_names
from .serialize import (
    SerializeError,
    algebra_from_json,
    algebra_to_json,
    diagram_from_json,
    diagram_to_json,
    dumps_canonical,
    group_from_json,
    group_to_json,
    resolve_algebra,
    resolve_diagram,
    resolve_group,
)
from .verify import AxiomReport, drinfeld_element, verify_axioms

__version__ = "0.1.0"

# The public names are the ones imported above: every global that is
# neither private nor a module (submodules such as .algebra bind here too).
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
__all__.append("__version__")
