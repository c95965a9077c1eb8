"""Linear and mixed-integer modeling layer over scipy's HiGHS solvers.

The paper implements Raha on top of MetaOpt, which in turn drives Gurobi.
Neither is available offline, so this package provides the substrate both
of them supply:

* :mod:`repro.solver.expr` -- variables, linear expressions and constraints
  with operator overloading (``2 * x + y <= 5``).
* :mod:`repro.solver.model` -- a :class:`Model` that compiles expressions
  into sparse matrices and dispatches to :func:`scipy.optimize.milp` (for
  mixed-integer programs) or, for pure LPs, to a live native HiGHS
  instance that also reports one dual per row.
* :mod:`repro.solver.highs` -- that instance: scipy's bundled HiGHS
  binding, loaded once per compiled model and re-solved under patched
  bounds from a cleared solver state, so every answer is independent of
  the calls before it.  The binding is private; an import-time probe
  checks it, and when it is unusable (scipy < 1.15) every LP goes
  through :func:`scipy.optimize.linprog`, each fallback counted in the
  ``solver.backend_fallbacks`` metric and logged.
* :mod:`repro.solver.linearize` -- standard MILP linearization gadgets:
  indicator variables for threshold tests on integer expressions, and
  McCormick products of a binary and a bounded continuous variable.  These
  implement the "standard optimization techniques [7]" the paper uses to
  linearize the indicator in Eq. 5.
* :mod:`repro.solver.duality` -- emission of LP KKT optimality conditions
  (dual feasibility + big-M complementary slackness) into a host model.
  This is the mechanism that lets Raha embed the *failed* network's traffic
  engineering optimum inside a single-level MILP (Section 4.1 of the paper).
"""

from repro.solver.expr import (
    Constraint,
    LinExpr,
    RangeConstraint,
    Var,
    indices_of,
    quicksum,
)
from repro.solver.linearize import (
    indicator_geq,
    product_binary_bounded,
)
from repro.solver.model import Model
from repro.solver.result import SolveResult, SolveStats, SolveStatus

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "RangeConstraint",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "Var",
    "indicator_geq",
    "indices_of",
    "product_binary_bounded",
    "quicksum",
]
