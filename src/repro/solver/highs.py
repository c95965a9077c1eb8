"""A live native HiGHS instance for pure-LP solves.

scipy bundles HiGHS's own Python binding as the private module
``scipy.optimize._highspy._core``.  :class:`NativeLP` loads one compiled
LP into a ``_Highs`` instance once and then re-solves it under patched
bounds: column bounds in one ``changeColsBounds`` call, changed rows by
``changeRowBounds``, then ``clearSolver()`` and ``run()``.  Ranged rows
(``lo <= a x <= hi``) are native to HiGHS, so no ub/lb/eq row split is
needed and the row duals come back in the model's own row order.

``clearSolver()`` discards the previous basis and solution, so each
answer depends only on the patched model -- never on which solves came
before it.  That keeps results bit-identical across call orders,
chunkings and worker counts.

The binding is private, so it is probed once at import: the module must
import, expose every method used here, and solve a one-variable LP.
When any of that fails, :data:`BINDING` is ``None`` and
:class:`repro.solver.model.Model` sends every LP through
:func:`scipy.optimize.linprog` instead (the only path on scipy < 1.15,
which predates the binding).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.solver.result import SolveStatus

_INF = float("inf")

# HiGHS model statuses, mapped the way linprog maps them.
_STATUS = {
    "kOptimal": SolveStatus.OPTIMAL,
    "kTimeLimit": SolveStatus.TIME_LIMIT,
    "kIterationLimit": SolveStatus.TIME_LIMIT,
    "kInfeasible": SolveStatus.INFEASIBLE,
    "kModelError": SolveStatus.INFEASIBLE,
    "kUnbounded": SolveStatus.UNBOUNDED,
}

#: ``_Highs`` methods this module calls.
_METHODS = (
    "passModel", "setOptionValue", "changeColsBounds", "changeRowBounds",
    "clearSolver", "run", "getModelStatus", "modelStatusToString",
    "getInfo", "getSolution",
)

#: The options ``linprog(method="highs")`` sets, so both paths run the
#: same HiGHS configuration.
_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("highs_debug_level", 0),
    ("presolve", "on"),
    ("simplex_strategy", 1),   # dual simplex
)


class LPRun(NamedTuple):
    """One LP solve, from either backend.

    ``fun``, ``x`` and ``row_dual`` (one dual per model row) are set only
    for an optimal solve; ``fun`` and ``row_dual`` are in the
    minimization sense the LP was loaded in.
    """

    status: SolveStatus
    fun: float | None
    x: np.ndarray | None
    row_dual: np.ndarray | None
    iterations: int
    message: str
    backend: str


class NativeLP:
    """One LP held in a live ``_Highs`` instance, re-solved per call.

    Args:
        c: Minimization cost vector.
        a: The CSR constraint matrix.
        row_lb / row_ub / var_lb / var_ub: The model's base bounds.

    Raises:
        RuntimeError: HiGHS rejected an option or the model.
    """

    def __init__(self, c, a, row_lb, row_ub, var_lb, var_ub, core=None):
        core = core if core is not None else BINDING
        self._core = core
        m, n = a.shape
        csc = a.tocsc()
        lp = core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = m
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = csc.indptr.astype(np.int32)
        lp.a_matrix_.index_ = csc.indices.astype(np.int32)
        lp.a_matrix_.value_ = csc.data.astype(np.float64)
        lp.col_cost_ = np.asarray(c, dtype=np.float64)
        lp.col_lower_ = np.asarray(var_lb, dtype=np.float64)
        lp.col_upper_ = np.asarray(var_ub, dtype=np.float64)
        lp.row_lower_ = np.asarray(row_lb, dtype=np.float64)
        lp.row_upper_ = np.asarray(row_ub, dtype=np.float64)
        highs = core._Highs()
        error = core.HighsStatus.kError
        for name, value in _OPTIONS:
            if highs.setOptionValue(name, value) == error:
                raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
        if highs.passModel(lp) == error:
            raise RuntimeError("HiGHS rejected the model")
        self._highs = highs
        self._n = n
        self._cols = np.arange(n, dtype=np.int32)
        # The row bounds the instance holds now, diffed on every run.
        self._row_lb = np.array(row_lb, dtype=np.float64)
        self._row_ub = np.array(row_ub, dtype=np.float64)
        self._time_limit = _INF

    def run(self, row_lb, row_ub, var_lb, var_ub,
            time_limit: float | None = None) -> LPRun | None:
        """Solve under these bounds; ``None`` when HiGHS returns kError."""
        core = self._core
        highs = self._highs
        changed = np.flatnonzero(
            (row_lb != self._row_lb) | (row_ub != self._row_ub))
        for i in changed.tolist():
            highs.changeRowBounds(i, row_lb[i], row_ub[i])
        self._row_lb[changed] = row_lb[changed]
        self._row_ub[changed] = row_ub[changed]
        if self._n:
            highs.changeColsBounds(self._n, self._cols, var_lb, var_ub)
        limit = _INF if time_limit is None else float(time_limit)
        if limit != self._time_limit:
            highs.setOptionValue("time_limit", limit)
            self._time_limit = limit
        highs.clearSolver()
        if highs.run() == core.HighsStatus.kError:
            return None
        status = highs.getModelStatus()
        info = highs.getInfo()
        fun = x = row_dual = None
        if status == core.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            fun = float(info.objective_function_value)
            x = np.array(solution.col_value)
            row_dual = np.array(solution.row_dual)
        return LPRun(
            status=_STATUS.get(status.name, SolveStatus.ERROR),
            fun=fun,
            x=x,
            row_dual=row_dual,
            iterations=max(int(info.simplex_iteration_count), 0),
            message=highs.modelStatusToString(status),
            backend="highs",
        )


def _probe():
    """The binding module when it loads, has every method and solves."""
    try:
        from scipy import sparse
        from scipy.optimize._highspy import _core as core

        if not all(hasattr(core._Highs, name) for name in _METHODS):
            return None
        # max x s.t. x <= 2, 0 <= x <= 3, loaded as min -x.
        lp = NativeLP(
            [-1.0], sparse.csr_matrix([[1.0]]), [-_INF], [2.0], [0.0], [3.0],
            core=core,
        )
        run = lp.run(np.array([-_INF]), np.array([2.0]),
                     np.array([0.0]), np.array([3.0]))
        if run is None or run.fun != -2.0 or run.row_dual is None:
            return None
    except Exception:
        return None
    return core


#: The native binding module, or ``None`` when every LP takes ``linprog``.
BINDING = _probe()
