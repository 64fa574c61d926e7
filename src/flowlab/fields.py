"""Vector fields, flow and variational-flow integration, Lipschitz estimates.

All dynamics live on an axis-aligned box in R^d with the Euclidean metric.
The flow map and its derivative are integrated jointly as one augmented ODE
so the tangent data is always consistent with the state trajectory.

Every integration of flowlab runs on one DOP853 kernel of its own,
`solve_ivp`: scipy's `solve_ivp(method="DOP853")` repeated operation for
operation, so its results are bitwise scipy's, without scipy's per-stage
wrappers.  It needs numpy alone: the tableau is `_dop853`, scipy's
coefficients written out bit for bit, and the terminal event's root comes
from `_brentq`, a line-for-line port of scipy's Brent root finder.  Its
dense output (`DenseSolution`) also evaluates a single time on Python
floats, with the same bits.  A start of shape (k, d) is a stack of k
members solved as one (`flow_states_batch`): a step is accepted on the
largest of the members' own error norms (Hairer, Norsett & Wanner,
Solving ODEs I, II.4), so every member meets the tolerance as if solved
alone, and a stack of one is bitwise the lone solve.  In this module
every solve goes through `_solve` (at `ivp_options(tol)`, with a terminal
domain event), and every state solve at signed times through
`orbit_states` on top of it, or through `DenseOrbit` where the times are
not known before the solve.  Both hand back what an orbit reached before
it left the domain, with the exit time.
`hyperbolic` calls the kernel directly for the pragmatical cocycles: one
dense state solve per evaluation (`_pragmatical_product`, shared by every
box of a product) and one direction transport per segment between box
crossings (`_pragmatical_value`).  Both report a failed solve as
`DomainError`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from . import _dop853 as _dop
from .errors import DomainError, EscapeError, StiffnessError

#: Floor applied to Lipschitz constants everywhere downstream, so the chart
#: radius 1/(10 L) stays finite for near-constant fields.
LIPSCHITZ_FLOOR = 1e-2

#: Safety factor applied on top of sampled Jacobian norms.
LIPSCHITZ_SAFETY = 1.05


def effective_lipschitz(L: float) -> float:
    return max(float(L), LIPSCHITZ_FLOOR)


def ivp_options(tol: float) -> dict:
    """Solver tolerances for a requested per-unit-time error target.

    The local tolerance is set a decade below the target so the accumulated
    error over order-one times stays within `tol` (floored at the DOP853
    working limit).
    """
    rtol = max(float(tol) * 0.1, 3e-14)
    return {"rtol": rtol, "atol": rtol * 1e-3}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("box bounds must be 1-d arrays of equal length")
        if not np.all(hi > lo):
            raise DomainError("box must have positive extent on every axis")

    @property
    def dimension(self) -> int:
        return self.lo.size

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x, slack=0.0) -> bool:
        x = np.asarray(x, dtype=float)
        pad = slack * self.diameter
        return bool(np.all(x >= self.lo - pad) and np.all(x <= self.hi + pad))

    def sample(self, rng, n):
        u = rng.random((n, self.dimension))
        return self.lo + u * (self.hi - self.lo)

    def to_json_dict(self):
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class VectorFieldSpec:
    """A named C^1 vector field on a box, with an analytic Jacobian.

    `func` accepts a single point (d,), and also a stack (n, d) when
    `vectorized` is true.  `jac` takes a single point (d,) and returns the
    (d, d) Jacobian there.
    """

    name: str
    dimension: int
    params: tuple
    domain: Box
    func: Callable = dc_field(repr=False, compare=False, default=None)
    jac: Callable = dc_field(repr=False, compare=False, default=None)
    kind: str = "custom"
    vectorized: bool = False
    analytic_jacobian: bool = True

    def __post_init__(self):
        if self.dimension < 2:
            raise DomainError("fields must live in dimension >= 2")
        if self.domain.dimension != self.dimension:
            raise DomainError("domain dimension mismatch")

    def singular_speed(self) -> float:
        """Speeds at or below this are treated as singular."""
        return 1e-12 * self.domain.diameter

    def known_singularities(self):
        """Analytic zeros for the builtin kinds (empty tuple if none known)."""
        return _known_singularities(self)

    def to_json_dict(self):
        if self.kind == "custom":
            raise DomainError("custom fields are not serializable")
        return {
            "kind": self.kind,
            "params": list(self.params),
            "domain": self.domain.to_json_dict(),
        }


def _fd_jacobian(func, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * step)
    return J


def custom_field(name, dimension, func, domain, jac=None, params=()):
    """Wrap a user-supplied field; a missing Jacobian falls back to central
    differences (lower accuracy, flagged via `analytic_jacobian`)."""
    analytic = jac is not None
    if jac is None:
        jac = lambda x: _fd_jacobian(func, x)  # noqa: E731
    return VectorFieldSpec(
        name=name, dimension=dimension, params=tuple(params), domain=domain,
        func=func, jac=jac, kind="custom", vectorized=False,
        analytic_jacobian=analytic,
    )


# ---------------------------------------------------------------------------
# builtin field kinds


def _linear_field(params, domain):
    A = np.array(params, dtype=float)
    if A.ndim == 1:
        d = int(round(np.sqrt(A.size)))
        if d * d != A.size:
            raise DomainError("linear field params must be a square matrix")
        A = A.reshape(d, d)
    d = A.shape[0]
    if domain is None:
        domain = Box(np.full(d, -100.0), np.full(d, 100.0))
    A.flags.writeable = False  # jac returns A itself: built once, read-only

    def func(x):
        return np.asarray(x, dtype=float) @ A.T

    def jac(x):
        return A

    return VectorFieldSpec("linear", d, tuple(A.ravel()), domain, func, jac,
                           kind="linear", vectorized=True)


def _rotation_field(params, domain):
    if params:
        raise DomainError("the rotation field takes no parameters")
    if domain is None:
        domain = Box(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))

    flip = np.array([-1.0, 1.0])
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    J.flags.writeable = False

    def func(x):
        return np.asarray(x, dtype=float)[..., ::-1] * flip

    def jac(x):
        return J

    return VectorFieldSpec("rotation", 2, (), domain, func, jac,
                           kind="rotation", vectorized=True)


def _lorenz_field(params, domain):
    if len(params) != 3:
        raise DomainError("lorenz requires explicit (sigma, rho, beta); no defaults")
    sigma, rho, beta = (float(p) for p in params)
    if domain is None:
        domain = Box(np.array([-30.0, -40.0, -5.0]), np.array([30.0, 40.0, 60.0]))

    # A point is unpacked to Python floats: same IEEE operations, no dispatch.
    def func(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x1, x2, x3 = x.tolist()
            return np.array([sigma * (x2 - x1), x1 * (rho - x3) - x2,
                             x1 * x2 - beta * x3])
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty(x.shape)
        out[..., 0] = sigma * (x2 - x1)
        out[..., 1] = x1 * (rho - x3) - x2
        out[..., 2] = x1 * x2 - beta * x3
        return out

    # the constant entries once; a call copies them and sets the other four
    J0 = np.array([[-sigma, sigma, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -beta]])

    def jac(x):
        x1, x2, x3 = np.asarray(x, dtype=float).tolist()
        J = J0.copy()
        J[1, 0], J[1, 2], J[2, 0], J[2, 1] = rho - x3, -x1, x2, x1
        return J

    return VectorFieldSpec("lorenz", 3, (sigma, rho, beta), domain, func, jac,
                           kind="lorenz", vectorized=True)


def _saddle_suspension_field(params, domain):
    # Planar saddle (rate a expanding, b contracting) driven at constant
    # speed omega in the third coordinate; nonsingular on any box.
    if not params:
        params = (1.0, 1.0, 1.0)
    if len(params) != 3:
        raise DomainError("saddle_suspension takes (a, b, omega)")
    a, b, omega = (float(p) for p in params)
    if omega == 0.0:
        raise DomainError("saddle_suspension needs omega != 0 to stay nonsingular")
    if domain is None:
        domain = Box(np.full(3, -10.0), np.full(3, 10.0))

    rates = np.array([a, -b, 1.0])
    J = np.diag([a, -b, 0.0])
    J.flags.writeable = False

    def func(x):
        out = np.asarray(x, dtype=float) * rates
        out[..., 2] = omega
        return out

    def jac(x):
        return J

    return VectorFieldSpec("saddle_suspension", 3, (a, b, omega), domain,
                           func, jac, kind="saddle_suspension", vectorized=True)


FIELD_KINDS = {
    "linear": _linear_field,
    "rotation": _rotation_field,
    "lorenz": _lorenz_field,
    "saddle_suspension": _saddle_suspension_field,
}


def make_field(kind, params=(), domain=None) -> VectorFieldSpec:
    if kind not in FIELD_KINDS:
        raise DomainError(
            f"unknown field kind {kind!r}; registry: {sorted(FIELD_KINDS)}")
    return FIELD_KINDS[kind](tuple(params), domain)


def field_from_json(d) -> VectorFieldSpec:
    dom = d.get("domain")
    box = Box(np.asarray(dom["lo"]), np.asarray(dom["hi"])) if dom else None
    return make_field(d["kind"], tuple(d.get("params", ())), box)


def _known_singularities(field):
    if field.kind == "linear":
        A = np.asarray(field.params, dtype=float).reshape(field.dimension, -1)
        if abs(np.linalg.det(A)) > 1e-12:
            return (np.zeros(field.dimension),)
        return ()
    if field.kind == "rotation":
        return (np.zeros(2),)
    if field.kind == "lorenz":
        sigma, rho, beta = field.params
        sings = [np.zeros(3)]
        if rho > 1.0:
            r = np.sqrt(beta * (rho - 1.0))
            sings.append(np.array([r, r, rho - 1.0]))
            sings.append(np.array([-r, -r, rho - 1.0]))
        return tuple(s for s in sings if field.domain.contains(s))
    if field.kind == "saddle_suspension":
        return ()
    return ()


# ---------------------------------------------------------------------------
# evaluation and integration


def evaluate(field: VectorFieldSpec, x):
    """Field value and Jacobian at a point of the domain."""
    x = np.asarray(x, dtype=float)
    if not field.domain.contains(x, slack=1e-12):
        raise DomainError(f"point {x.tolist()} outside domain of {field.name}")
    return np.asarray(field.func(x), dtype=float), np.asarray(field.jac(x), dtype=float)


def speed(field, x):
    return float(np.linalg.norm(field.func(np.asarray(x, dtype=float))))


def speeds(field, X):
    """Speeds of a stack of points (n, d), one norm per row."""
    if field.vectorized:
        return np.linalg.norm(np.asarray(field.func(X), dtype=float), axis=-1)
    return np.array([speed(field, s) for s in X])


def _domain_event(field):
    """The solve's terminal event: the least margin of the state (the first
    d entries) to the domain's faces."""
    lo, hi = field.domain.lo.tolist(), field.domain.hi.tolist()
    d = field.dimension

    def event(t, y):
        x = y[:d].tolist()
        return min(min(map(operator.sub, x, lo)), min(map(operator.sub, hi, x)))

    return event


#: Slack of a batch's range check, in domain diameters.
_BATCH_SLACK = 1e-9


def _batch_domain_event(field):
    """The terminal event of stacked orbits: the least margin of any of
    them to the domain padded by `_BATCH_SLACK`."""
    pad = _BATCH_SLACK * field.domain.diameter
    lo, hi = field.domain.lo - pad, field.domain.hi + pad
    d = field.dimension

    def event(t, y):
        Y = y.reshape(-1, d)
        return min(float(np.min(Y - lo)), float(np.min(hi - Y)))

    return event


def _batch_margins(field, Y):
    """The least margin of each stacked state (..., d) to the domain padded
    by `_BATCH_SLACK`: negative, or NaN, outside it."""
    pad = _BATCH_SLACK * field.domain.diameter
    lo, hi = field.domain.lo - pad, field.domain.hi + pad
    return np.minimum(Y - lo, hi - Y).min(axis=-1)


def _augmented_rhs(field):
    """The right-hand side of the state with its variational matrix, y =
    (x, Phi row by row): (X(x), DX(x) Phi), written into one new buffer."""
    d = field.dimension

    def rhs(t, y):
        x = y[:d]
        out = np.empty((d + 1, d))
        out[0] = field.func(x)
        np.matmul(field.jac(x), y[d:].reshape(d, d), out=out[1:])
        return out.ravel()

    return rhs


# ---------------------------------------------------------------------------
# the DOP853 kernel (Hairer, Norsett & Wanner, Solving ODEs I, II.10)

_N = _dop.N_STAGES
#: (row of K, stage coefficients, node) of the stages after the first, and
#: of the three extra stages of the dense output; the coefficient rows are
#: bitwise the arrays that scipy's DOP853 passes to `np.dot` (`_dop853`).
_STAGES = tuple((s, _dop.A[s, :s], float(_dop.C[s])) for s in range(1, _N))
_EXTRA = tuple((s, _dop.A[s, :s], float(_dop.C[s]))
               for s in range(_N + 1, _dop.N_STAGES_EXTENDED))
_EPS = float(np.finfo(float).eps)
_MESSAGES = {0: "The solver successfully reached the end of the "
                "integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


@dataclass(frozen=True)
class IvpResult:
    """What `solve_ivp` returns: output times and states (n, m), the dense
    solution (or None), the terminal event's root list and the states
    there (or None), status 0 (end reached), 1 (event) or -1 (step
    underflow), and the number of right-hand-side evaluations."""

    t: np.ndarray
    y: np.ndarray
    sol: Optional["DenseSolution"]
    t_events: Optional[list]
    y_events: Optional[list]
    status: int
    message: str
    nfev: int


def _rms(x, m):
    """The RMS norm of x per member of m entries: the largest member's
    (NaN ranks highest), computed as for a lone member."""
    if m < x.size:
        X = x.reshape(-1, m)
        x = X[np.argmax(np.einsum("ij,ij->i", X, X))]
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(err5, err3, h, m):
    """scipy's DOP853 error norm per member of m entries: the largest
    member's, computed as scipy computes one solve's."""
    if m < err5.size:  # rank the members by e5 / sqrt(e5 + 0.01 e3)
        E5, E3 = err5.reshape(-1, m), err3.reshape(-1, m)
        s5 = np.einsum("ij,ij->i", E5, E5)
        s3 = np.einsum("ij,ij->i", E3, E3)
        rank = np.divide(s5, np.sqrt(s5 + 0.01 * s3), out=np.zeros_like(s5),
                         where=s5 != 0)
        worst = np.argmax(rank)
        err5, err3 = E5[worst], E3[worst]
    # np.linalg.norm(err)**2, as scipy squares it
    e5, e3 = np.sqrt(err5.dot(err5)) ** 2, np.sqrt(err3.dot(err3)) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    return abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * m)


def _initial_step(fun, t0, y0, tf, f0, direction, rtol, atol, m):
    """The first step size (Hairer et al., II.4), for error order 7, with
    the RMS norm per member of m entries."""
    span = abs(tf - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale, m), _rms(f0 / scale, m)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale, m) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, span))


#: Iteration cap of the terminal event's root finder (scipy's `maxiter`).
_BRENT_ITER = 100


def _brentq(f, a, b, xtol, rtol):
    """A root of f in [a, b], f(a) and f(b) of opposite signs, by Brent's
    method (Algorithms for Minimization without Derivatives, 1973): scipy's
    `brentq.c` line for line, the same float operations in the same order,
    so the root is bitwise scipy's `brentq`.  Raises as scipy does: a
    ValueError for a bracket of one sign or a NaN value, a RuntimeError when
    `_BRENT_ITER` iterations do not converge."""

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis  # bisect: the trial step is too long
        else:
            spre = scur = sbis  # bisect: the last step did too little
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations.")


def _interp(F, y_old, x):
    """DOP853 dense output (m, n) at step fractions x (m,); F holds the
    coefficients (7, n) of one step, or of each point's step (m, 7, n)."""
    x = x[:, None]
    y = np.zeros((x.shape[0], F.shape[-1]))
    for i in range(7):
        y += F[..., 6 - i, :]
        y *= x if i % 2 == 0 else 1 - x
    y += y_old
    return y


class DenseSolution:
    """The piecewise interpolant of a dense solve: step i covers
    [ts[i], ts[i+1]], and a time outside [ts[0], ts[-1]] is extrapolated
    from the nearest step.  A stack of times is evaluated in one pass; a
    single time on Python floats, with the same operations."""

    def __init__(self, ts, steps):
        self.ts = np.array(ts, dtype=float)
        self._ascending = ts[-1] >= ts[0]
        self._sorted = self.ts if self._ascending else self.ts[::-1]
        self._side = "left" if self._ascending else "right"
        self._find = bisect_left if self._ascending else bisect_right
        self._sorted_list = self._sorted.tolist()
        self._t_old, self._h, self._y_old, self._F = (
            np.array(v) for v in zip(*steps))
        self._rows = {}

    def __call__(self, t):
        """States (n,) at a time, or (n, m) at times (m,)."""
        if np.ndim(t) == 0:
            return self._at(float(t))
        t = np.asarray(t, dtype=float)
        last = self._h.size - 1
        seg = np.clip(np.searchsorted(self._sorted, t, self._side) - 1, 0,
                      last)
        seg = seg if self._ascending else last - seg
        x = (t - self._t_old[seg]) / self._h[seg]
        return _interp(self._F[seg], self._y_old[seg], x).T

    def _at(self, t):
        last = self._h.size - 1
        i = min(max(self._find(self._sorted_list, t) - 1, 0), last)
        i = i if self._ascending else last - i
        if i not in self._rows:  # per coordinate: F[6], ..., F[0], y_old
            self._rows[i] = (float(self._t_old[i]), float(self._h[i]), list(
                zip(*self._F[i, ::-1].tolist(), self._y_old[i].tolist())))
        t_old, h, rows = self._rows[i]
        x = (t - t_old) / h
        x1 = 1 - x
        # _interp's operations, in its order
        return np.array([
            ((((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x
               + f1) * x1 + f0) * x + y0)
            for f6, f5, f4, f3, f2, f1, f0, y0 in rows])


def solve_ivp(fun, t_span, y0, rtol, atol, t_eval=None, events=None,
              dense_output=False):
    """One DOP853 solve of y' = fun(t, y) over t_span: scipy's
    `solve_ivp(method="DOP853")`, operation for operation, so the results
    are bitwise scipy's, without its per-stage wrappers.

    Keeps scipy's step controller (safety 0.9, step factors in [0.2, 10],
    error exponent -1/8) and its `t_eval` and `nfev` accounting.  `events`
    is one terminal event function or None; its root is found by
    `_brentq`, scipy's `brentq` at xtol = rtol = 4 EPS, on the step's dense
    output.

    A start y0 of shape (k, d) is k members, flattened to k*d entries for
    `fun` and the output: the first step and every step acceptance take,
    in place of scipy's norm over all entries, the largest of the members'
    norms, each computed as scipy's for a lone member.  A 1-D start is
    one member: scipy's arithmetic, bit for bit.
    """
    t0, tf = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    n = y.size
    m = y.shape[-1] if y.ndim == 2 else n  # the entries of one member
    y = y.reshape(n)
    K = np.empty((_dop.N_STAGES_EXTENDED, n))
    K[_N] = fun(t0, y)  # K[_N] holds the derivative at the step's end
    if tf == t0:  # no step: the solution is its start
        t_out = np.array([t0, t0] if t_eval is None else t_eval, dtype=float)
        no_root = (None, None) if events is None else (
            [np.empty(0)], [np.empty((0, n))])
        return IvpResult(t_out, np.repeat(y[:, None], t_out.size, axis=1),
                         None, *no_root, 0, _MESSAGES[0], 1)
    direction = 1.0 if tf > t0 else -1.0
    stages = [(s, K[:s].T, a, c) for s, a, c in _STAGES]
    extra = [(s, K[:s].T, a, c) for s, a, c in _EXTRA]
    KB, KE = K[:_N].T, K[:_N + 1].T
    h_abs = _initial_step(fun, t0, y, tf, K[_N], direction, rtol, atol, m)
    nfev = 2

    def dense(t_old, y_old, y_new, h):
        """The step's interpolant coefficients (7, n): three more stages."""
        nonlocal nfev
        for s, KT, a, c in extra:
            K[s] = fun(t_old + c * h, y_old + KT.dot(a) * h)
        nfev += 3
        F = np.empty((7, n))
        delta = y_new - y_old
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[_N] + K[0])
        F[3:] = h * np.dot(_dop.D, K)
        return F

    ts, ys, seg_ts, steps, roots = [], [], [t0], [], []
    if t_eval is None:
        ts, ys = [t0], [y]
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if direction < 0:
            t_eval = t_eval[::-1]
        grid = t_eval.tolist()
        i_eval = 0 if direction > 0 else len(grid)
    g = None if events is None else events(t0, y)
    t, status = t0, None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        K[0] = K[_N]
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            for s, KT, a, c in stages:
                K[s] = fun(t + c * h, y + KT.dot(a) * h)
            y_new = y + h * KB.dot(_dop.B)
            K[_N] = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(KE.dot(_dop.E5) / scale,
                                     KE.dot(_dop.E3) / scale, h, m)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(
                    10, 0.9 * error_norm ** (-1 / 8))
                h_abs *= float(min(1, factor) if rejected else factor)
                break
            h_abs *= float(max(0.2, 0.9 * error_norm ** (-1 / 8)))
            rejected = True
        if status == -1:
            break
        t_old, y_old, t, y = t, y, t_new, y_new
        if direction * (t - tf) >= 0:
            status = 0
        F = dense(t_old, y_old, y_new, h) if dense_output else None
        if events is not None:
            g_new = events(t, y)
            if g <= 0 <= g_new or g >= 0 >= g_new:
                if F is None:
                    F = dense(t_old, y_old, y_new, h)

                def at(s):
                    return _interp(F, y_old, np.array([(s - t_old) / h]))[0]

                root = _brentq(lambda s: events(s, at(s)), t_old, t,
                               4 * _EPS, 4 * _EPS)
                status, t, y = 1, root, at(root)
                roots.append((root, y))
            g = g_new
        if t_eval is None:
            if dense_output and len(ts) > 1 and ts[-1] == t:
                continue  # an event root at the step's start: no segment
            ts.append(t)
            ys.append(y)
        else:
            if direction > 0:
                j = bisect_right(grid, t)
                frames = t_eval[i_eval:j]
            else:
                j = bisect_left(grid, t)
                frames = t_eval[j:i_eval][::-1]
            if frames.size:
                if F is None:
                    F = dense(t_old, y_old, y_new, h)
                ts.append(frames)
                ys.append(_interp(F, y_old, (frames - t_old) / h).T)
                i_eval = j
        if dense_output:
            steps.append((t_old, h, y_old, F))
            seg_ts.append(t)
    if t_eval is None:
        t_out, y_out = np.array(ts), np.vstack(ys).T
    elif ts:
        t_out, y_out = np.hstack(ts), np.hstack(ys)
    else:
        t_out, y_out = np.empty(0), np.empty((n, 0))
    t_ev = y_ev = None
    if events is not None:
        t_ev = [np.array([r for r, _ in roots])]
        y_ev = [np.array([s for _, s in roots]).reshape(-1, n)]
    return IvpResult(t_out, y_out,
                     DenseSolution(seg_ts, steps) if steps else None,
                     t_ev, y_ev, status, _MESSAGES[status], nfev)


def _solve(rhs, y0, t, tol, what, event, t_eval=None, dense=False):
    """The integration kernel: one DOP853 solve over [0, t].

    Returns (solution, exit time).  The terminal event ends the solve at its
    time, and the solution holds what was reached before it: the `t_eval`
    states up to the exit, or with `dense` the step interpolants up to it.
    The exit time is None when the solve reaches t; any other solver
    failure raises StiffnessError.
    """
    sol = solve_ivp(rhs, (0.0, t), y0, **ivp_options(tol), t_eval=t_eval,
                    events=event, dense_output=dense)
    if sol.status == 1:
        return sol, float(sol.t_events[0][0])
    if sol.status != 0:
        raise StiffnessError(f"integrator failed during {what}: {sol.message}")
    return sol, None


def _check_exit(what, exit_time):
    """EscapeError, with the exit time, if a solve left the domain."""
    if exit_time is not None:
        raise EscapeError(f"orbit left the domain during {what}",
                          exit_time=exit_time)


def _check_start(field, x):
    """DomainError unless x lies in the domain (up to 1e-12 diameters).

    The domain event only sees a sign change, so an orbit that starts
    outside and stays there would never be flagged by it."""
    if not field.domain.contains(x, slack=1e-12):
        raise DomainError(f"initial point {x.tolist()} outside domain")


def flow(field: VectorFieldSpec, x, t: float, tol: float = 1e-9):
    """Flow a point for time t; returns (state, variational matrix).

    The state and the variational equation are integrated jointly; the local
    error target is `tol` (relative, with a small absolute floor). Orbits
    leaving the domain raise EscapeError with the exit time.
    """
    x = np.asarray(x, dtype=float)
    d = field.dimension
    _check_start(field, x)
    if t == 0.0:
        return x.copy(), np.eye(d)
    y0 = np.concatenate([x, np.eye(d).ravel()])
    what = f"flow of {field.name} to t={t}"
    sol, exit_time = _solve(_augmented_rhs(field), y0, t, tol, what,
                            _domain_event(field))
    _check_exit(what, exit_time)
    y = sol.y[:, -1]
    return y[:d], y[d:].reshape(d, d)


def orbit_states(field, x, times, tol=1e-9):
    """(states, exit time) of the orbit of x at (possibly signed) times.

    One integration per sign, backward first; results are in the input
    order, and a repeated time repeats its state.  If the orbit leaves the
    domain, the states reached before that are kept, the rows of the times
    past the exit (and of a sign not yet solved) are NaN, and the exit time
    is returned; it is None when every time is reached.  A start outside
    the domain raises DomainError, as in `flow`.
    """
    rhs = lambda t, y: field.func(y)  # noqa: E731
    x = np.asarray(x, dtype=float)
    what = f"orbit sampling of {field.name}"
    _check_start(field, x)
    ts, inv = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    out = np.full((ts.size, x.size), np.nan)
    out[ts == 0] = x
    exit_time = None
    for back in (True, False):
        rows = np.flatnonzero(ts < 0 if back else ts > 0)
        if not rows.size:
            continue
        rows = rows[::-1] if back else rows
        sol, exit_time = _solve(rhs, x, float(ts[rows[-1]]), tol, what,
                                _domain_event(field), t_eval=ts[rows])
        out[rows[:sol.t.size]] = sol.y.T
        if exit_time is not None:
            break
    return out[inv], exit_time


def flow_points(field, x, times, tol=1e-9):
    """States of the orbit of x at a collection of (possibly signed) times.

    `orbit_states` that raises EscapeError, with the exit time, when the
    orbit leaves the domain before the last of the times.
    """
    states, exit_time = orbit_states(field, x, times, tol)
    _check_exit(f"orbit sampling of {field.name}", exit_time)
    return states


class DenseOrbit:
    """The orbit of x on a time span [lo, hi] that contains 0.

    One dense kernel solve per time sign, with the domain event on, made
    when a call first needs that sign (backward first); its states come
    from the solve's `DenseSolution` in one stacked evaluation per call.
    A solve that leaves the domain stops at its exit time, and the orbit
    reaches only the times strictly before it.  A state is bitwise the
    `flow_points` one at its time, unless that time lies in the last step
    of the shorter `flow_points` solve.  A start outside the domain raises
    DomainError, as in `flow`.
    """

    def __init__(self, field, x, span, tol):
        self.field = field
        self.x = np.asarray(x, dtype=float)
        _check_start(field, self.x)
        self.span = (min(float(span[0]), 0.0), max(float(span[1]), 0.0))
        self.tol = tol
        self._halves = {}

    def _half(self, sign):
        """(interpolant, exit time or None) of one time sign."""
        if sign not in self._halves:
            sol, exit_time = _solve(
                lambda t, y: self.field.func(y), self.x,
                self.span[sign > 0], self.tol,
                f"dense orbit of {self.field.name}",
                _domain_event(self.field), dense=True)
            self._halves[sign] = (sol.sol, exit_time)
        return self._halves[sign]

    def reaches(self, times):
        """Whether the orbit reaches every one of the times; a time outside
        the span is not reached."""
        t = np.asarray(times, dtype=float)
        for sign in (-1.0, 1.0):
            far = (sign * t).max(initial=0.0)
            if far == 0.0:
                continue
            if far > sign * self.span[sign > 0]:
                return False
            exit_time = self._half(sign)[1]
            if exit_time is not None and far >= sign * exit_time:
                return False
        return True

    def __call__(self, times):
        """States (n, d) at times that the orbit reaches, in input order."""
        t = np.asarray(times, dtype=float)
        if not self.reaches(t):
            raise DomainError("a time lies outside the reached span")
        out = np.empty((t.size, self.x.size))
        out[t == 0] = self.x
        for sign in (-1.0, 1.0):
            side = sign * t > 0
            if np.any(side):
                out[side] = self._half(sign)[0](t[side]).T
        return out


def flow_states_batch(field, points, t, tol=1e-9, t_eval=None):
    """Integrate a stack of initial states (k, d) over the same time span.

    One kernel solve with the k states as its members: a step is accepted
    only if every member's own error norm passes, so each orbit is held to
    `tol` as if solved alone, and a stack of one is bitwise `flow_points`
    at the same frames.  Every accepted step and every returned frame (the
    final states, or each frame at `t_eval`) is range-checked against the
    domain padded by `_BATCH_SLACK`; a member that leaves it raises
    EscapeError with its row in the stack, and with the exit time when a
    step end found it.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, d = points.shape

    if field.vectorized:
        def rhs(s, y):
            return np.asarray(field.func(y.reshape(k, d)), dtype=float).ravel()
    else:
        def rhs(s, y):
            Y = y.reshape(k, d)
            return np.stack([np.asarray(field.func(row), dtype=float)
                             for row in Y]).ravel()

    tev = None if t_eval is None else np.asarray(t_eval, dtype=float)
    what = "batched orbit integration"
    sol, exit_time = _solve(rhs, points, float(t), tol, what,
                            _batch_domain_event(field), t_eval=tev)
    if exit_time is not None:  # the member nearest the padded faces left
        exit_states = sol.y_events[0][0].reshape(k, d)
        row = np.argmin(_batch_margins(field, exit_states))
        raise EscapeError(f"orbit left the domain during {what}",
                          exit_time=exit_time, row=int(row))
    states = sol.y.T.reshape(-1, k, d)
    if t_eval is None:
        states = states[-1]
    if not field.domain.contains(states, slack=_BATCH_SLACK):
        outside = ~(_batch_margins(field, states) >= 0).reshape(-1, k)
        row = np.flatnonzero(outside.any(axis=0))[0]
        raise EscapeError("a batched orbit left the domain", row=int(row))
    return states


# ---------------------------------------------------------------------------
# orbit segments


@dataclass(frozen=True)
class OrbitSegment:
    """Time grid, states and speeds of one orbit."""

    base: np.ndarray
    times: np.ndarray
    states: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
            raise DomainError("orbit times must be strictly increasing")

    @property
    def n_nodes(self):
        return self.times.size

    def step(self):
        dt = np.diff(self.times)
        if dt.size and np.max(np.abs(dt - dt[0])) > 1e-9 * max(1.0, abs(dt[0])):
            raise DomainError("orbit grid is not uniform")
        return float(dt[0]) if dt.size else 0.0

    def slice(self, lo, hi):
        """Sub-segment on node indices [lo, hi) (base point unchanged)."""
        return OrbitSegment(base=self.base, times=self.times[lo:hi],
                            states=self.states[lo:hi], speeds=self.speeds[lo:hi])


def sample_orbit(field, x, times, tol=1e-9) -> OrbitSegment:
    """Integrate one orbit and record its states and speeds at the times."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    states = flow_points(field, x, times, tol)
    return OrbitSegment(base=x, times=times, states=states,
                        speeds=speeds(field, states))


# ---------------------------------------------------------------------------
# Lipschitz estimation and point sampling


def estimate_lipschitz(field, region: Box, samples: int, seed: int = 0) -> float:
    """Sampled sup of the Jacobian operator norm times a 1.05 safety factor."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if not isinstance(region, Box):
        region = Box(np.asarray(region[0]), np.asarray(region[1]))
    rng = np.random.default_rng(seed)
    pts = region.sample(rng, samples)
    Js = np.array([np.asarray(field.jac(p), dtype=float) for p in pts])
    # NaN-blind fold, like the builtin max over samples from 0.0
    worst = max(0.0, float(np.fmax.reduce(np.linalg.norm(Js, 2, axis=(1, 2)))))
    return LIPSCHITZ_SAFETY * worst


def sample_regular_points(field, box: Box, n, seed=0, burn=0.0, tol=1e-9):
    """Deterministically sample points of the box with non-tiny speed.

    With burn > 0 each seed point is flowed forward first (useful for landing
    near an attractor); candidates that escape or whose speed is at most
    1e3 times the field's singular speed are discarded.
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < n and attempts < 200 * n:
        attempts += 1
        x = box.sample(rng, 1)[0]
        try:
            if burn > 0.0:
                x = flow_points(field, x, [burn], tol)[0]
        except (DomainError, EscapeError, StiffnessError):
            continue
        if not field.domain.contains(x):
            continue
        if speed(field, x) <= 1e3 * field.singular_speed():
            continue
        out.append(x)
    if len(out) < n:
        raise DomainError("could not sample enough regular points")
    return np.array(out)
