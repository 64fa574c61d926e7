"""Linear and sectional Poincare maps on normal sections.

The linear Poincare flow pushes a normal vector with the variational flow
and projects it orthogonally back onto the normal space at the image point.
The sectional Poincare map is the nonlinear holonomy between normal
sections, realized through the flowbox chart at the image point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RadiusError, SingularityError
from .fields import effective_lipschitz, flow, flow_points, speed
from .flowbox import FlowboxChart, chart_radius, flowbox_invert, make_chart
from .util import orthonormal_complement, orthonormalize, unit


@dataclass(frozen=True)
class NormalFrame:
    """Orthonormal basis of the hyperplane perpendicular to a unit direction."""

    point: np.ndarray
    direction: np.ndarray
    basis: np.ndarray  # (d, d-1)


def frame_at(field, x) -> NormalFrame:
    """Canonical frame at a regular point (direction = flow direction)."""
    x = np.asarray(x, dtype=float)
    if speed(field, x) <= field.singular_speed():
        raise SingularityError(f"{x.tolist()} is singular")
    e = unit(np.asarray(field.func(x), dtype=float))
    return NormalFrame(point=x, direction=e, basis=orthonormal_complement(e))


@dataclass(frozen=True)
class NormalMap:
    """A linear map between two normal spaces, in the two frame bases."""

    source: NormalFrame
    target: NormalFrame
    matrix: np.ndarray  # (d-1, d-1)

    def compose(self, first: "NormalMap") -> "NormalMap":
        """self o first; frames at the junction are aligned automatically."""
        R = self.source.basis.T @ first.target.basis
        return NormalMap(source=first.source, target=self.target,
                         matrix=self.matrix @ R @ first.matrix)

    def in_frames(self, source: NormalFrame, target: NormalFrame) -> np.ndarray:
        """Matrix of the same map re-expressed in other frames."""
        Rs = self.source.basis.T @ source.basis
        Rt = target.basis.T @ self.target.basis
        return Rt @ self.matrix @ Rs

    def ambient_operator(self) -> np.ndarray:
        """The map as a (d, d) matrix acting on ambient normal vectors."""
        return self.target.basis @ self.matrix @ self.source.basis.T


def _transport_basis(basis, Phi, e_target):
    """Push a normal basis with Phi, project off e_target, re-orthonormalize.

    The second projection pass removes the flow-direction residue that QR
    amplifies when the projected map is nearly singular.
    """
    moved = Phi @ basis
    moved = moved - np.outer(e_target, e_target @ moved)
    Q = orthonormalize(moved)
    Q = Q - np.outer(e_target, e_target @ Q)
    return orthonormalize(Q)


def linear_poincare(field, x, t, tol=1e-9) -> NormalMap:
    """Orthogonal projection of the variational flow between normal spaces."""
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        src = frame_at(field, x)
        return NormalMap(source=src, target=src,
                         matrix=np.eye(field.dimension - 1))
    return linear_poincare_from_flow(field, x, t, *flow(field, x, t, tol))


def linear_poincare_from_flow(field, x, t, state, Phi) -> NormalMap:
    """`linear_poincare(field, x, t, tol)` from its flow: `(state, Phi)` is
    `flow(field, x, t, tol)`, with t != 0."""
    src = frame_at(field, x)
    if speed(field, state) <= field.singular_speed():
        raise SingularityError(f"endpoint of flow at t={t} is singular", time=t)
    e1 = unit(np.asarray(field.func(state), dtype=float))
    basis1 = _transport_basis(src.basis, Phi, e1)
    tgt = NormalFrame(point=state, direction=e1, basis=basis1)
    # basis1 is already perpendicular to e1, so basis1^T Phi is the projected map
    return NormalMap(source=src, target=tgt, matrix=basis1.T @ Phi @ src.basis)


def psi_ambient(field, x, t, tol=1e-9):
    """Ambient (d x d) matrix acting as the linear Poincare flow on N_x.

    Returns (matrix, endpoint state).  The matrix annihilates nothing useful
    on the flow line; restrict it to normal vectors.
    """
    state, Phi = flow(field, np.asarray(x, dtype=float), t, tol)
    return psi_from_flow(field, state, Phi), state


def psi_from_flow(field, state, Phi):
    """The `psi_ambient` matrix of a flow that ends at `state` with
    variational matrix Phi."""
    e1 = unit(np.asarray(field.func(state), dtype=float))
    return Phi - np.outer(e1, e1 @ Phi)


def section_radius(t, L) -> float:
    """Admissible relative radius of the time-t sectional map."""
    Leff = effective_lipschitz(L)
    return np.exp(-2.0 * Leff * abs(t)) * chart_radius(L) / 3.0


@dataclass(frozen=True)
class SectionalMap:
    """Value and derivative of a sectional Poincare map at one normal vector."""

    value: np.ndarray            # ambient vector in the target normal space
    derivative: np.ndarray       # (d-1, d-1) in the chart frames
    source: NormalFrame
    target: NormalFrame
    time_offset: float           # chart time coordinate of the landing point


def target_chart(field, x, T, L, tol=1e-9) -> FlowboxChart:
    """Flowbox chart at the time-T image of x, where the sectional map lands.

    It depends only on (x, T, L), so a caller that evaluates the sectional
    map from one base point many times builds it once and passes it to
    every `sectional_value` call.  Its base is the state-only landing of
    w = 0, bit for bit, so the sectional value at 0 is exactly 0; the
    endpoint of a variational flow of x (e.g.
    `linear_poincare(field, x, T, tol).target.point`) may differ from it
    in the last digits and does not give this chart.
    """
    return make_chart(field, _flow_state(field, x, T, tol), L)


def _check_normal(field, x, w):
    """Raise unless x is a regular point and w a normal vector at x."""
    if speed(field, x) <= field.singular_speed():
        raise SingularityError("sectional map requires a regular base point")
    e = unit(np.asarray(field.func(x), dtype=float))
    nw = np.linalg.norm(w)
    if nw > 0 and abs(np.dot(w, e)) > 1e-9 * nw:
        raise RadiusError("v is not a normal vector at x")


def _flow_state(field, x, T, tol):
    """The time-T image of x, by a state-only flow (no tangent data)."""
    return flow_points(field, np.asarray(x, dtype=float), [T], tol)[0]


def _land(field, x, T, w, chart1, tol):
    """Chart coordinates (v, s) on chart1 of the time-T image of x + w.

    One state-only flow and one chart inversion; at w = 0 the image is the
    base of `target_chart(field, x, T, L, tol)` bit for bit."""
    return flowbox_invert(chart1, _flow_state(field, x + w, T, tol), tol=tol)


def sectional_value(field, x, T, w, chart1, tol=1e-9):
    """Value of the sectional map at the normal vector w: one landing, a
    state-only flow of x + w for T inverted on chart1.

    `chart1` is `target_chart(field, x, T, L, tol)`, so the value at w = 0
    is exactly 0.  Returns (v, s), the ambient normal vector at the image
    point and the chart time of the landing, equal to
    `sectional_poincare(...)`'s `value` and `time_offset`.
    Raises SingularityError at a singular x and RadiusError when w is not
    normal at x; |w| is not bounded (as with `max_radius=np.inf`).
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    _check_normal(field, x, w)
    return _land(field, x, T, w, chart1, tol)


def sectional_poincare(field, x, T, v, L, tol=1e-9,
                       max_radius=None) -> SectionalMap:
    """Holonomy from the normal section at x to the one at the time-T image.

    `v` must be an ambient normal vector at x with |v| within the admissible
    radius (`section_radius(T, L) * |X(x)|` by default; pass `max_radius` to
    work beyond the guaranteed radius).  The derivative is computed by
    central differences over the chart frame with step 1e-4 * |X(x)|.  The
    value and the 2(d-1) difference landings share one target chart;
    callers that need only the value use `target_chart` once per base point
    and `sectional_value` per vector.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    sx = speed(field, x)
    if sx <= field.singular_speed():
        raise SingularityError("sectional map requires a regular base point")
    radius = (section_radius(T, L) * sx) if max_radius is None else float(max_radius)
    if np.linalg.norm(v) > radius * (1.0 + 1e-9):
        raise RadiusError(
            f"|v|={np.linalg.norm(v):.3e} exceeds the section radius {radius:.3e}")
    _check_normal(field, x, v)

    chart1 = target_chart(field, x, T, L, tol)
    value, s0 = _land(field, x, T, v, chart1, tol)

    src = frame_at(field, x)
    tgt = NormalFrame(point=chart1.base, direction=chart1.flow_dir,
                      basis=chart1.frame)
    h = 1e-4 * sx
    d = field.dimension
    D = np.empty((d - 1, d - 1))
    for k in range(d - 1):
        step = h * src.basis[:, k]
        wp, _ = _land(field, x, T, v + step, chart1, tol)
        wm, _ = _land(field, x, T, v - step, chart1, tol)
        D[:, k] = chart1.frame.T @ (wp - wm) / (2.0 * h)
    return SectionalMap(value=value, derivative=D, source=src, target=tgt,
                        time_offset=s0)
