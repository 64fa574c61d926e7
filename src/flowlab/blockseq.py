"""Sequence-space contraction solver over split Euclidean blocks.

The object is a finite window of blocks E_i = Delta^s_i + Delta^u_i with
block-diagonal hyperbolic linear parts (stable maps of norm <= eta,
unstable maps with inverse norm <= eta) and Lipschitz perturbations.  The
operator (I - L) is inverted with split boundary rows: forward substitution
on stable components (stable data prescribed at the left end), backward
substitution on unstable components (unstable data prescribed at the right
end).  That inverse is exact for the row convention and its norm is bounded
by (1 + eta) / (alpha (1 - eta)), which makes v -> (I-L)^{-1} phi(v) a
contraction whenever kappa = (1 + eta) xi / (alpha (1 - eta)) < 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from .errors import DivergenceError, DomainError, NoCertificateError
from .hyperbolic import RebalanceResult, rebalance_sequence
from .poincare import (linear_poincare_from_flow, psi_from_flow,
                       section_radius, sectional_value, target_chart)
from .util import (mininorm, opnorm, orthonormalize, random_normal,
                   write_csv)


def angle(S, U) -> float:
    """Splitting angle: inf of |u - v| over pairs with one factor unit.

    Computed from the largest singular value of the cross-projection of the
    orthonormalized bases; this equals the sine of the minimal principal
    angle, which is the value of the symmetrized infimum.  Subspaces within
    1e-12 of meeting have angle 0.
    """
    S = orthonormalize(np.atleast_2d(np.asarray(S, dtype=float)))
    U = orthonormalize(np.atleast_2d(np.asarray(U, dtype=float)))
    if S.shape[1] == 0 or U.shape[1] == 0:
        raise DomainError("angle needs nontrivial subspaces")
    sv = np.linalg.svd(S.T @ U, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    if top >= 1.0 - 1e-12:
        return 0.0
    return float(np.sqrt(max(0.0, 1.0 - top * top)))


@dataclass
class BlockSequenceSystem:
    """Finite window of split blocks with hyperbolic linear parts.

    Blocks are indexed i_start .. i_start + n - 1; maps (A_j, D_j, phi_j)
    send block j to block j+1 (n-1 of each).  `phis` may be None for a
    purely linear system.
    """

    i_start: int
    bases_s: List[np.ndarray]      # per block (d_i, s_i), orthonormal columns
    bases_u: List[np.ndarray]
    A: List[np.ndarray]            # stable-coordinate maps to the next block
    D: List[np.ndarray]
    eta: float
    alpha: float
    xi: float
    phis: Optional[List[Callable]] = None
    _pinv_cache: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def n_blocks(self):
        return len(self.bases_s)

    def block_dim(self, j):
        return self.bases_s[j].shape[0]

    def mixing(self, j):
        return np.column_stack([self.bases_s[j], self.bases_u[j]])

    def mixing_pinv(self, j):
        if j not in self._pinv_cache:
            self._pinv_cache[j] = np.linalg.pinv(self.mixing(j))
        return self._pinv_cache[j]

    def split(self, j, v):
        """Block vector -> (stable coords, unstable coords).

        Blocks may be ambient d-vectors spanning only the splitting (flow
        systems); the pseudo-inverse projects along the splitting.
        """
        s = self.bases_s[j].shape[1]
        coords = self.mixing_pinv(j) @ np.asarray(v, dtype=float)
        return coords[:s], coords[s:]

    def unsplit(self, j, a, b):
        return self.bases_s[j] @ a + self.bases_u[j] @ b

    def sup_norm(self, seq):
        return max(float(np.linalg.norm(v)) for v in seq)

    def zero(self):
        return [np.zeros(self.block_dim(j)) for j in range(self.n_blocks)]

    def apply_phi(self, v):
        """Perturbation image per block (slot j+1 holds phi_j(v_j))."""
        out = self.zero()
        if self.phis is not None:
            for j in range(self.n_blocks - 1):
                out[j + 1] = np.asarray(self.phis[j](v[j]), dtype=float)
        return out


def contraction_bound(system: BlockSequenceSystem) -> float:
    """kappa = (1 + eta) xi / (alpha (1 - eta)); < 1 certifies contraction."""
    return (1.0 + system.eta) * system.xi / (system.alpha * (1.0 - system.eta))


# ---------------------------------------------------------------------------
# the hyperbolic operator and its inverse


def solve_hyperbolic_operator(system, rows_s, rows_u):
    """Inverse of (I - L) in row form with split boundary rows; returns
    ambient block vectors.

    Stable rows at block j >= lo+1 read  s_j - A_{j-1} s_{j-1}; the stable
    row at the left end reads s_lo.  Unstable rows at j <= hi-1 read
    u_{j+1} - D_j u_j (anchored at the source block); the unstable row at
    the right end reads u_hi.
    """
    n = system.n_blocks
    a = [None] * n
    b = [None] * n
    a[0] = rows_s[0].copy()
    for j in range(1, n):
        a[j] = rows_s[j] + system.A[j - 1] @ a[j - 1]
    b[n - 1] = rows_u[n - 1].copy()
    for j in range(n - 2, -1, -1):
        b[j] = np.linalg.solve(system.D[j], b[j + 1] - rows_u[j])
    return [system.unsplit(j, a[j], b[j]) for j in range(n)]


def _rows_from_block_seq(system, w):
    """Blockwise data (slot j holds the j-th block value) -> operator rows."""
    n = system.n_blocks
    coords = [system.split(j, w[j]) for j in range(n)]
    rows_s = [coords[j][0] for j in range(n)]
    rows_u = [coords[j + 1][1] for j in range(n - 1)] + \
        [np.zeros(system.bases_u[n - 1].shape[1])]
    return rows_s, rows_u


def solve_linear_part(system, w):
    """(I - L)^{-1} w for blockwise data w with zero boundary conditions."""
    rows_s, rows_u = _rows_from_block_seq(system, w)
    return solve_hyperbolic_operator(system, rows_s, rows_u)


# ---------------------------------------------------------------------------
# fixed-point iteration


@dataclass
class FixedPointResult:
    sequence: list
    iterations: int
    converged: bool
    max_factor: float
    final_norm: float
    trace: list  # rows (iter, step_norm, factor)

    def trace_to_csv(self, path):
        write_csv(path, ["iter", "norm", "factor"], self.trace)


def solve_fixed_point(system: BlockSequenceSystem, initial,
                      tol=1e-12) -> FixedPointResult:
    """Iterate v <- (I - L)^{-1} phi(v) until within tol of the fixed point,
    for at most 2000 iterations.

    With phi(0) = 0 the unique fixed point is 0.  Raises NoCertificateError
    when kappa >= 1 and DivergenceError when the step norms grow over five
    consecutive iterations.
    """
    kappa = contraction_bound(system)
    if kappa >= 1.0:
        raise NoCertificateError(f"kappa = {kappa:.4f} >= 1")
    v = [np.asarray(x, dtype=float).copy() for x in initial]
    if len(v) != system.n_blocks:
        raise DomainError("initial sequence has wrong block count")
    stop = tol * (1.0 - kappa) / max(kappa, 1e-6)
    prev_step = None
    growths = 0
    max_factor = 0.0
    trace = []
    converged = False
    for it in range(1, 2001):
        w = system.apply_phi(v)
        v_new = solve_linear_part(system, w)
        step = max(float(np.linalg.norm(v_new[j] - v[j]))
                   for j in range(system.n_blocks))
        factor = step / prev_step if (prev_step is not None and prev_step > 0) else 0.0
        if prev_step is not None and prev_step > 1e3 * np.finfo(float).tiny:
            max_factor = max(max_factor, factor)
        trace.append([it, step, factor])
        v = v_new
        if step <= stop:
            converged = True
            break
        if prev_step is not None and step > prev_step:
            growths += 1
            if growths >= 5:
                raise DivergenceError(
                    f"step norms grew over {growths} consecutive iterations")
        else:
            growths = 0
        prev_step = step
    return FixedPointResult(sequence=v, iterations=it, converged=converged,
                            max_factor=max_factor,
                            final_norm=system.sup_norm(v), trace=trace)


# ---------------------------------------------------------------------------
# assembly from an orbit pipeline


def bump(t):
    """Piecewise-linear cutoff: 1 on [0, 1/3], 0 on [2/3, inf), slope -3."""
    return float(np.clip(2.0 - 3.0 * np.asarray(t, dtype=float), 0.0, 1.0))


@dataclass
class AssemblyResult:
    system: BlockSequenceSystem
    lip_measured: list
    xi_required: float
    feasible: bool
    off_diag: float
    eta_measured: float
    alpha_measured: float


def assemble_block_system(field, splitting, rebalance, T, epsilon, L,
                          tol=1e-9, lip_samples=1000, seed=0,
                          enforce_radius=True) -> AssemblyResult:
    """Build the block system realizing shadowing data as a fixed-point problem.

    Blocks are the normal spaces at the orbit nodes of `splitting` (spacing
    T).  The linear part is the rebalanced projected flow c_j * psi_T in the
    splitting bases, block-diagonalized; the dropped off-diagonal coupling
    plus the cutoff-extended sectional map make up the perturbations
        phi_j(v) = b_{j+1} P_j(v / b_j) - blockdiag(c_j psi_T) v,
    where P_j equals the sectional return inside the ball of rescaled radius
    epsilon, the projected flow outside 3*epsilon, and a piecewise-linear
    blend in between.  Lipschitz constants are estimated per block by pair
    sampling plus the derivative-bound route; the larger estimate is kept.
    P_j is evaluated by value only: the target chart is built once per
    block by `target_chart`, on the state-only image of node j, and each
    evaluation is one state-only landing on it, so phi_j(0) is exactly 0.
    psi_T comes from the splitting's carried step flows when (T, tol) are
    theirs, so at the splitting's own block time and tol no node's
    variational system is integrated over T here.
    """
    orbit = splitting.orbit
    dt = orbit.step()
    if abs(dt - T) > 1e-9 * max(1.0, abs(T)):
        raise DomainError("orbit spacing must equal the block time T")
    n = orbit.n_nodes
    if enforce_radius and 3.0 * epsilon > section_radius(T, L) * (1 + 1e-12):
        raise DomainError(
            f"3*epsilon={3 * epsilon:.3e} exceeds the section radius "
            f"{section_radius(T, L):.3e}")
    c = np.asarray(rebalance.c, dtype=float)
    b = np.asarray(rebalance.b, dtype=float)
    if c.size != n - 1 or b.size != n:
        raise DomainError("rebalance data does not match the orbit window")

    rng = np.random.default_rng(seed)
    bases_s = [splitting.stable[j] for j in range(n)]
    bases_u = [splitting.unstable[j] for j in range(n)]
    psi_maps = [linear_poincare_from_flow(field, orbit.states[j], T,
                                          *splitting.node_flow(field, j, T, tol))
                for j in range(n - 1)]
    # ambient (d x d) action of psi_T from node j to node j+1
    psi_amb = [m.ambient_operator() for m in psi_maps]

    A = []
    D = []
    off = 0.0
    for j in range(n - 1):
        Mj = np.column_stack([bases_s[j], bases_u[j]])
        Mj1 = np.column_stack([bases_s[j + 1], bases_u[j + 1]])
        # full map in splitting coordinates, restricted to the normal space
        full = np.linalg.lstsq(Mj1, c[j] * (psi_amb[j] @ Mj), rcond=None)[0]
        s_dim = bases_s[j].shape[1]
        A.append(full[:s_dim, :s_dim])
        D.append(full[s_dim:, s_dim:])
        off = max(off, opnorm(full[:s_dim, s_dim:]), opnorm(full[s_dim:, :s_dim]))

    eta_meas = max(max(opnorm(a) for a in A),
                   max(opnorm(np.linalg.inv(dd)) for dd in D))
    alpha_meas = min(angle(bases_s[j], bases_u[j]) for j in range(n))
    xi_req = alpha_meas * (1.0 - eta_meas) / (1.0 + eta_meas) if eta_meas < 1 else 0.0

    def make_phi(j):
        x_j = orbit.states[j]
        speed_j = orbit.speeds[j]
        r = 3.0 * epsilon * speed_j
        Bs, Bu = bases_s[j], bases_u[j]
        Bs1, Bu1 = bases_s[j + 1], bases_u[j + 1]
        Mj_pinv = np.linalg.pinv(np.column_stack([Bs, Bu]))
        psi_j = psi_amb[j]
        A_j, D_j = A[j], D[j]
        bj, bj1 = b[j], b[j + 1]
        e_j = np.asarray(field.func(x_j), dtype=float) / speed_j
        chart1 = target_chart(field, x_j, T, L, tol)

        def block_linear(v):
            coords = Mj_pinv @ v
            s_dim = Bs.shape[1]
            return Bs1 @ (A_j @ coords[:s_dim]) + Bu1 @ (D_j @ coords[s_dim:])

        def extended_section(w):
            # block vectors live in the normal space; drop numerical residue
            w = w - np.dot(w, e_j) * e_j
            beta = bump(np.linalg.norm(w) / r)
            lin = psi_j @ w
            if beta == 0.0:
                return lin
            value, _ = sectional_value(field, x_j, T, w, chart1, tol)
            return beta * value + (1.0 - beta) * lin

        # phi_j(0) = 0 exactly: x_j + 0 lands on the chart base (the same
        # state-only flow), where flowbox_invert returns v = 0 without a
        # Newton step
        def phi(v):
            return bj1 * extended_section(v / bj) - block_linear(v)

        return phi

    phis = [make_phi(j) for j in range(n - 1)]

    lip = []
    for j in range(n - 1):
        scale = abs(b[j]) * 3.0 * epsilon * orbit.speeds[j]
        fx = np.asarray(field.func(orbit.states[j]), dtype=float)
        fx /= np.linalg.norm(fx)

        def normal_sample(radius_factor):
            u = random_normal(rng, fx)
            if u is None:
                return None
            return u * scale * rng.uniform(0.0, radius_factor)

        best = 0.0
        # pair quotients concentrated where the cutoff blend lives
        for _ in range(max(4, lip_samples // 2)):
            u1 = normal_sample(1.3)
            u2 = normal_sample(1.3)
            if u1 is None or u2 is None:
                continue
            dv = np.linalg.norm(u1 - u2)
            if dv < 1e-14 * max(scale, 1.0):
                continue
            q = np.linalg.norm(np.asarray(phis[j](u1)) - np.asarray(phis[j](u2))) / dv
            best = max(best, float(q))
        # derivative-bound route: finite-difference directional derivatives
        h = 1e-4 * max(scale, 1e-12)
        for _ in range(max(2, lip_samples // 20)):
            u = normal_sample(1.0)
            dirv = normal_sample(1.0)
            if u is None or dirv is None:
                continue
            dirv /= np.linalg.norm(dirv)
            q = np.linalg.norm(np.asarray(phis[j](u + h * dirv))
                               - np.asarray(phis[j](u - h * dirv))) / (2 * h)
            best = max(best, float(q))
        lip.append(best)

    xi_meas = max(lip) if lip else 0.0
    feasible = eta_meas < 1.0 and xi_meas < xi_req
    system = BlockSequenceSystem(
        i_start=int(rebalance.i_start), bases_s=bases_s, bases_u=bases_u,
        A=A, D=D, eta=eta_meas, alpha=alpha_meas, xi=max(xi_meas, 1e-300),
        phis=phis)
    return AssemblyResult(system=system, lip_measured=lip, xi_required=xi_req,
                          feasible=bool(feasible), off_diag=off,
                          eta_measured=eta_meas, alpha_measured=alpha_meas)


# ---------------------------------------------------------------------------
# the certificate chain on one orbit window

#: Working chart scale: at the honest Lorenz L (about 40) the section radius
#: at T = 0.5 is 3e-21, so the chain runs with the radius check off.
_WORKING_CHART_L = 2.0
LIP_SAMPLES = 120     # Lipschitz samples per block in a scenario


@dataclass
class WindowCertificate:
    rebalance: RebalanceResult
    assembly: AssemblyResult
    kappa: float
    fixed_point: Optional[FixedPointResult]  # None unless feasible, kappa < 1
    certified: bool                          # the fixed point converged


def certify_window(field, splitting, lip_samples, seed):
    """Rebalance (eta = 0.97), assemble (epsilon = 2e-4, the working chart
    scale, no radius check, Lipschitz samples drawn with `seed`) and, when
    the system is feasible with kappa < 1, solve to 1e-11 from noise of size
    1e-4 |X(x_j)| drawn with seed + 1.  psi_T comes from the splitting's
    carried step flows, and the block time T and tol are theirs.
    """
    steps = splitting.steps
    norms = []
    for j, (state, Phi) in enumerate(steps.flows):
        amb = psi_from_flow(field, state, Phi)
        norms.append((opnorm(amb @ splitting.stable[j]),
                      mininorm(amb @ splitting.unstable[j])))
    rb = rebalance_sequence(norms, eta=0.97, i_start=0)
    res = assemble_block_system(field, splitting, rb, steps.time, epsilon=2e-4,
                                L=_WORKING_CHART_L, tol=steps.tol,
                                lip_samples=lip_samples, seed=seed,
                                enforce_radius=False)
    kappa = contraction_bound(res.system)
    fp = None
    if res.feasible and kappa < 1.0:
        rng = np.random.default_rng(seed + 1)
        fp = solve_fixed_point(res.system, [
            1e-4 * s * rng.normal(size=field.dimension)
            for s in splitting.orbit.speeds], tol=1e-11)
    return WindowCertificate(rb, res, kappa, fp, bool(fp and fp.converged))


# ---------------------------------------------------------------------------
# random systems (test harness material)


def make_random_system(n_blocks, dim_s=1, dim_u=1, kappa_target=0.5, seed=0,
                       i_start=0, skew=0.0) -> BlockSequenceSystem:
    """Random admissible system with kappa <= kappa_target.

    `skew` in [0, 1) tilts the unstable basis towards the stable one,
    lowering the splitting angle below 1.  Perturbations are bounded sine
    maps with certified Lipschitz constant xi.
    """
    rng = np.random.default_rng(seed)
    d = dim_s + dim_u
    eta = float(rng.uniform(0.2, 0.7))
    bases_s = []
    bases_u = []
    for _ in range(n_blocks):
        Bs = orthonormalize(rng.normal(size=(d, dim_s)))
        comp = orthonormalize(np.eye(d) - Bs @ Bs.T)[:, :dim_u]
        if skew > 0.0:
            mix = comp + skew * Bs @ rng.uniform(-1, 1, size=(dim_s, dim_u))
            Bu = orthonormalize(mix)
        else:
            Bu = comp
        bases_s.append(Bs)
        bases_u.append(Bu)
    alpha = min(angle(bases_s[j], bases_u[j]) for j in range(n_blocks))
    A = []
    D = []
    for _ in range(n_blocks - 1):
        Qa = orthonormalize(rng.normal(size=(dim_s, dim_s)))
        A.append(eta * rng.uniform(0.3, 1.0) * Qa)
        Qd = orthonormalize(rng.normal(size=(dim_u, dim_u)))
        D.append((1.0 / eta) * rng.uniform(1.0, 2.0) * Qd)
    xi = kappa_target * alpha * (1.0 - eta) / (1.0 + eta)
    phis = []
    for _ in range(n_blocks - 1):
        C = rng.normal(size=(d, d))
        C *= 0.999 * xi / max(opnorm(C), 1e-300)
        phis.append(lambda w, C=C: C @ np.sin(np.asarray(w, dtype=float)))
    return BlockSequenceSystem(i_start=i_start, bases_s=bases_s,
                               bases_u=bases_u, A=A, D=D, eta=eta,
                               alpha=alpha, xi=xi, phis=phis)
