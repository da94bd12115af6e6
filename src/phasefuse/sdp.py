# phasefuse/sdp.py
"""Unit-diagonal semidefinite relaxation of the phase selection problem.

Solves   max tr(B A)  s.t.  A_{ii} = 1, A >= 0  (A complex Hermitian)

with a feasible-start primal-dual interior-point method using
Nesterov-Todd scaling. The dual is  min e^T y  s.t.  Diag(y) - B >= 0, so
with an exactly feasible start (A = I, y = (lambda_max(B)+1) e) both
residuals are zero throughout and the duality gap <A, Z> is the only
quantity driven to zero.

The objective B must pass ``estimator.check_hermitian``: an N x N array of
finite numbers (``channel.check_array``), Hermitian within
``estimator.HERMITIAN_TOL = 1e-12`` relative to max(1, max |B_ij|). A
factor F must pass ``estimator.check_factor``. Either check raises
ConfigurationError naming the argument.

The diagonal constraint structure makes the Schur complement of the Newton
system simply the elementwise squared modulus of the scaling matrix W,
so each iteration costs a handful of dense N x N eigendecompositions.
Its working set is about 10 N x N complex arrays: X, Z, three scratch
buffers that every product and sum is written into (``out=``), Z^{-1}, W
and the arrays that LAPACK returns or copies, each dropped after its last
reader. Each product and sum takes the operands, in the order, that it
would with a fresh array for every result, so the bits are the same.

``solve`` and ``extract_rank_one`` run with OpenBLAS on one thread
(``blas.single_threaded``): on matrices this small, worker threads cost more
than they save, and the arithmetic, hence every output bit, is the same.

The IPM's eigensolves, step lengths and Cholesky solves (``zheevr``,
``zhegvx``, ``dpotrf``/``dpotrs``) go through ``phasefuse.lapack``, which
calls scipy's compiled wrappers with the arguments ``scipy.linalg`` would pick
and a workspace query cached per N; the results are bit-identical.

The stopping test is ``gap <= GAP_TOL * max(1, |tr(B A)|)``: relative to the
objective when it exceeds 1, absolute below that. ``GAP_TOL``, ``MAX_ITER``
and ``NUM_CANDIDATES`` are fixed values, read at call time.

Before the IPM, ``solve`` tries to certify a rank-one optimum ``a a^H``.
It works from a factor F of B's PSD part (k x N, ``F^H F >= B``):
``SdpProblem.factor`` when given (``estimator.fisher_factor``, M x N with
M < N), and otherwise one ``eigh(B)``, a row ``sqrt(w) u^H`` for each
eigenpair with ``w > 0`` and always the leading one. The candidate ``a`` is
the phase of ``F^H u``, u the leading eigenvector of the k x k ``F F^H``,
improved by power steps ``a <- phase(B a)``. With ``y_i = Re(conj(a_i) (B
a)_i)`` and a lift ``t``, ``Diag(y + t e) >= F^H F >= B`` makes ``y + t e``
dual feasible, so ``sum(y) + N t`` bounds the relaxation from above for any
``a`` (weak duality). ``t`` is each coordinate's share of the gap budget, and
the test is ``lambda_max(F Diag(1/(y + t)) F^H) <= 1``, the Schur complement
form of ``Diag(y + t e) >= F^H F``. When it holds, ``a a^H`` is optimal and is
returned, with ``iterations`` counting the power steps taken (at least one)
and the gap of that dual point, about ``GAP_TOL * max(1, |a^H B a|)``. This
always happens for M = 1 (B of rank one) and for most small-N Fisher
instances. An instance it declines runs the IPM with the same bits as
without the attempt: the IPM starts from its own ``eigvalsh(B)``, not from
the certificate's eigenvalues, which can differ in the last bit. It keeps
that N x N eigensolve for as long as the rounding's choice among near-tied
candidates can turn on the last bit of the factor.

A solution holds its gram A* only as a factor V, all that ``extract_rank_one``
reads; ``SdpSolution.gram`` forms ``V V^H`` on each read. A certified V is
``a[:, None]``, with smallest eigenvalue 0 and diagonal ``a * conj(a)``: no
eigensolve and no N x N gram. The IPM's final X is eigendecomposed once, ``V =
U sqrt(w)`` with eigenvalues below ``EIG_CLIP_REL * lambda_max`` clipped; X
gives ``min_eigenvalue`` (the unclipped ``w[0]``) and ``diag_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack
from .blas import single_threaded
from .channel import check_array
from .errors import ConvergenceError
from .estimator import check_factor, check_hermitian
from .rng import RngStream

# Stop at gap <= GAP_TOL * max(1, |objective|): an absolute tolerance
# for objectives below 1, relative above; well inside the 1e-7 certificate.
GAP_TOL = 1e-9
MAX_ITER = 200
NUM_CANDIDATES = 100  # random candidates of the rank-one rounding
EIG_CLIP_REL = 1e-12
STEP_FRACTION = 0.98
# The rank-one certificate's power iteration stops once a step raises
# a^H B a by at most POWER_REL_GAIN relative, or after POWER_MAX_STEPS steps.
POWER_MAX_STEPS = 100
POWER_REL_GAIN = 1e-15


@dataclass(frozen=True)
class SdpProblem:
    """Hermitian objective B of the relaxation max tr(B A), and optionally a
    factor F of B = F^H F (M x N, checked by ``estimator.check_factor``),
    from which the rank-one certificate takes its spectral data;
    ``estimator.fisher_factor`` gives one when M < N. Without it, ``solve``
    derives one from ``eigh(B)``. Both are checked as the module docstring
    says; B is stored as the complex (B + B^H) / 2, F as a complex array."""

    objective: np.ndarray
    factor: np.ndarray | None = None

    def __post_init__(self):
        b = np.asarray(check_hermitian("objective", self.objective), dtype=complex)
        object.__setattr__(self, "objective", 0.5 * (b + b.conj().T))
        if self.factor is not None:
            f = np.asarray(check_factor(b, self.factor), dtype=complex)
            object.__setattr__(self, "factor", f)

    @property
    def dimension(self) -> int:
        return self.objective.shape[0]


@dataclass
class SdpSolution:
    """Relaxed optimum with feasibility and optimality certificates.

    ``factor`` V is ``a[:, None]`` for a certified ``a a^H``, and ``U
    sqrt(w)`` from the eigendecomposition of the interior-point iterate A*,
    whose eigenvalues below ``EIG_CLIP_REL * lambda_max`` it drops.
    """

    factor: np.ndarray        # V, N x k; last column leading
    objective_value: float    # tr(B A*)
    duality_gap: float        # e^T y - tr(B A*) = <A*, Z> >= 0
    diag_residual: float      # max_i |A*_{ii} - 1|
    min_eigenvalue: float     # smallest eigenvalue of A*
    iterations: int           # IPM iterations, or power steps of a certified a a^H

    @property
    def gram(self) -> np.ndarray:
        """``V V^H``: A* up to its clipped eigenvalues, formed on each read."""
        return self.factor @ self.factor.conj().T


def _herm(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(X + X^H) / 2 written into ``out``, which must not be ``x``."""
    np.conjugate(x.T, out=out)
    np.add(x, out, out=out)
    return np.multiply(0.5, out, out=out)


def _spectral(
    q: np.ndarray, values: np.ndarray, qh: np.ndarray, scaled: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """Q Diag(values) Q^H written into ``out``, with ``qh`` = Q^H and ``scaled``
    a buffer for Q Diag(values)."""
    return np.matmul(np.multiply(q, values, out=scaled), qh, out=out)


def _nt_scaling(
    x: np.ndarray, z: np.ndarray, p: np.ndarray, q: np.ndarray, r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Nesterov-Todd scaling point W with W Z W = X, plus Z^{-1}.

    W = Z^{-1/2} (Z^{1/2} X Z^{1/2})^{1/2} Z^{-1/2}. ``p``, ``q`` and ``r``
    are scratch buffers, overwritten; W and Z^{-1} are new arrays.
    """
    tiny = np.finfo(float).tiny
    wz, qz = lapack.eigh(z)
    wz = np.maximum(wz, tiny)
    qzh = np.conjugate(qz.T, out=p)
    z_inv = _spectral(qz, 1.0 / wz, qzh, q, np.empty_like(x))
    z_ihalf = _spectral(qz, 1.0 / np.sqrt(wz), qzh, q, np.empty_like(x))
    z_half = _spectral(qz, np.sqrt(wz), qzh, q, r)
    del qz
    s = _herm(np.matmul(np.matmul(z_half, x, out=p), z_half, out=q), out=p)
    ws, qs = lapack.eigh(s)
    ws = np.maximum(ws, tiny)
    s_half = _spectral(qs, np.sqrt(ws), np.conjugate(qs.T, out=q), p, r)
    del qs
    w = np.matmul(np.matmul(z_ihalf, s_half, out=p), z_ihalf, out=q)
    return _herm(w, out=z_ihalf), z_inv


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with X + alpha dX >= 0, for Hermitian PD X.

    The smallest eigenvalue of the pencil (dX, X) is that of
    X^{-1/2} dX X^{-1/2}; one generalized eigensolve finds it.
    """
    lam_min = lapack.pencil_min_eigenvalue(dx, x)
    if lam_min >= -np.finfo(float).eps:
        return np.inf
    return -1.0 / lam_min


def _solution(
    diagonal: np.ndarray, factor: np.ndarray, min_eigenvalue: float,
    objective: float, gap: float, iterations: int,
) -> SdpSolution:
    return SdpSolution(
        factor=factor,
        objective_value=objective,
        duality_gap=max(gap, 0.0),
        diag_residual=float(np.max(np.abs(np.real(diagonal) - 1.0))),
        min_eigenvalue=min_eigenvalue,
        iterations=iterations,
    )


def _dominates(d: np.ndarray, factor: np.ndarray) -> bool:
    """Whether Diag(d) - F^H F is PSD. For d > 0 it is exactly when the
    Schur complement I - F Diag(1/d) F^H is, an M x M test. Written so that
    a NaN fails it."""
    if not d.min() > 0:
        return False
    scaled = factor / np.sqrt(d)
    return bool(lapack.eigvalsh(scaled @ scaled.conj().T)[-1] <= 1.0)


def _psd_factor(b: np.ndarray) -> np.ndarray:
    """F with F^H F the PSD part of B, so F^H F >= B: a row ``sqrt(w) u^H``
    for each eigenpair of B with w > 0, and always the leading one."""
    w, u = lapack.eigh(b)
    k = max(1, int(np.count_nonzero(w > 0)))
    return (u[:, -k:] * np.sqrt(np.maximum(w[-k:], 0.0))).conj().T


def _rank_one_certificate(b: np.ndarray, factor: np.ndarray) -> SdpSolution | None:
    """A rank-one optimum ``a a^H`` certified by the dual bound described in
    the module docstring, or None when the bound is not within ``GAP_TOL``.
    ``factor`` is F (k x N) with ``F^H F >= B``; it gives the start ``F^H u``
    and the dual test, and everything else reads B."""
    n = b.shape[0]
    fh = factor.conj().T
    a = phase_normalize(fh @ lapack.eigh(factor @ fh)[1][:, -1])
    ba = b @ a
    obj = float(np.real(np.vdot(a, ba)))
    for steps in range(1, POWER_MAX_STEPS + 1):
        a = phase_normalize(ba)
        ba = b @ a
        prev, obj = obj, float(np.real(np.vdot(a, ba)))
        if obj - prev <= POWER_REL_GAIN * abs(obj):
            break

    # Weak duality: a dual point y + lift e with Diag(y + lift e) >= F^H F
    # >= B bounds the relaxation by sum(y) + n lift, and sum(y) = a^H B a in
    # exact arithmetic, so the gap is the rounding residual plus n lift. The
    # lift is each coordinate's share of the budget, less 8 ulps so that the
    # rounded gap stays within it.
    y = np.real(a.conj() * ba)
    residual = float(np.sum(y)) - obj
    budget = GAP_TOL * max(1.0, abs(obj))
    lift = (budget - residual) * (1.0 - 8.0 * np.finfo(float).eps) / n
    gap = residual + n * lift
    if not (gap <= budget and _dominates(y + lift, factor)):
        return None
    # a a^H with unit-modulus a, N >= 2, has eigenvalues N and 0 and diagonal
    # a * conj(a), the products np.outer(a, a.conj()) forms: no eigensolve.
    return _solution(a * a.conj(), a[:, np.newaxis], 0.0, obj, gap, steps)


def _trace_of_product(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> float:
    """Re tr(left right), the product written into ``out``."""
    return float(np.real(np.trace(np.matmul(left, right, out=out))))


def _newton_step(
    x: np.ndarray, z: np.ndarray, gap: float,
    dx: np.ndarray, dz: np.ndarray, scratch: np.ndarray,
) -> tuple[float, float]:
    """One predictor-corrector step from (X, Z): the corrector direction is
    written into ``dx`` and ``dz`` and its primal and dual step lengths are
    returned. ``scratch`` is overwritten; W, Z^{-1} and the Cholesky factor
    of the Schur complement are freed on return."""
    n = x.shape[0]
    ones = np.ones(n)
    mu = gap / n
    w, z_inv = _nt_scaling(x, z, dx, dz, scratch)
    # (|W_ij|^2), symmetric PD: the real part of W * conj(W), a view of dz.
    cf = lapack.cho_factor(np.multiply(w, np.conjugate(w, out=dz), out=dz).real)
    diag_zinv = np.real(np.diag(z_inv))

    def direction(sigma_mu: float) -> None:
        # dX = Herm((sigma_mu Z^{-1} - X) + (W Diag(dy)) W), summed in that
        # order, and dZ = -Diag(dy).
        dy = lapack.cho_solve(cf, ones - sigma_mu * diag_zinv)
        np.subtract(np.multiply(sigma_mu, z_inv, out=scratch), x, out=scratch)
        np.matmul(np.multiply(w, dy[np.newaxis, :], out=dz), w, out=dx)
        _herm(np.add(scratch, dx, out=scratch), out=dx)
        dz.fill(0.0)
        np.fill_diagonal(dz, dy)
        np.negative(dz, out=dz)

    # Predictor (affine direction) fixes the centering parameter.
    direction(0.0)
    ap = min(1.0, STEP_FRACTION * _max_step(x, dx))
    ad = min(1.0, STEP_FRACTION * _max_step(z, dz))
    gap_aff = _trace_of_product(np.add(x, np.multiply(ap, dx, out=dx), out=dx),
                                np.add(z, np.multiply(ad, dz, out=dz), out=dz), scratch)
    sigma = min(1.0, max((max(gap_aff, 0.0) / gap) ** 3, 1e-6))

    direction(sigma * mu)
    ap = min(1.0, STEP_FRACTION * _max_step(x, dx))
    ad = min(1.0, STEP_FRACTION * _max_step(z, dz))
    return ap, ad


def _interior_point(b: np.ndarray) -> SdpSolution:
    """The primal-dual IPM from X = I (see the module docstring)."""
    n = b.shape[0]
    lam_max = float(np.max(lapack.eigvalsh(b)))
    scale = max(1.0, abs(lam_max))

    # X, Z and three scratch buffers, all C-ordered: the eigenvectors come
    # F-ordered, so a buffer allocated like them (or an elementwise result of
    # them) is F-ordered, and a matmul into an F-ordered out changes the bits.
    x = np.eye(n, dtype=complex)
    dx, dz, scratch = (np.empty_like(x) for _ in range(3))
    z = _herm(np.diag(np.full(n, lam_max + scale)).astype(complex) - b, out=np.empty_like(x))

    iterations = 0
    gap = _trace_of_product(x, z, scratch)
    for iterations in range(1, MAX_ITER + 1):
        obj = _trace_of_product(b, x, scratch)
        if gap <= GAP_TOL * max(1.0, abs(obj)):
            iterations -= 1
            break
        try:
            ap, ad = _newton_step(x, z, gap, dx, dz, scratch)
        except (np.linalg.LinAlgError, lapack.NonFiniteError):
            # X or Z has lost numerical definiteness near the optimum, or a
            # NaN or inf reached a LAPACK call. Keep the last iterate, which
            # may hold that NaN, and let the NaN-safe check in solve decide.
            iterations -= 1
            break
        _herm(np.add(x, np.multiply(ap, dx, out=dx), out=dx), out=x)
        _herm(np.add(z, np.multiply(ad, dz, out=dz), out=dz), out=z)
        gap = _trace_of_product(x, z, scratch)

    # One eigendecomposition of the final X gives the factor, with the
    # eigenvalues below EIG_CLIP_REL * lambda_max clipped, and lambda_min.
    w, u = lapack.eigh(x)
    factor = u * np.sqrt(np.where(w < EIG_CLIP_REL * max(w[-1], 0.0), 0.0, w))
    return _solution(np.diag(x), factor, float(w[0]), _trace_of_product(b, x, scratch), gap,
                     iterations)


@single_threaded()
def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the unit-diagonal SDP relaxation to the duality gap ``GAP_TOL``.

    First tries to certify a rank-one optimum (``iterations`` then counts
    its power steps); failing that, runs the interior-point method, which
    stops once the duality gap is at most ``GAP_TOL * max(1, |tr(B A)|)``,
    absolute, not relative, for objectives below 1. The IPM also stops when
    the step length can no longer be computed (an iterate lost numerical
    definiteness or a NaN appeared), or after ``MAX_ITER`` iterations.
    Raises ConvergenceError (carrying the best iterate) if the gap then
    exceeds ``1e-7 * max(1, |tr(B A)|)``.
    """
    b = problem.objective
    if problem.dimension == 1:
        one = np.ones((1, 1), dtype=complex)
        return _solution(one[0], one, 1.0, float(np.real(b[0, 0])), 0.0, 0)

    factor = _psd_factor(b) if problem.factor is None else problem.factor
    sol = _rank_one_certificate(b, factor)
    if sol is None:
        sol = _interior_point(b)
    # Written so that a NaN gap (max(nan, 0.0) is nan) fails the certificate.
    if not sol.duality_gap <= 1e-7 * max(1.0, abs(sol.objective_value)):
        raise ConvergenceError(
            f"duality gap {sol.duality_gap:.3e} after {sol.iterations} iterations",
            best_solution=sol,
        )
    return sol


def phase_normalize(c: np.ndarray) -> np.ndarray:
    """Project complex entries onto the unit circle, elementwise (zeros map to 1)."""
    mag = np.abs(c)
    return np.divide(c, mag, out=np.ones_like(c, dtype=complex), where=mag > 0)


@single_threaded()
def extract_rank_one(
    solution: SdpSolution, problem: SdpProblem, rng: RngStream
) -> np.ndarray:
    """Round the relaxed optimum to a unit-modulus vector.

    With the gram's factor V (N x k, see ``SdpSolution``), draw
    ``NUM_CANDIDATES`` random unit-modulus vectors r of length k and
    phase-normalize V r; no eigendecomposition is made here. The
    phase-normalized leading column of V (the leading eigenvector of A*) and
    the all-ones vector are always in the candidate pool; the candidate
    with the largest a^H B a wins (first encountered on ties), so the result
    never underperforms the no-feedback baseline. For a certified a a^H
    (k = 1) every random candidate is a up to a global phase.
    """
    b = problem.objective
    n = problem.dimension
    v = check_array("solution.factor", solution.factor, (n, "K"))

    thetas = rng.generator().uniform(0.0, 2.0 * np.pi, size=(NUM_CANDIDATES, v.shape[1]))
    r = np.exp(1j * thetas)  # rows are random unit-modulus vectors
    pool = np.column_stack([  # (n, NUM_CANDIDATES + 2)
        phase_normalize(v[:, -1]), np.ones(n, dtype=complex), phase_normalize(v @ r.T)])
    vals = np.real(np.sum(pool.conj() * (b @ pool), axis=0))
    best = int(np.argmax(vals))
    return pool[:, best]
