"""Semidefinite relaxation of influence-set selection, plus rounding.

Choosing the revenue-maximizing influence set A for a fixed exploit pricing
probability p is a quadratic ±1 assignment problem: y_i = y_0 iff buyer i
gets the product for free.  Relaxing each y_i to a unit vector v_i gives an
SDP over the Gram matrix, tightened by the four half-space ("triangle")
constraints per edge pair (buyer pair that carries an edge), whose feasible
region in (v_i·v_j, v_0·v_i, v_0·v_j) space is exactly the tetrahedron
spanned by the integral sign patterns.  The rounding guarantees bound each
edge term over that triple alone, so no other pair is constrained.  The
solver is a low-rank factorization with an augmented Lagrangian over all
edge-pair rows; each evaluation costs O((|E| + n)·rank) and builds no
(n+1)² array.  Solutions are rotated through the angle map f_gamma and
rounded by a random hyperplane; the certificates module bounds the
worst-case revenue loss of that pipeline.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
import scipy.linalg
from scipy.sparse import csc_array, csr_array
from scipy.sparse.linalg import splu

from .netmodel import (MAX_TRIALS, SocialNetwork, ValidationError, _check_int,
                       _check_real, _check_reals, _check_seed)
from .revenue import (IEStrategy, _batch_rows, _check_exploit_prob,
                      _require_normalized, ie_revenue_batch)

#: Headline parameter pairs (exploit pricing probability, rotation strength).
DIRECTED_SDP_PRICING = 2.0 / 3.0
DIRECTED_SDP_GAMMA = 0.722
UNDIRECTED_SDP_PRICING = 0.586
UNDIRECTED_SDP_GAMMA = 0.209

#: Sign patterns (s1, s2, s3) of the per-pair constraints
#: s1·(v_i·v_j) + s2·(v_0·v_i) + s3·(v_0·v_j) >= -1.  Their intersection is
#: the convex hull of the four integral assignments of (y_i y_j, y_0 y_i,
#: y_0 y_j), on which each row has slack in {0, 4}.
CONSTRAINT_SIGNS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, -1.0, 1.0],
    [-1.0, 1.0, -1.0],
])


class UnrealizableTripleError(ValidationError):
    """Raised when three pairwise angles cannot come from unit vectors."""


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Relaxed influence-set objective over unit vectors v_0 .. v_n.

    ``objective = constant + sum coef[k] * (v_a[k] . v_b[k])``; vector index
    0 is the reference v_0 and buyer i maps to index i+1.  The pairs
    (a, b) are sorted with a < b, and every buyer pair (i, j) that carries
    an edge comes with both (0, i) and (0, j).  Constraints are implicit:
    all four CONSTRAINT_SIGNS rows per edge pair, over the entries
    (v_i . v_j, v_0 . v_i, v_0 . v_j).  These O(|E| + n) pairs are the only
    Gram entries the solver reads: O((|E| + n)·rank) per evaluation, with
    no (n+1)² array.
    """

    n: int
    directed: bool
    p: float
    constant: float
    coef_a: np.ndarray
    coef_b: np.ndarray
    coef: np.ndarray

    @property
    def num_vectors(self) -> int:
        return self.n + 1

    def _objective(self, g: np.ndarray) -> float:
        """Objective at the Gram entries ``g`` of the coefficient pairs."""
        return self.constant + float(self.coef @ g)

    def objective_at_signs(self, y: np.ndarray) -> float:
        """Objective at an integral assignment y in {-1,+1}^(n+1)."""
        y = np.asarray(y, dtype=np.float64)
        return self.constant + float(
            np.sum(self.coef * y[self.coef_a] * y[self.coef_b]))


#: (constant, c_0i) of a unit self-weight on buyer i, in units of
#: p(1 - p) / 4: the buyer earns p(1 - p) when priced (y_i = -y_0).
_SELF_TERMS = (2.0, -2.0)


def _edge_terms(p: float, directed: bool) -> tuple[float, float, float, float]:
    """(constant, c_0i, c_0j, c_ij) of a unit-weight edge (i, j), in units of
    p(1 - p) / 4: its relaxation term is constant + c_0i (v_0 . v_i)
    + c_0j (v_0 . v_j) + c_ij (v_i . v_j).  The terms sum to zero, as the
    edge earns nothing when both buyers are free."""
    if directed:
        a, b = 1.0 - 0.5 * p, 1.0 + 0.5 * p
        return b, a, -b, -a
    return 2.0 + p, -p, -p, -(2.0 - p)


def build_sdp(g: SocialNetwork, p: float) -> SdpProblem:
    """Relaxation objective for best influence-set selection at pricing ``p``.

    At integral assignments the objective reproduces ie_revenue exactly:
    a cut edge (influencer free, target priced) is worth p(1-p)w, an edge
    between two priced buyers p^2(1-p)w/2 per direction, anything else 0,
    and a priced self-weight p(1-p)w_ii.
    """
    _require_normalized(g, "build_sdp")
    p = _check_exploit_prob(p)
    m = p * (1.0 - p)
    # Each pair's terms, and the constant's, are summed one by one in a fixed
    # order: self terms, then (0, i), (0, j), (i, j) per edge in edge order.
    selfs = np.nonzero(g.self_weights > 0)[0]
    self_base = 0.25 * m * g.self_weights[selfs]
    edge_base = 0.25 * m * g.edge_weight
    s0, s1 = _SELF_TERMS
    e0, e_i, e_j, e_ij = _edge_terms(p, g.directed)
    i, j = g.edge_src + 1, g.edge_dst + 1
    zero = np.zeros_like(i)
    a = np.concatenate([np.zeros_like(selfs), np.column_stack(
        [zero, zero, np.minimum(i, j)]).ravel()])
    b = np.concatenate([selfs + 1, np.column_stack(
        [i, j, np.maximum(i, j)]).ravel()])
    terms = np.concatenate([self_base * s1, np.column_stack(
        [edge_base * e_i, edge_base * e_j, edge_base * e_ij]).ravel()])
    constant = sum(np.concatenate([self_base * s0, edge_base * e0]), 0.0)
    keys, pair = np.unique(a * (g.n + 1) + b, return_inverse=True)
    c = np.zeros(keys.size)
    np.add.at(c, pair, terms)
    a, b = keys // (g.n + 1), keys % (g.n + 1)
    return SdpProblem(n=g.n, directed=g.directed, p=p, constant=constant,
                      coef_a=a, coef_b=b, coef=c)


# ---------------------------------------------------------------------------
# Low-rank solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpRound:
    """One outer augmented-Lagrangian round of ``solve_sdp``: the inner
    ``_lbfgs`` ``ftol`` and accepted steps, then the objective and the
    certified upper bound from the round's multipliers (both in the
    caller's units) and max violation at its end, and the penalty mu the
    round ran with."""

    round: int
    ftol: float
    iterations: int
    objective: float
    max_violation: float
    mu: float
    upper_bound: float


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Feasible (up to tolerance) unit vectors with their objective value.

    ``upper_bound`` is a proven upper bound on the relaxation's optimum
    (so on every integral value at the problem's p), and ``certified_gap``
    is (upper_bound - objective_value) / max(1, |objective_value|) in
    coefficient units; it can be slightly negative, since the vectors are
    feasible only to FEAS_TOL.  ``trace`` holds one SdpRound per outer
    round, and ``winning_start`` is 0 when the ascent's vectors were
    returned and -1 for the integral assignment."""

    vectors: np.ndarray
    objective_value: float
    max_violation: float
    iterations: int
    converged: bool
    problem: Optional[SdpProblem] = None
    trace: tuple[SdpRound, ...] = ()
    winning_start: int = -1
    upper_bound: float = math.inf
    certified_gap: float = math.inf

    def angles(self) -> np.ndarray:
        """theta_i = angle between v_i and v_0, per buyer."""
        V = self.vectors
        return np.arccos(np.clip(V[1:] @ V[0], -1.0, 1.0))


def default_rank(n: int) -> int:
    return min(n + 1, int(math.ceil(math.sqrt(2.0 * max(n, 1)))) + 2)


#: Solver settings: feasibility and relative objective tolerances, outer
#: augmented-Lagrangian rounds, and L-BFGS iterations per round.
FEAS_TOL = 1e-4
OBJ_TOL = 1e-4
MAX_OUTER = 40
INNER_ITERATIONS = 200
#: Initial augmented-Lagrangian penalty, in units of one coefficient (see
#: ``_coefficient_unit``); it grows 4x per stalled round up to 1e8 times this.
MU_START = 10.0
#: Inner L-BFGS relative reduction test (``ftol``) of outer round 0; it
#: tightens 10x per round down to FTOL_FLOOR, scipy's L-BFGS-B default (factr
#: 1e7 times machine epsilon), so the final rounds are solved as tightly.
FTOL_START = OBJ_TOL / 10.0
FTOL_FLOOR = 2.220446049250313e-09


def _unit_rows(X: np.ndarray):
    """Rows of X scaled to unit length, and the (m, 1) norms used."""
    norms = np.maximum(np.sqrt(np.einsum("ij,ij->i", X, X)), 1e-12)[:, None]
    return X / norms, norms


def _gram_entries(prob: SdpProblem, V: np.ndarray) -> np.ndarray:
    """v_a . v_b for each coefficient pair (a, b), as row-wise dots."""
    return np.einsum("ij,ij->i", V.take(prob.coef_a, 0),
                     V.take(prob.coef_b, 0))


def _scatter_matrix(prob: SdpProblem):
    """CSR matrix on the symmetric pattern of the coefficient pairs plus
    the diagonal, and the pair each stored entry belongs to (``coef.size``
    on the diagonal).  Each use refills its ``data`` with one weight per
    pair and one for the diagonal, and multiplies it into V."""
    m, k = prob.num_vectors, prob.coef.size
    diag = np.arange(m)
    rows = np.concatenate([prob.coef_a, prob.coef_b, diag])
    cols = np.concatenate([prob.coef_b, prob.coef_a, diag])
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(m + 1))
    W = csr_array((np.zeros(order.size), cols[order], indptr), shape=(m, m))
    return W, np.where(order < 2 * k, order % max(k, 1), k)


class _Lagrangian:
    """One problem's constraint rows as sparse maps built once per solve, over
    flat multipliers (four per edge pair in CONSTRAINT_SIGNS order)."""

    def __init__(self, prob: SdpProblem):
        k, k0 = prob.coef.size, int(np.searchsorted(prob.coef_a, 1))
        ref = prob.coef_b[:k0]
        # positions in coef of (v_i . v_j, v_0 . v_i, v_0 . v_j) per edge pair
        triples = np.column_stack([np.arange(k0, k),
                                   np.searchsorted(ref, prob.coef_a[k0:]),
                                   np.searchsorted(ref, prob.coef_b[k0:])])
        self.num_rows = 4 * len(triples)
        self.slack_map = csr_array((
            np.tile(CONSTRAINT_SIGNS.ravel(), len(triples)),
            (np.arange(self.num_rows).repeat(3), triples.repeat(4, 0).ravel())),
            shape=(self.num_rows, k))
        self.prob, (self.W, pair_of_entry) = prob, _scatter_matrix(prob)
        self.on_diag = pair_of_entry == k
        off = np.flatnonzero(~self.on_diag)
        self.weight_map = csr_array(csr_array(
            (np.ones(off.size), (off, pair_of_entry[off])),
            shape=(pair_of_entry.size, k)) @ self.slack_map.T)
        self.coef_entries = np.append(prob.coef, 0.0)[pair_of_entry]

    def slacks(self, g: np.ndarray) -> np.ndarray:
        """s1 (v_i . v_j) + s2 (v_0 . v_i) + s3 (v_0 . v_j) + 1 per row, from
        the Gram entries ``g`` of the coefficient pairs; >= 0 is feasible."""
        return self.slack_map @ g + 1.0

    def weights(self, lam: np.ndarray) -> np.ndarray:
        """dL/dg of the Lagrangian at ``lam`` (coef plus each multiplier times
        its row's sign) on the stored entries of ``W``, 0 on the diagonal."""
        return self.coef_entries + self.weight_map @ lam


def _al_value_grad(xflat, lag: _Lagrangian, lam, mu):
    """Negated augmented Lagrangian and its gradient in the unnormalized X.

    The value depends on V only through the Gram entries g of the
    coefficient pairs, so the gradient in V is W V with W carrying
    dF/dg of each pair on both (a, b) and (b, a), and 0 on the diagonal.
    """
    prob = lag.prob
    V, norms = _unit_rows(xflat.reshape(prob.num_vectors, -1))
    g = _gram_entries(prob, V)
    mult = lam - mu * lag.slacks(g)
    np.maximum(mult, 0.0, out=mult)
    pen = (mult @ mult - lam @ lam) / (2.0 * mu)
    lag.W.data = -lag.weights(mult)
    gV = lag.W @ V
    gV -= np.einsum("ij,ij->i", gV, V)[:, None] * V
    gV /= norms
    return pen - prob._objective(g), gV.ravel()


#: Inner L-BFGS: correction pairs, Armijo constant, line-search evaluations
#: and max |gradient| stop (the first, third and last as in scipy's L-BFGS-B).
_LBFGS_PAIRS = 10
_ARMIJO = 1e-4
_MAX_LINE_EVALS = 20
_GTOL = 1e-5


def _lbfgs(fun, x: np.ndarray, maxiter: int, ftol: float):
    """Minimize ``fun`` (value and gradient) from ``x`` by unconstrained
    L-BFGS; the last point and its number of accepted steps.

    The inverse Hessian is the compact form (Byrd, Nocedal & Schnabel 1994)
    gamma I + [S Y] M [S Y]^T, whose M needs R^-1 (R_ij = s_i . y_j, i <= j),
    diag(s_i . y_i) and Y^T Y.  Pairs sit in a ring of slots: one leaves by
    zeroing its row and column of R^-1 and enters as R's last column.  A
    pair with s . y <= eps y . y is skipped.  Steps backtrack from 1 (from
    1 / |g| without pairs) to the Armijo condition, dropping all pairs on
    failure.  Stops as scipy's L-BFGS-B: at (f_k - f_k+1) / max(|f_k|,
    |f_k+1|, 1) <= ftol, at max |g| <= _GTOL, or after ``maxiter`` steps.
    """
    P = _LBFGS_PAIRS
    Z = np.zeros((2 * P, x.size))  # slot j holds s_j in row j, y_j in P + j
    Rinv, YY, D = np.zeros((P, P)), np.zeros((P, P)), np.zeros(P)
    gamma, pairs, slot = 1.0, 0, 0
    (f, g), steps, small = fun(x), 0, False
    while steps < maxiter and not small and np.abs(g).max() > _GTOL:
        if pairs:
            Zg = Z @ g
            p = Rinv @ Zg[:P]
            t = D * p + gamma * (YY @ p - Zg[P:])
            d = np.concatenate([-(t @ Rinv), gamma * p]) @ Z - gamma * g
            step = 1.0
        else:
            d = -g
            step = 1.0 / math.sqrt(g @ g)
        slope = g @ d
        for _ in range(_MAX_LINE_EVALS if slope < 0.0 else 0):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            # minimizer of the quadratic through f, slope and f_new,
            # kept within [0.1, 0.5] of the step
            step *= max(0.1, min(0.5, -0.5 * slope * step
                                 / (f_new - f - slope * step)))
        else:  # no descent along d: retry along -g, or stop
            if not pairs:
                break
            Rinv[:], pairs = 0.0, 0
            continue
        small = f - f_new <= ftol * max(abs(f), abs(f_new), 1.0)
        s, y = x_new - x, g_new - g
        sy, yy = s @ y, y @ y
        if sy > _EPS * yy:
            Rinv[slot], Rinv[:, slot] = 0.0, 0.0
            Zy = Z @ y
            Rinv[:, slot] = Rinv @ Zy[:P] / -sy
            Rinv[slot, slot] = 1.0 / sy
            YY[slot], YY[:, slot] = Zy[P:], Zy[P:]
            YY[slot, slot], D[slot] = yy, sy
            Z[slot], Z[P + slot] = s, y
            gamma, pairs, slot = sy / yy, min(pairs + 1, P), (slot + 1) % P
        steps += 1
        x, f, g = x_new, f_new, g_new
    return x, steps


def _flip_descent(C, y: np.ndarray) -> np.ndarray:
    """Flip the buyer of largest gain in ``y`` (in place) until no flip
    gains; ``C`` is ``_sign_matrix``."""
    h = C @ y
    while True:
        gains = -4.0 * y * h
        gains[0] = -np.inf  # v_0 is the reference
        k = int(np.argmax(gains))
        if gains[k] <= 1e-12:
            return y
        y[k] = -y[k]
        # h = C y moves by 2 y_k C[:, k], at k's neighbours only
        lo, hi = C.indptr[k], C.indptr[k + 1]
        h[C.indices[lo:hi]] += 2.0 * y[k] * C.data[lo:hi]


def _sign_matrix(prob: SdpProblem):
    """The symmetric C with objective constant + y^T C y, on the coefficient
    pattern and a zero diagonal: row k holds vector k's neighbours."""
    C, pair_of_entry = _scatter_matrix(prob)
    C.data = 0.5 * np.append(prob.coef, 0.0)[pair_of_entry]
    return C


def _best_integral_signs(prob: SdpProblem, seed: int) -> np.ndarray:
    """Good integral assignment (free buyers signed like v_0, y_0 = 1): the
    best of four ``_flip_descent`` runs, from all buyers free and from
    three seeded random signs."""
    rng = np.random.default_rng(seed)
    C = _sign_matrix(prob)
    starts = [np.ones(prob.num_vectors)] + [
        np.append(1.0, rng.choice([-1.0, 1.0], size=prob.n)) for _ in range(3)]
    return max((_flip_descent(C, y) for y in starts),  # the first best
               key=prob.objective_at_signs)


def _coefficient_unit(coef: np.ndarray) -> float:
    """The power of two nearest (in ratio) the mean |coef|, or 1 if all
    coefficients are 0.  Dividing by it is exact in floating point."""
    if not coef.size:
        return 1.0
    mant, exp = math.frexp(float(np.mean(np.abs(coef))))
    if mant == 0.0:
        return 1.0
    return math.ldexp(1.0, exp if mant >= math.sqrt(0.5) else exp - 1)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread counts, through ctypes, of the OpenBLAS bundled with
    numpy (symbols suffixed ``64_``) and with scipy; one per library found."""
    controls = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with each OpenBLAS found at one thread, then restore."""
    controls = _openblas_thread_controls()
    old = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, old):
            set_(n)


#: First shift tried by the dual bound: RITZ_FACTOR times the Ritz estimate
#: of the largest eigenvalue (which it can only underestimate), but at
#: least SHIFT_FLOOR, in coefficient units.
RITZ_FACTOR = 1.1
SHIFT_FLOOR = 1e-9
_EPS = float(np.finfo(np.float64).eps)


def _ritz_top(A, V: np.ndarray) -> float:
    """Largest Rayleigh-Ritz value of the symmetric sparse ``A`` on the
    block Krylov space [V, A V, A^2 V]: a lower estimate of its largest
    eigenvalue.  The dense steps run in scipy's BLAS and LAPACK."""
    AV = A @ V
    Q = scipy.linalg.qr(np.hstack([V, AV, A @ AV]), mode="economic",
                        check_finite=False)[0]
    T = scipy.linalg.blas.dgemm(1.0, Q, A @ Q, trans_a=True)
    return float(scipy.linalg.eigvalsh(T + T.T, check_finite=False)[-1]) / 2.0


def _is_positive_definite(B) -> bool:
    """Whether the sparse LDL^T of the symmetric ``B`` (SuperLU in
    symmetric mode, diagonal pivots only) runs with a symmetric
    permutation and all-positive pivots."""
    try:
        lu = splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0.0))


def _dual_bound(lag: _Lagrangian, V: np.ndarray, lam: np.ndarray) -> float:
    """Weak-duality upper bound on the relaxation, from multipliers ``lam``
    and the complementary-slackness guess of the unit-diagonal multipliers
    at the vectors ``V``; it overwrites the data of ``lag.W``.

    For every G >= 0 with unit diagonal, objective(G) <= constant + sum lam
    + sum y + <A, G> with A = M - Diag(y), where M carries
    (coef + sum lam * sign) / 2 on both (a, b) and (b, a) of each pair, and
    <A, G> <= (n+1) s once sI - A is positive definite.  s is proven by a
    sparse LDL^T of sI - A: tried at RITZ_FACTOR times the Ritz estimate of
    A's largest eigenvalue, doubled on failure, and never above
    Gershgorin's bound.  The computed factors are the exact LDL^T of a
    matrix within 2 gamma_(n+2) tr(sI - A) of sI - A in the 2-norm
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3, with
    || |L| D |L^T| ||_2 <= tr(L D L^T)).  The shift margin,
    8 (n+3) eps (tr(sI - A) + sum |coef| + 3 sum lam), covers that twice
    over together with the rounding of forming M and of the Gershgorin
    sums; the sum margin covers the rounding of the final sums.
    """
    prob, D, on_diag = lag.prob, lag.W, lag.on_diag
    m = prob.num_vectors
    D.data = 0.5 * lag.weights(lam)
    y = np.einsum("ij,ij->i", V, D @ V)
    D.data[on_diag] = -y
    row_abs = np.add.reduceat(np.abs(D.data), D.indptr[:-1])
    gershgorin = float(np.max(row_abs - np.abs(y) - y))
    s = max(RITZ_FACTOR * _ritz_top(D, V), SHIFT_FLOOR)
    while s < gershgorin:
        B = csc_array((np.where(on_diag, s, 0.0) - D.data, D.indices,
                       D.indptr), shape=(m, m))
        if _is_positive_definite(B):
            break
        s *= 2.0
    s = min(s, gershgorin)
    lam_sum, y_sum = float(np.sum(lam)), float(np.sum(y))
    shift_margin = 8.0 * (m + 2) * _EPS * (
        m * s + y_sum + float(np.sum(np.abs(prob.coef))) + 3.0 * lam_sum)
    sum_margin = (lam.size + m + 4) * _EPS * (
        abs(prob.constant) + lam_sum + float(np.sum(np.abs(y))))
    return prob.constant + lam_sum + y_sum + m * (s + shift_margin) \
        + sum_margin


def solve_sdp(prob: SdpProblem, rank: Optional[int] = None,
              seed: int = 0) -> SdpSolution:
    """Maximize the relaxation by low-rank augmented-Lagrangian ascent.

    Factorizes the Gram matrix as V V^T with unit rows of dimension ``rank``
    (an integer >= 1, used as min(max(rank, 2), n + 1); ``default_rank``
    if None) and runs one local ascent, started from the greedy integral
    assignment of ``_best_integral_signs`` jittered by seeded noise.  Every
    edge pair's four constraint rows sit in the augmented Lagrangian from
    the first inner solve.  The better integral assignment, the greedy one
    or the ascent's sign-rounded vectors (y_i = sign(v_i . v_0)) improved by
    ``_flip_descent``, is returned instead (``winning_start`` -1) when the
    ascent ends infeasible or no higher; ``converged`` is False if the
    ascent did not reach the tolerances.

    After every outer round, the round's multipliers give a proven upper
    bound on the relaxation (``_dual_bound``), and so on the best IE
    revenue at the problem's p, at any n; ``upper_bound`` is the minimum
    over rounds, ``certified_gap`` its relative gap to the returned
    objective, and ``trace`` holds one SdpRound per outer round.

    The problem is solved in units of one coefficient (``coef`` and
    ``constant`` divided by the power of two nearest the mean |coef|), so
    MU_START, the tolerances and L-BFGS's absolute gradient test mean the
    same at any weight scale, and scaling every weight by a power of two
    scales the objective and bound bit for bit.  Outer round k runs
    ``_lbfgs`` at ``ftol = max(FTOL_START / 10**k, FTOL_FLOOR)``: early
    inner solves, while the multipliers are still far off, are inexact
    (Conn, Gould & Toint's LANCELOT), and later ones run at scipy's default.

    Each evaluation costs O((|E| + n) rank) and builds no (n+1) x (n+1)
    array: two row gathers and three sparse products (``_Lagrangian``).
    The bound keeps that with sparse products, an (n+1) x 3 rank Krylov
    block and a sparse factorization.  The ascent and bounds run with
    numpy's and scipy's OpenBLAS pinned to one thread (restored
    afterwards), so the output does not depend on the BLAS thread count at
    any n; ``SdpIEResult.solver_diagnostics`` reports ``blas_pinned`` only
    where both libraries were found.
    """
    m = prob.num_vectors
    seed = _check_seed(seed)
    rank = default_rank(prob.n) if rank is None else _check_int(rank, "rank", 1)
    rank = max(2, min(rank, m)) if m > 1 else 1
    unit = _coefficient_unit(prob.coef)
    caller_prob = prob
    prob = dataclasses.replace(prob, coef=prob.coef / unit,
                               constant=prob.constant / unit)

    y_int = _best_integral_signs(prob, seed)
    V_int = np.zeros((m, rank))
    V_int[:, 0] = y_int
    int_obj = prob.objective_at_signs(y_int)
    if prob.n == 0 or prob.coef.size == 0:
        return SdpSolution(V_int, int_obj * unit, 0.0, 0, True, caller_prob,
                           upper_bound=int_obj * unit, certified_gap=0.0)

    lag = _Lagrangian(prob)
    X = V_int + 0.2 * np.random.default_rng(seed).standard_normal((m, rank))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    lam = np.zeros(lag.num_rows)
    mu = MU_START
    prev_obj, prev_viol = None, np.inf
    converged = False
    total_iters = 0
    trace = []
    upper = math.inf
    with _one_blas_thread():
        for outer in range(MAX_OUTER):
            ftol = max(FTOL_START / 10.0 ** outer, FTOL_FLOOR)
            fun = functools.partial(_al_value_grad, lag=lag, lam=lam, mu=mu)
            X, iters = _lbfgs(fun, X.ravel(), INNER_ITERATIONS, ftol)
            total_iters += iters
            V = _unit_rows(X.reshape(m, rank))[0]
            g = _gram_entries(prob, V)
            obj = prob._objective(g)
            slack = lag.slacks(g)
            max_viol = float(max(0.0, -np.min(slack))) if slack.size else 0.0
            lam = np.maximum(0.0, lam - mu * slack)
            bound = _dual_bound(lag, V, lam)
            upper = min(upper, bound)
            trace.append(SdpRound(outer, ftol, iters, obj * unit, max_viol,
                                  mu, bound * unit))
            if max_viol <= FEAS_TOL and prev_obj is not None \
                    and abs(obj - prev_obj) <= OBJ_TOL * max(1.0, abs(obj)):
                converged = True
                break
            if max_viol > 0.5 * prev_viol and outer > 0:
                mu = min(mu * 4.0, 1e8 * MU_START)
            prev_obj, prev_viol = obj, max(max_viol, 1e-16)
        # the ascent stops within OBJ_TOL, so its rounding can still beat it
        y = _flip_descent(_sign_matrix(prob),
                          np.where(V @ V[0] >= 0.0, 1.0, -1.0))
    if prob.objective_at_signs(y) > int_obj:
        V_int[:, 0], int_obj = y, prob.objective_at_signs(y)

    winner = 0
    if max_viol > FEAS_TOL or obj <= int_obj:
        V, obj, max_viol, winner = V_int, int_obj, 0.0, -1
    return SdpSolution(vectors=V, objective_value=obj * unit,
                       max_violation=max_viol, iterations=total_iters,
                       converged=converged, problem=caller_prob,
                       trace=tuple(trace), winning_start=winner,
                       upper_bound=upper * unit,
                       certified_gap=(upper - obj) / max(1.0, abs(obj)))


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------

def _check_gamma(gamma) -> float:
    return _check_real(gamma, "gamma", 0, 1)


def _check_angle(theta, name: str):
    """Angles ``theta`` (one or an array) in [0, pi], each taken to the
    range when at most 1e-9 outside it."""
    return np.clip(_check_reals(theta, name, -1e-9, math.pi + 1e-9),
                   0.0, math.pi)


def _rotate(t, gamma: float):
    """f_gamma(t), unchecked: ``t`` in [0, pi] and ``gamma`` a float in
    [0, 1], as :func:`rotate` checks them."""
    return (1.0 - gamma) * t + gamma * math.pi * (1.0 - np.cos(t)) / 2.0


def rotate(theta, gamma: float):
    """Angle remap f_gamma(t) = (1-gamma) t + gamma pi (1 - cos t)/2.

    Fixes 0 and pi, is monotone on [0, pi] for gamma in [0, 1], and pulls
    intermediate angles toward the poles as gamma grows.
    """
    gamma = _check_gamma(gamma)
    out = _rotate(_check_angle(theta, "theta"), gamma)
    return float(out) if np.isscalar(theta) else out


def _rotated_pair_angles(cx, y, z, fy, fz):
    """Vectorized pair angle after rotating both vectors, unchecked.

    ``cx`` is the cosine of the angle between v_i and v_j, ``y``/``z``
    their angles to v_0 and ``fy``/``fz`` those angles rotated
    (:func:`_rotate`), broadcast; each term is computed at the shape of
    the inputs it depends on.  Degenerate endpoints (v = +-v_0) bypass the
    spherical-law term; the inner cosine is clamped against drift.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    safe = np.maximum(np.sin(y) * np.sin(z), 1e-300)
    t = (cx - np.cos(y) * np.cos(z)) / safe
    inner = np.cos(fy) * np.cos(fz) + np.clip(t, -1.0, 1.0) * np.sin(fy) * np.sin(fz)
    general = np.arccos(np.clip(inner, -1.0, 1.0))
    eps = 1e-9
    y_end = (y <= eps) | (y >= math.pi - eps)
    z_end = (z <= eps) | (z >= math.pi - eps)
    # v_i = +-v_0 leaves v_j's rotated angle or its supplement, and vice versa
    pole = np.where(y_end, np.where(y <= eps, fz, math.pi - fz),
                    np.where(z <= eps, fy, math.pi - fy))
    return np.where(y_end | z_end, pole, general)


def rotated_pair_angle(theta_ij: float, theta_i: float, theta_j: float,
                       gamma: float) -> float:
    """Angle between the two rotated vectors, from the original angles.

    Each v is rotated within its (v_0, v) plane to the angle
    f_gamma(theta); the new pair angle follows from the spherical law of
    cosines, with the dihedral angle at v_0 preserved.  The triple must be
    realizable by unit vectors: |cos x - cos y cos z| <= sin y sin z.
    """
    x, y, z = (float(_check_angle(v, name)) for v, name in (
        (theta_ij, "theta_ij"), (theta_i, "theta_i"), (theta_j, "theta_j")))
    slack = abs(math.cos(x) - math.cos(y) * math.cos(z)) \
        - math.sin(y) * math.sin(z)
    if slack > 1e-9:
        raise UnrealizableTripleError(
            f"angles ({x}, {y}, {z}) violate |cos x - cos y cos z| "
            "<= sin y sin z and cannot come from unit vectors")
    gamma = _check_gamma(gamma)
    return float(_rotated_pair_angles(np.cos(x), y, z, _rotate(y, gamma),
                                      _rotate(z, gamma)))


# ---------------------------------------------------------------------------
# Hyperplane rounding
# ---------------------------------------------------------------------------

def _rotated_vectors(V: np.ndarray, gamma: float) -> np.ndarray:
    """Materialize each v_i rotated to angle f_gamma(theta_i) within the
    span of {v_0, v_i} (degenerate v_i = +-v_0 stay put)."""
    v0 = V[0]
    buyers = V[1:]
    cos_t = np.clip(buyers @ v0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    ft = _rotate(theta, float(gamma))
    sin_t = np.sin(theta)
    ortho = buyers - cos_t[:, None] * v0[None, :]
    safe = np.maximum(sin_t, 1e-12)[:, None]
    u = ortho / safe
    rotated = np.cos(ft)[:, None] * v0[None, :] + np.sin(ft)[:, None] * u
    degenerate = sin_t < 1e-9
    if np.any(degenerate):
        rotated[degenerate] = np.sign(cos_t[degenerate])[:, None] * v0[None, :]
    return np.vstack([v0[None, :], rotated])


def _hyperplane_members(Vrot: np.ndarray, rng, trials: int) -> np.ndarray:
    """(trials, n) membership matrix: buyer i joins A when its rotated
    vector ``Vrot[i + 1]`` lands on ``Vrot[0]``'s side of a uniformly
    random hyperplane."""
    R = rng.standard_normal((trials, Vrot.shape[1]))
    R /= np.maximum(np.linalg.norm(R, axis=1, keepdims=True), 1e-300)
    side = R @ Vrot.T >= 0.0  # (trials, n+1)
    return side[:, 1:] == side[:, :1]


def round_hyperplane(sol: SdpSolution, gamma: float, seed=0) -> frozenset:
    """One random-hyperplane draw: the sampled influence set."""
    _check_gamma(gamma)
    seed = _check_seed(seed)
    members = _hyperplane_members(_rotated_vectors(sol.vectors, gamma),
                                  np.random.default_rng(seed), 1)[0]
    return frozenset(np.flatnonzero(members).tolist())


@dataclass(frozen=True, eq=False)
class SdpIEResult:
    """Best-of-trials rounding of the relaxation into an IE strategy."""

    strategy: IEStrategy
    revenue: float
    p: float
    gamma: float
    sdp_objective: float
    solution: SdpSolution
    trials: int
    seed: object

    def solver_diagnostics(self) -> dict:
        """The relaxation's certified upper bound and gap, whether the
        ascent (0) or the integral assignment (-1) was rounded, and whether
        the solver found both numpy's and scipy's OpenBLAS to pin to one
        thread."""
        sol = self.solution
        return {"sdp_upper_bound": sol.upper_bound,
                "sdp_certified_gap": sol.certified_gap,
                "winning_start": sol.winning_start,
                "blas_pinned": len(_openblas_thread_controls()) == 2}

    def to_json(self) -> dict:
        return {"strategy": self.strategy.to_json(), "revenue": self.revenue,
                "p": self.p, "gamma": self.gamma,
                "sdp_objective": self.sdp_objective, "trials": self.trials,
                "converged": self.solution.converged,
                **self.solver_diagnostics()}


def sdp_ie(g: SocialNetwork, p: Optional[float] = None,
           gamma: Optional[float] = None, trials: int = 100, seed=0,
           rank: Optional[int] = None) -> SdpIEResult:
    """Solve the relaxation, rotate, round ``trials`` hyperplanes, and keep
    the sampled influence set with the highest expected revenue.

    Defaults to the headline parameters: (p, gamma) = (2/3, 0.722) directed,
    (0.586, 0.209) undirected.  The expected single-trial revenue is at
    least 0.9064 (directed) resp. 0.9032 (undirected) times the relaxation
    objective at those parameters; taking the best of many trials only
    helps.  The hyperplanes are drawn and scored in blocks, so memory does
    not grow with ``trials``.
    """
    _require_normalized(g, "sdp_ie")
    seed = _check_seed(seed)
    trials = _check_int(trials, "trials", 1, MAX_TRIALS)
    if p is None:
        p = DIRECTED_SDP_PRICING if g.directed else UNDIRECTED_SDP_PRICING
    if gamma is None:
        gamma = DIRECTED_SDP_GAMMA if g.directed else UNDIRECTED_SDP_GAMMA
    _check_gamma(gamma)
    prob = build_sdp(g, p)
    p = prob.p
    sol = solve_sdp(prob, rank=rank, seed=seed)
    Vrot = _rotated_vectors(sol.vectors, gamma)
    rng = np.random.default_rng(seed)
    rows = _batch_rows(g)  # the blocks of ie_revenue_batch, so bits match
    best = None
    for start in range(0, trials, rows):
        members = _hyperplane_members(Vrot, rng, min(rows, trials - start))
        revenues = ie_revenue_batch(g, members, p)
        k = int(np.argmax(revenues))
        if best is None or revenues[k] > best[0]:  # the first best is kept
            best = float(revenues[k]), members[k]
    revenue, members = best
    strategy = IEStrategy(np.flatnonzero(members), p)
    return SdpIEResult(strategy=strategy, revenue=revenue, p=p,
                       gamma=gamma, sdp_objective=sol.objective_value,
                       solution=sol, trials=trials, seed=seed)
