import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netrev
from netrev import sdprelax
from netrev import (
    DIRECTED_SDP_GAMMA,
    DIRECTED_SDP_PRICING,
    UNDIRECTED_SDP_GAMMA,
    UNDIRECTED_SDP_PRICING,
    SdpSolution,
    SocialNetwork,
    UnrealizableTripleError,
    ValidationError,
    best_ie_exhaustive,
    build_sdp,
    generate,
    ie_revenue,
    rotate,
    rotated_pair_angle,
    round_hyperplane,
    sdp_ie,
    solve_sdp,
)
from netrev.sdprelax import (CONSTRAINT_SIGNS, _al_value_grad,
                              _best_integral_signs, _dual_bound,
                              _scatter_matrix, _unit_rows, default_rank)


def test_headline_parameters():
    assert DIRECTED_SDP_PRICING == pytest.approx(2 / 3)
    assert DIRECTED_SDP_GAMMA == pytest.approx(0.722)
    assert UNDIRECTED_SDP_PRICING == pytest.approx(0.586)
    assert UNDIRECTED_SDP_GAMMA == pytest.approx(0.209)


# ---------------------------------------------------------------------------
# Relaxation objective
# ---------------------------------------------------------------------------

def _ie_set_from_signs(y):
    # buyer i (vector i+1) is an influence-set member when aligned with v_0
    return frozenset(i for i in range(len(y) - 1) if y[i + 1] == y[0])


@pytest.mark.parametrize("directed", [False, True])
def test_objective_reproduces_ie_revenue_at_integral_points(directed, random_net):
    g = random_net(20 + directed, n=5, directed=directed,
                   self_weights=not directed)
    p = 0.64
    prob = build_sdp(g, p)
    for bits in itertools.product([-1, 1], repeat=6):
        y = np.array(bits)
        A = _ie_set_from_signs(y)
        assert prob.objective_at_signs(y) == pytest.approx(
            ie_revenue(g, A, p), abs=1e-10)


def test_objective_of_gram_matches_signs(random_net):
    g = random_net(21, n=4)
    prob = build_sdp(g, 0.7)
    y = np.array([1, -1, 1, 1, -1], dtype=np.float64)
    G = np.outer(y, y)
    assert prob.objective_of_gram(G) == pytest.approx(prob.objective_at_signs(y))


def test_build_sdp_validation(random_net):
    g = random_net(22, n=4)
    with pytest.raises(ValidationError):
        build_sdp(g, 0.4)
    with pytest.raises(ValidationError):
        build_sdp(g, 1.0)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def test_solver_dominates_exhaustive_best_ie(random_net):
    for seed in range(4):
        directed = bool(seed % 2)
        g = random_net(30 + seed, n=6, directed=directed,
                       self_weights=not directed)
        p = DIRECTED_SDP_PRICING if directed else UNDIRECTED_SDP_PRICING
        best = best_ie_exhaustive(g, p=p).best_value
        sol = solve_sdp(build_sdp(g, p), seed=seed)
        assert sol.objective_value >= best - 1e-6 * max(best, 1.0)
        assert sol.max_violation <= 1e-3


def test_solver_exact_on_bipartite_cycle(cycle4):
    # integral optimum IE({1,3}, 1/2) = 1 = (W+N)/4: the relaxation cannot
    # exceed the upper bound here, so the solver must return exactly 1
    sol = solve_sdp(build_sdp(cycle4, 0.5), seed=0)
    assert sol.converged
    assert sol.objective_value == pytest.approx(1.0, abs=1e-5)


def test_solver_is_covariant_under_weight_scale():
    # the problem is solved in units of a power of two near mean |coef|, so
    # a power-of-two weight scale changes nothing but the objective's units
    g = generate("random", 50, density=4 / 49, weight_range=(0.1, 1.0),
                 seed=11)
    base = sdp_ie(g, seed=0)
    assert base.solution.converged
    for c in (2.0 ** -20, 2.0 ** 20):
        res = sdp_ie(g.scaled(c), seed=0)
        assert res.strategy.influence_set == base.strategy.influence_set
        assert res.sdp_objective / c == base.sdp_objective
        assert res.solution.upper_bound / c == base.solution.upper_bound
        assert res.solution.certified_gap == base.solution.certified_gap
        assert res.solution.problem.coef.tolist() == \
            build_sdp(g.scaled(c), base.p).coef.tolist()
    # small weights must not stall at the integral start
    res = sdp_ie(g.scaled(1e-4), seed=0)
    assert res.solution.converged
    assert res.sdp_objective / 1e-4 == pytest.approx(base.sdp_objective,
                                                     rel=1e-5)


def test_penalty_sized_to_one_pair_converges_fast():
    g = generate("random", 200, density=4 / 199, weight_range=(0.1, 1.0),
                 seed=500)
    res = sdp_ie(g, seed=0)
    assert res.solution.converged
    assert res.sdp_objective >= 46.215
    assert res.solution.iterations <= 2500


def test_solver_trace_records_every_round():
    g = generate("random", 50, density=4 / 49, weight_range=(0.1, 1.0),
                 seed=11)
    sol = solve_sdp(build_sdp(g, UNDIRECTED_SDP_PRICING), seed=0)
    assert sum(r.iterations for r in sol.trace) == sol.iterations
    starts = sorted({r.start for r in sol.trace})
    assert starts == list(range(sol.starts_run))
    for s in starts:
        rounds = [r for r in sol.trace if r.start == s]
        assert [r.round for r in rounds] == list(range(len(rounds)))
        assert len(rounds) >= 5
        assert [r.ftol for r in rounds[:4]] == pytest.approx(
            [1e-5, 1e-6, 1e-7, 1e-8], rel=1e-12)
        assert all(r.ftol == sdprelax.FTOL_FLOOR for r in rounds[4:])
        assert rounds[0].mu == sdprelax.MU_START
    assert 0 <= sol.winning_start < sol.starts_run <= sdprelax.STARTS
    last = [r for r in sol.trace if r.start == sol.winning_start][-1]
    assert last.objective == sol.objective_value
    assert last.max_violation == sol.max_violation


def _gaps_after_each_start(prob, sol, seed):
    """Whether each start converged (stopped before MAX_OUTER rounds) and
    the relative certified gap after it, recomputed from the trace in
    coefficient units, as the stopping rule sees it."""
    unit = sdprelax._coefficient_unit(prob.coef)
    best = prob.objective_at_signs(_best_integral_signs(prob, seed))
    upper = math.inf
    for s in range(sol.starts_run):
        rounds = [r for r in sol.trace if r.start == s]
        upper = min(upper, *(r.upper_bound / unit for r in rounds))
        if rounds[-1].max_violation <= sdprelax.FEAS_TOL:
            best = max(best, rounds[-1].objective / unit)
        yield (len(rounds) < sdprelax.MAX_OUTER,
               (upper - best) / max(1.0, abs(best)))


@pytest.mark.parametrize("n, seed, starts", [
    (50, 11, 1), (100, 12, 1), (12, 3, 1), (7, 5, 2), (6, 1, 3)])
def test_solver_skips_starts_only_once_the_gap_is_certified(n, seed, starts):
    g = generate("random", n, density=min(1.0, 4 / (n - 1)),
                 weight_range=(0.1, 1.0), seed=seed)
    prob = build_sdp(g, UNDIRECTED_SDP_PRICING)
    sol = solve_sdp(prob, seed=0)
    assert sol.converged and sol.starts_run == starts
    assert sol.upper_bound == min(r.upper_bound for r in sol.trace)
    gaps = list(_gaps_after_each_start(prob, sol, 0))
    for converged, gap in gaps[:-1]:
        assert not (converged and gap <= sdprelax.OBJ_TOL)
    assert gaps[-1][1] == sol.certified_gap
    if sol.starts_run < sdprelax.STARTS:
        assert gaps[-1][0] and sol.certified_gap <= sdprelax.OBJ_TOL


def test_solver_without_coefficients_returns_the_integral_start():
    sol = solve_sdp(build_sdp(SocialNetwork(False, 3, []), 0.5))
    assert sol.trace == () and sol.winning_start == -1
    assert sol.iterations == 0 and sol.objective_value == 0.0


@pytest.mark.parametrize("n, directed, seed", [
    (50, False, 11), (100, False, 12), (50, True, 13),
    (8, False, 14), (12, True, 15), (16, False, 16)])
def test_ftol_schedule_matches_solves_at_the_floor(n, directed, seed,
                                                   monkeypatch):
    # the reference runs every inner round at the floor, the tolerance all
    # rounds used before the schedule
    g = generate("random", n, directed=directed,
                 density=min(1.0, 4 / (n - 1)), weight_range=(0.1, 1.0),
                 seed=seed)
    prob = build_sdp(g, DIRECTED_SDP_PRICING if directed
                     else UNDIRECTED_SDP_PRICING)
    scheduled = solve_sdp(prob, seed=0)
    monkeypatch.setattr(sdprelax, "FTOL_START", sdprelax.FTOL_FLOOR)
    reference = solve_sdp(prob, seed=0)
    assert {r.ftol for r in reference.trace} == {sdprelax.FTOL_FLOOR}
    assert scheduled.converged and reference.converged
    assert scheduled.objective_value == pytest.approx(
        reference.objective_value, rel=1e-5)
    if n >= 50:
        assert scheduled.iterations < reference.iterations


@pytest.mark.parametrize("rank", [0, -3, 1.5, 2.0, True, "3"])
def test_rank_must_be_a_positive_integer(rank, cycle4):
    with pytest.raises(ValidationError):
        solve_sdp(build_sdp(cycle4, 0.5), rank=rank)
    with pytest.raises(ValidationError):
        sdp_ie(cycle4, rank=rank)


def test_rank_one_and_large_ranks_are_accepted(cycle4):
    for rank in (1, np.int64(3), 100):
        sol = solve_sdp(build_sdp(cycle4, 0.5), rank=rank, seed=0)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-5)


def _dense_coefficients(prob):
    """Symmetric C with objective = constant + <C, V V^T>."""
    m = prob.num_vectors
    C = np.zeros((m, m))
    np.add.at(C, (prob.coef_a, prob.coef_b), 0.5 * prob.coef)
    np.add.at(C, (prob.coef_b, prob.coef_a), 0.5 * prob.coef)
    return C


def _edge_pairs(g):
    """Vector indices (i+1, j+1), i < j, of each buyer pair with an edge."""
    pairs = sorted({(min(i, j) + 1, max(i, j) + 1)
                    for i, j in zip(g.edge_src.tolist(), g.edge_dst.tolist())})
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def _edge_pair_rows(V, g):
    """(edge pairs, 4) constraint values plus one at unit vectors V."""
    I, J = _edge_pairs(g)
    G = V @ V.T
    return np.column_stack([G[I, J], G[0, I], G[0, J]]) @ CONSTRAINT_SIGNS.T + 1.0


def _dense_al_reference(g, prob, X, lam, mu):
    """The augmented Lagrangian written out over dense (n+1)^2 matrices:
    C, the full Gram matrix V V^T, and every edge pair's four rows read
    from it; the formula the pair-list evaluation replaces."""
    C = _dense_coefficients(prob)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    V = X / norms
    I, J = _edge_pairs(g)
    mult = np.maximum(0.0, lam - mu * _edge_pair_rows(V, g))
    obj = prob.constant + np.sum(C * (V @ V.T))
    pen = np.sum(mult * mult - lam * lam) / (2.0 * mu)
    half = 0.5 * mult @ CONSTRAINT_SIGNS
    A = C.copy()
    np.add.at(A, (I, J), half[:, 0])
    np.add.at(A, (J, I), half[:, 0])
    z = np.zeros(prob.num_vectors)
    np.add.at(z, I, half[:, 1])
    np.add.at(z, J, half[:, 2])
    A[0, :] += z
    A[:, 0] += z
    gV = -2.0 * (A @ V)
    gX = (gV - np.sum(gV * V, axis=1, keepdims=True) * V) / norms
    return pen - obj, gX.ravel()


def _eval_network(kind, random_net):
    if kind == "undirected":
        return random_net(40, n=8, self_weights=True)
    if kind == "directed":
        return random_net(41, n=8, directed=True)
    if kind == "directed_both_ways":
        # 0->1 and 1->0, 2->3 and 3->2: one row set per unordered pair
        return SocialNetwork(True, 5, [(0, 1, 0.7), (1, 0, 0.4), (1, 2, 0.9),
                                       (3, 2, 0.5), (2, 3, 0.3), (0, 4, 0.6)])
    # buyer 5 is isolated; buyers 1, 3 and 5 have no self-weight
    return SocialNetwork(False, 6, [(0, 1, 0.7), (1, 2, 0.4), (3, 4, 0.9),
                                    (0, 4, 0.2)],
                         self_weights=[0.3, 0.0, 0.5, 0.0, 0.8, 0.0])


@pytest.mark.parametrize("kind", ["undirected", "directed", "directed_both_ways",
                                  "undirected_isolated"])
def test_al_evaluation_matches_dense_formula_and_finite_differences(
        kind, random_net):
    g = _eval_network(kind, random_net)
    prob = build_sdp(g, 0.6)
    m, rank = prob.num_vectors, default_rank(g.n)
    pairs = _edge_pairs(g).shape[1]
    if kind == "directed_both_ways":
        assert pairs == 4 < g.num_edges
    rng = np.random.default_rng(3)
    # multipliers chosen so that some rows are slack and some are penalized
    lam = rng.uniform(0.0, 2.0, size=(pairs, 4))
    mu = 1.5
    args = (prob, *_scatter_matrix(prob), lam, mu)
    X = rng.standard_normal((m, rank))

    F, grad = _al_value_grad(X.ravel(), *args)
    F_ref, grad_ref = _dense_al_reference(g, prob, X, lam, mu)
    assert F == pytest.approx(F_ref, abs=1e-10)
    np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-10)

    h = 1e-6
    fd = np.empty(X.size)
    for k in range(X.size):
        e = np.zeros(X.size)
        e[k] = h
        fd[k] = (_al_value_grad(X.ravel() + e, *args)[0]
                 - _al_value_grad(X.ravel() - e, *args)[0]) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)


@pytest.mark.parametrize("directed", [False, True])
def test_solution_satisfies_every_edge_pair_row(directed, random_net):
    g = random_net(80 + directed, n=40, directed=directed, density=0.1,
                   self_weights=not directed)
    sol = solve_sdp(build_sdp(g, 0.6), seed=0)
    assert sol.max_violation <= 1e-4
    assert _edge_pair_rows(sol.vectors, g).min() >= -sol.max_violation - 1e-12


def _dense_greedy_signs(prob, seed):
    """The greedy start written over the dense (n+1)^2 matrix C."""
    C = _dense_coefficients(prob)
    rng = np.random.default_rng(seed)
    best_y, best_v = None, -np.inf
    for trial in range(4):
        y = np.ones(prob.num_vectors)
        if trial > 0:
            y[1:] = rng.choice([-1.0, 1.0], size=prob.n)
        while True:
            gains = -4.0 * y * (C @ y)
            gains[0] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] <= 1e-12:
                break
            y[k] = -y[k]
        v = float(y @ C @ y)
        if v > best_v:
            best_v, best_y = v, y.copy()
    return best_y


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", [1, 7, 12, 16, 17, 30, 300])
def test_greedy_start_matches_dense_greedy(n, directed, random_net):
    g = random_net(70 + n, n=n, directed=directed, density=0.3,
                   self_weights=not directed)
    prob = build_sdp(g, 0.6)
    for seed in (0, 1):
        np.testing.assert_array_equal(_best_integral_signs(prob, seed),
                                      _dense_greedy_signs(prob, seed))


def test_solver_memory_grows_with_edges_not_n_squared():
    # one (n+1)^2 float64 array at n=5000 alone takes 200 MB
    g = generate("path", 5000)
    tracemalloc.start()
    try:
        prob = build_sdp(g, UNDIRECTED_SDP_PRICING)
        _best_integral_signs(prob, seed=0)
        X = np.random.default_rng(0).standard_normal(
            (prob.num_vectors, default_rank(g.n)))
        lam = np.ones((g.num_edges, 4))
        _al_value_grad(X.ravel(), prob, *_scatter_matrix(prob), lam, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_dual_bound_memory_grows_with_edges_not_n_squared():
    g = generate("path", 5000)
    prob = build_sdp(g, UNDIRECTED_SDP_PRICING)
    V = _unit_rows(np.random.default_rng(0).standard_normal(
        (prob.num_vectors, default_rank(g.n))))[0]
    lam = np.ones((g.num_edges, 4))
    tracemalloc.start()
    try:
        with sdprelax._one_blas_thread():
            bound = _dual_bound(prob, *_scatter_matrix(prob, diagonal=True),
                                V, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(bound)
    assert peak < 64 * 2 ** 20


def test_sdp_ie_output_does_not_depend_on_blas_threads():
    # from n = 400 on, scipy's L-BFGS-B threads its BLAS vector products
    # unless the solver pins the thread count
    src = str(Path(netrev.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for n, seed in ((200, 500), (400, 3)):
        code = ("import hashlib, json, netrev\n"
                f"g = netrev.generate('random', {n}, density=4 / {n - 1},"
                f" weight_range=(0.1, 1.0), seed={seed})\n"
                "res = netrev.sdp_ie(g, seed=0)\n"
                "print(json.dumps(res.to_json()))\n"
                "print(hashlib.sha256(res.solution.vectors.tobytes())"
                ".hexdigest())")
        outputs = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=600,
            env=dict(os.environ, PYTHONPATH=path,
                     OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
        assert json.loads(outputs[0].splitlines()[0])["converged"]
        assert outputs[0] == outputs[1]


def test_solution_angles_shape(cycle4):
    sol = solve_sdp(build_sdp(cycle4, 0.5), seed=0)
    th = sol.angles()
    assert th.shape == (4,)
    assert np.all((0 <= th) & (th <= math.pi))


# ---------------------------------------------------------------------------
# Rotation geometry
# ---------------------------------------------------------------------------

def test_rotate_endpoints_and_identity():
    assert rotate(0.0, 0.7) == pytest.approx(0.0)
    assert rotate(math.pi, 0.7) == pytest.approx(math.pi)
    t = np.linspace(0, math.pi, 50)
    np.testing.assert_allclose(rotate(t, 0.0), t)
    np.testing.assert_allclose(rotate(t, 1.0), math.pi * (1 - np.cos(t)) / 2)


def test_rotate_monotone_for_valid_gamma():
    t = np.linspace(0, math.pi, 200)
    for gamma in (0.0, 0.209, 0.5, 0.722, 1.0):
        ft = rotate(t, gamma)
        assert np.all(np.diff(ft) >= -1e-12)


def test_rotate_validation():
    with pytest.raises(ValidationError):
        rotate(0.5, 1.5)
    with pytest.raises(ValidationError):
        rotate(-0.5, 0.5)
    with pytest.raises(ValidationError):
        rotate(3.5, 0.5)


def test_rotated_pair_angle_matches_explicit_vectors():
    """The spherical-law update must agree with literally rotating vectors."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        y, z = rng.uniform(0.05, math.pi - 0.05, size=2)
        phi = rng.uniform(0.0, math.pi)
        gamma = rng.uniform(0.0, 1.0)
        v0 = np.array([1.0, 0.0, 0.0])
        u = np.array([math.cos(y), math.sin(y), 0.0])
        v = np.array([math.cos(z),
                      math.sin(z) * math.cos(phi),
                      math.sin(z) * math.sin(phi)])
        x = math.acos(np.clip(u @ v, -1, 1))
        fy, fz = rotate(y, gamma), rotate(z, gamma)
        ur = np.array([math.cos(fy), math.sin(fy), 0.0])
        vr = np.array([math.cos(fz),
                       math.sin(fz) * math.cos(phi),
                       math.sin(fz) * math.sin(phi)])
        expect = math.acos(np.clip(ur @ vr, -1, 1))
        assert rotated_pair_angle(x, y, z, gamma) == pytest.approx(expect, abs=1e-9)


def test_rotated_pair_angle_degenerate_triples():
    # v_i = v_0 exactly: the pair angle is just the other rotated angle
    assert rotated_pair_angle(1.2, 0.0, 1.2, 0.7) == pytest.approx(rotate(1.2, 0.7))
    # v_i = -v_0: supplementary
    assert rotated_pair_angle(math.pi - 1.2, math.pi, 1.2, 0.7) == pytest.approx(
        math.pi - rotate(1.2, 0.7))


def test_rotated_pair_angles_broadcasts_each_term_at_its_own_shape():
    from netrev.certificates import _band_angle

    gamma = 0.722
    # both poles of theta_i and theta_j, and t = 0 and 1 put cos x at the
    # ends of its band
    y = np.array([0.0, 1e-12, 2e-9, 0.3, 1.7, math.pi - 1e-12,
                  math.pi])[:, None, None]
    z = np.array([0.0, 0.9, 2.5, math.pi])[None, :, None]
    t = np.linspace(0.0, 1.0, 5)[None, None, :]
    x = np.broadcast_to(_band_angle(y, z, t), (7, 4, 5))
    for cx in (np.linspace(-1.0, 1.0, 5)[None, None, :], np.cos(x)):
        got = sdprelax._rotated_pair_angles(cx, y, z, gamma)
        full = sdprelax._rotated_pair_angles(
            *np.broadcast_arrays(cx, y, z), gamma)
        assert got.shape == (7, 4, 5)
        np.testing.assert_array_equal(got, full)
    Y, Z = np.broadcast_arrays(y, z, x)[:2]
    for idx in np.ndindex(x.shape):
        assert got[idx] == pytest.approx(
            rotated_pair_angle(x[idx], Y[idx], Z[idx], gamma),
            rel=0, abs=1e-15)


def test_rotated_pair_angle_rejects_impossible_triple():
    with pytest.raises(UnrealizableTripleError):
        rotated_pair_angle(3.0, 0.4, 0.4, 0.5)


# ---------------------------------------------------------------------------
# Hyperplane rounding and end-to-end
# ---------------------------------------------------------------------------

def _solution_with_vectors(V):
    V = np.asarray(V, dtype=np.float64)
    return SdpSolution(vectors=V, objective_value=0.0, max_violation=0.0,
                       iterations=0, converged=True)


def test_round_hyperplane_alignment_convention():
    v0 = np.array([1.0, 0.0])
    aligned = _solution_with_vectors([v0, v0, v0])
    assert round_hyperplane(aligned, gamma=0.0, seed=1) == frozenset({0, 1})
    opposed = _solution_with_vectors([v0, -v0, -v0])
    assert round_hyperplane(opposed, gamma=0.0, seed=1) == frozenset()


def test_round_hyperplane_is_seeded():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((5, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    sol = _solution_with_vectors(V)
    assert round_hyperplane(sol, 0.3, seed=9) == round_hyperplane(sol, 0.3, seed=9)


def test_sdp_ie_recovers_cycle_optimum(cycle4):
    res = sdp_ie(cycle4, trials=100, seed=0)
    assert res.p == pytest.approx(UNDIRECTED_SDP_PRICING)
    assert res.gamma == pytest.approx(UNDIRECTED_SDP_GAMMA)
    assert sorted(res.strategy.influence_set) in ([0, 2], [1, 3])
    assert res.revenue == pytest.approx(
        ie_revenue(cycle4, res.strategy), abs=1e-12)
    assert res.revenue == pytest.approx(0.970416, abs=1e-6)
    assert res.revenue <= res.sdp_objective + 1e-6


def test_sdp_ie_directed_defaults(dag4):
    res = sdp_ie(dag4, trials=200, seed=0)
    assert res.p == pytest.approx(DIRECTED_SDP_PRICING)
    best = best_ie_exhaustive(dag4, p=DIRECTED_SDP_PRICING).best_value
    assert res.revenue >= 0.9 * best
    assert res.solution.converged


def test_sdp_ie_explicit_parameters(cycle4):
    res = sdp_ie(cycle4, p=0.5, gamma=0.0, trials=50, seed=3)
    assert res.p == 0.5 and res.gamma == 0.0
    assert res.revenue <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Certified upper bound
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def _criterion_4_instances():
    """The 50 seeded networks of acceptance criterion 4, with their
    solver seeds."""
    rng = np.random.default_rng(0)
    for k in range(50):
        directed = bool(k % 2)
        n = int(rng.integers(4, 11))
        g = generate(
            "random", n, directed=directed,
            density=float(rng.uniform(0.3, 0.9)), weight_range=(0.1, 1.0),
            self_weight_range=None if directed else (0.0, 0.5),
            seed=1000 + k)
        yield k, g


def _corpus_instances():
    for k, path in enumerate(sorted(CORPUS.glob("*.txt"))):
        yield k, netrev.load_network(path.read_text())


@pytest.mark.parametrize("instances", [_criterion_4_instances,
                                       _corpus_instances])
def test_upper_bound_dominates_exhaustive_best_ie_and_sdp_ie(instances):
    checked = 0
    for k, g in instances():
        if g.n > 16:
            continue
        res = sdp_ie(g, seed=k)
        bound = res.solution.upper_bound
        assert bound >= best_ie_exhaustive(g, res.p).best_value
        assert bound >= res.revenue
        # the vectors are feasible only to FEAS_TOL, so the objective may
        # sit slightly above the bound
        assert res.solution.certified_gap >= -sdprelax.FEAS_TOL
        checked += 1
    assert checked >= 11


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_upper_bound_dominates_every_integral_set(seed, directed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    g = generate("random", n, directed=directed,
                 density=float(rng.uniform(0.4, 1.0)),
                 weight_range=(0.1, 1.0),
                 self_weight_range=None if directed else (0.0, 0.6),
                 seed=seed + 3)
    prob = build_sdp(g, float(rng.uniform(0.5, 0.95)))
    sol = solve_sdp(prob, seed=seed)
    best = max(prob.objective_at_signs(np.array(bits))
               for bits in itertools.product([-1, 1], repeat=n + 1))
    assert sol.upper_bound >= best
    assert sol.certified_gap >= -sdprelax.FEAS_TOL


@pytest.mark.parametrize("g", [SocialNetwork(False, 3, []),
                               SocialNetwork(True, 4, []),
                               SocialNetwork(False, 0, [])])
def test_problem_without_coefficients_is_its_own_bound(g):
    sol = solve_sdp(build_sdp(g, 0.5))
    assert sol.upper_bound == sol.objective_value
    assert sol.certified_gap == 0.0 and sol.starts_run == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_relaxation_upper_bounds_every_integral_set(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    g = generate("random", n, density=float(rng.uniform(0.4, 1.0)),
                 weight_range=(0.1, 1.0), self_weight_range=(0.0, 0.6),
                 seed=seed + 3)
    p = float(rng.uniform(0.5, 0.95))
    prob = build_sdp(g, p)
    sol = solve_sdp(prob, seed=seed)
    best = max(prob.objective_at_signs(np.array(bits))
               for bits in itertools.product([-1, 1], repeat=n + 1))
    assert sol.objective_value >= best - 1e-6 * max(1.0, abs(best))
