"""Ground-truth engines: exhaustive and multistart searches for optimal
strategies, gadget revenue tables, and a Monte Carlo simulator that runs
the buyer valuation model directly.

The searches are the reference points the approximation algorithms are
measured against.  ``best_ie_exhaustive`` is exact (it enumerates every
influence set and maximizes the cubic revenue in p in closed form);
``best_strategy_search`` is a heuristic lower bound except for directed
networks small enough to enumerate every approach order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence, default_rng

from .netmodel import (GADGET_SELECTION_NODES, SocialNetwork, ValidationError,
                       gadget)
from .revenue import (IEStrategy, MarketingStrategy, _check_exploit_prob,
                      _check_price_prob, _ie_cubic, _require_normalized,
                      best_ordering_for_prices, ie_coefficients_batch,
                      ie_revenue, strategy_family)

_CHUNK = 1 << 15
_SIM_CELLS = 1 << 17
_TINY = 1e-12

_ENUMERATION_LIMIT = 22
_PERMUTATION_LIMIT = 8
_ORDERING_LIMIT = 10
_UNDIRECTED_LIMIT = 50


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one ground-truth search.

    ``method`` is "exhaustive" when the search space was fully enumerated
    and "multistart" for the heuristic continuous searches (whose values are
    lower bounds, not certified optima).  ``resolution`` carries the pitch
    of the multistart price grid when one was used.
    """

    best_value: float
    best_witness: object
    search_space_size: int
    method: str
    resolution: Optional[float] = None

    def to_json(self) -> dict:
        witness = {**self.best_witness.to_json(),
                   "family": self.best_witness.family}
        return {"best_value": self.best_value, "best_witness": witness,
                "search_space_size": self.search_space_size,
                "method": self.method, "resolution": self.resolution}


# ---------------------------------------------------------------------------
# Exhaustive best influence set
# ---------------------------------------------------------------------------

def _optimal_p_for_sets(C: np.ndarray, D: np.ndarray, scale: float):
    """Closed-form argmax over p in [1/2, 1) of p(1-p)(C + pD/2) per row.

    The stationary point solves (3D/2)p^2 + (2C - D)p - C = 0; the positive
    root is evaluated in the cancellation-free form for each sign of the
    linear coefficient.  Rows with vanishing quadratic coefficient take
    p = 1/2, the argmax of their objective p(1-p)C.
    """
    b = 2.0 * C - D
    s = np.sqrt(b * b + 6.0 * D * C)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(b >= 0.0,
                     np.where(s + b > 0.0, 2.0 * C / (s + b), 0.5),
                     (D - 2.0 * C + s) / np.maximum(3.0 * D, _TINY))
    p = np.where(D <= _TINY * scale, 0.5, p)
    p = np.clip(p, 0.5, 1.0 - 1e-12)
    vals = _ie_cubic(p, C, D)
    half = _ie_cubic(0.5, C, D)
    p = np.where(vals >= half, p, 0.5)
    vals = np.maximum(vals, half)
    return vals, p


def _bits_of(index: int, n: int) -> frozenset:
    return frozenset(int(i) for i in range(n) if (index >> i) & 1)


def best_ie_exhaustive(g: SocialNetwork, p: Optional[float] = None) -> OracleReport:
    """Exact best IE strategy by enumerating all 2^n influence sets.

    With ``p`` supplied the pricing probability is held fixed; otherwise
    each set gets its revenue-maximizing p in [1/2, 1).
    """
    _require_normalized(g, "best_ie_exhaustive")
    n = g.n
    if n > _ENUMERATION_LIMIT:
        raise ValidationError(
            f"best_ie_exhaustive enumerates 2^n sets; n={n} exceeds "
            f"{_ENUMERATION_LIMIT}")
    if p is not None:
        p = _check_exploit_prob(p)
    scale = max(1.0, g.W + g.N)
    total = 1 << n
    bit = np.arange(n, dtype=np.int64)
    best_val, best_idx, best_p = -np.inf, 0, 0.5
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        members = ((idx[None, :] >> bit[:, None]) & 1).astype(bool).T
        C, D = ie_coefficients_batch(g, members)
        if p is None:
            vals, popt = _optimal_p_for_sets(C, D, scale)
        else:
            vals = _ie_cubic(p, C, D)
            popt = np.full(idx.size, p)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_idx, best_p = float(vals[k]), int(idx[k]), float(popt[k])
    witness = IEStrategy(_bits_of(best_idx, n), best_p)
    return OracleReport(best_value=best_val, best_witness=witness,
                        search_space_size=total, method="exhaustive")


# ---------------------------------------------------------------------------
# Continuous strategy search
# ---------------------------------------------------------------------------

_SWEEPS = 120
_WARM_UP_STEPS = 20


def _price_positions(P: np.ndarray) -> np.ndarray:
    """Approach positions of each row's price sort, dearest first and ties
    by index: the best order for those prices on an undirected network."""
    return np.argsort(np.argsort(-P, axis=1, kind="stable"), axis=1)


def _buyer_terms(Wm, sw, P, pos, i):
    """A_i and B_i of buyer i in every row of prices P approached in the
    order pos: as a function of p_i alone, the row's revenue is
    p_i (1 - p_i) A_i + p_i B_i.  A_i is w_ii plus w_ji p_j over the buyers
    j approached earlier, B_i is w_ik p_k (1 - p_k) over those later."""
    before = pos < pos[:, [i]]
    A = sw[i] + (P * before) @ Wm[:, i]
    # ~before is {i} plus the buyers after i; the diagonal of Wm is zero,
    # so the i term contributes nothing to B.
    B = (P * (1.0 - P) * ~before) @ Wm[i]
    return A, B


def _revenue_rows(Wm, sw, pos, P) -> np.ndarray:
    """Revenue of every row of prices P approached in the order pos."""
    R = np.zeros(pos.shape[0])
    for i in range(pos.shape[1]):
        A = sw[i] + (P * (pos < pos[:, [i]])) @ Wm[:, i]
        R += P[:, i] * (1.0 - P[:, i]) * A
    return R


def _ascend(Wm, sw, P, pos=None, free=None):
    """Batched coordinate ascent over the rows of P, in place.

    Each update sets column i of every row to its maximizer
    clip(1/2 + B_i / (2 A_i), 1/2, 1), or to 1 where A_i vanishes; buyers
    are taken in index order, and only the columns in the mask ``free``
    (default all) move.  Sweeps stop once none moves a price by 1e-12, or
    after ``_SWEEPS``.  With ``pos`` None each row is approached in its
    price order, re-sorted before every sweep, and ``_WARM_UP_STEPS``
    projected-gradient steps run first: step t moves each row's steepest
    free price by 0.12 / sqrt(t).  With fixed ``pos`` the rows do not
    interact, so a row whose sweep left every price unchanged, a fixed
    point, is not swept again.
    """
    cols = range(P.shape[1]) if free is None else np.flatnonzero(free)
    tiny = _TINY * max(1.0, float(np.max(sw, initial=0.0)),
                       float(np.max(Wm, initial=0.0)))
    for step in range(_WARM_UP_STEPS if pos is None else 0):
        at = _price_positions(P)
        grad = np.zeros_like(P)
        for i in cols:
            A, B = _buyer_terms(Wm, sw, P, at, i)
            grad[:, i] = (1.0 - 2.0 * P[:, i]) * A + B
        gmax = np.max(np.abs(grad), axis=1, initial=0.0)
        rate = np.where(gmax > tiny, 0.12 / (np.maximum(gmax, tiny)
                                             * math.sqrt(1.0 + step)), 0.0)
        np.clip(P + rate[:, None] * grad, 0.5, 1.0, out=P)
    live = slice(None) if pos is None else np.arange(P.shape[0])
    for _ in range(_SWEEPS):
        Q = P[live]
        at = _price_positions(Q) if pos is None else pos[live]
        delta = np.zeros(Q.shape[0])
        for i in cols:
            A, B = _buyer_terms(Wm, sw, Q, at, i)
            new = np.where(A <= tiny, 1.0,
                           np.clip(0.5 + B / np.maximum(2.0 * A, _TINY), 0.5, 1.0))
            delta = np.maximum(delta, np.abs(new - Q[:, i]))
            Q[:, i] = new
        if pos is not None:
            P[live] = Q
            live = live[delta > 0.0]
        if np.max(delta, initial=0.0) < 1e-12:
            break


def _undirected_starts(n, free_nodes, rng):
    f = len(free_nodes)
    for c in (0.5, 0.75, 1.0):
        yield np.full(n, c)
    patterns = (itertools.product((0.5, 1.0), repeat=f) if f <= 10 else
                (tuple(rng.choice((0.5, 1.0), size=f)) for _ in range(64)))
    for pat in patterns:
        p = np.full(n, 0.5)
        p[free_nodes] = pat
        yield p
    for _ in range(32):
        yield 0.5 + rng.integers(0, 9, size=n) / 16.0
    for _ in range(32):
        yield rng.uniform(0.5, 1.0, size=n)


def _search_undirected(g: SocialNetwork, pins: dict, seed) -> OracleReport:
    n = g.n
    Wm = g.in_weight_matrix()
    sw = np.asarray(g.self_weights)
    free = np.ones(n, dtype=bool)
    free[list(pins)] = False
    P = np.array(list(_undirected_starts(n, np.flatnonzero(free),
                                         default_rng(seed))))
    P[:, list(pins)] = list(pins.values())
    _ascend(Wm, sw, P, free=free)
    R = _revenue_rows(Wm, sw, _price_positions(P), P)
    k = int(np.argmax(R))
    return OracleReport(best_value=float(R[k]),
                        best_witness=best_ordering_for_prices(g, P[k]),
                        search_space_size=P.shape[0], method="multistart",
                        resolution=1.0 / 16.0)


def _all_positions(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    return np.argsort(perms, axis=1)


def _search_directed(g: SocialNetwork, seed) -> OracleReport:
    n = g.n
    Wm = g.in_weight_matrix()
    sw = np.asarray(g.self_weights)
    pos = _all_positions(n)
    m = pos.shape[0]
    rng = default_rng(seed)
    starts = [np.full((m, n), 0.75), np.full((m, n), 1.0),
              np.full((m, n), 0.5), rng.uniform(0.5, 1.0, size=(m, n))]
    best_val, best_row, best_P = -np.inf, 0, None
    # One start at a time: stacked, every row would sweep until the slowest
    # row of any start converged, in four times the memory.
    for P in starts:
        _ascend(Wm, sw, P, pos)
        R = _revenue_rows(Wm, sw, pos, P)
        k = int(np.argmax(R))
        if R[k] > best_val:
            best_val, best_row, best_P = float(R[k]), k, P[k].copy()
    order = tuple(int(i) for i in np.argsort(pos[best_row]))
    witness = MarketingStrategy(order, tuple(float(x) for x in best_P))
    return OracleReport(best_value=best_val, best_witness=witness,
                        search_space_size=m * len(starts), method="multistart")


def best_strategy_search(g: SocialNetwork, seed=0) -> OracleReport:
    """Heuristic search for the best full marketing strategy.

    Undirected networks (n <= 50): the approach order is always the price
    sort, so the search runs multistart ascent over the price vector alone.
    Directed networks (n <= 8): every approach order is enumerated and the
    prices are optimized per order.  Values are lower bounds on the true
    optimum (method="multistart").
    """
    _require_normalized(g, "best_strategy_search")
    if g.directed:
        if g.n > _PERMUTATION_LIMIT:
            raise ValidationError(
                f"directed search enumerates n! orders; n={g.n} exceeds "
                f"{_PERMUTATION_LIMIT}")
        return _search_directed(g, seed)
    if g.n > _UNDIRECTED_LIMIT:
        raise ValidationError(
            f"undirected search supports n <= {_UNDIRECTED_LIMIT}")
    return _search_undirected(g, {}, seed)


def best_ordering_exhaustive(g: SocialNetwork, prices) -> OracleReport:
    """Exact best approach order for a fixed price vector (n <= 10)."""
    _require_normalized(g, "best_ordering_exhaustive")
    n = g.n
    if n > _ORDERING_LIMIT:
        raise ValidationError(
            f"best_ordering_exhaustive enumerates n! orders; n={n} exceeds "
            f"{_ORDERING_LIMIT}")
    prices = _check_price_prob(prices, "prices")
    if prices.shape != (n,):
        raise ValidationError("prices must supply one probability per buyer")
    Wm = g.in_weight_matrix()
    sw = np.asarray(g.self_weights)
    pos = _all_positions(n)
    best_val, best_row = -np.inf, 0
    for start in range(0, pos.shape[0], _CHUNK):
        block = pos[start:start + _CHUNK]
        R = _revenue_rows(Wm, sw, block, np.broadcast_to(prices, block.shape))
        k = int(np.argmax(R))
        if R[k] > best_val:
            best_val, best_row = float(R[k]), start + k
    order = tuple(int(i) for i in np.argsort(pos[best_row]))
    witness = MarketingStrategy(order, tuple(float(x) for x in prices))
    return OracleReport(best_value=best_val, best_witness=witness,
                        search_space_size=pos.shape[0], method="exhaustive")


# ---------------------------------------------------------------------------
# Gadget revenue tables
# ---------------------------------------------------------------------------

def _selection_pins(kind: str, constraint) -> dict:
    sel = GADGET_SELECTION_NODES[kind]
    if isinstance(constraint, dict):
        pins = {int(k): float(v) for k, v in constraint.items()}
        if not set(pins) <= set(sel):
            raise ValidationError(
                f"{kind} selection nodes are {sel}; got pins for {sorted(pins)}")
    else:
        pattern = tuple(float(v) for v in constraint)
        if len(pattern) != len(sel):
            raise ValidationError(
                f"{kind} needs one pinned price per selection node {sel}")
        pins = dict(zip(sel, pattern))
    for node, price in pins.items():
        if not 0.5 <= price <= 1.0:
            raise ValidationError(
                f"pinned price {price} for node {node} outside [1/2, 1]")
    return pins


def _subset_report(g: SocialNetwork, members, p: float) -> OracleReport:
    A = frozenset(int(i) for i in members)  # ie_revenue checks the range
    return OracleReport(best_value=ie_revenue(g, A, p),
                        best_witness=IEStrategy(A, p),
                        search_space_size=1, method="exhaustive")


def gadget_revenue_table(kind: str, constraint=None, p: Optional[float] = None,
                         seed=0):
    """Conditional revenue optima of the gadget networks.

    For ``extended_triangle`` and ``three_path`` the searched quantity is
    full-strategy revenue with the selection-node prices pinned to
    ``constraint`` (a dict or a per-node sequence); with no constraint the
    result is a table over all {1/2, 1} selection patterns plus the
    unconstrained optimum under key "free".  For ``set_triangle`` and
    ``set_edge`` the strategies are IE sets at pricing probability ``p``
    (default 1/2); ``constraint`` names the influence set, and no
    constraint tabulates every subset plus the best under key "best".
    """
    if kind in ("extended_triangle", "three_path"):
        if p is not None:
            raise ValidationError(
                "p applies to the set gadgets; strategy gadgets price freely")
        g = gadget(kind)
        if constraint is not None:
            return _search_undirected(g, _selection_pins(kind, constraint), seed)
        sel = GADGET_SELECTION_NODES[kind]
        table = {"free": _search_undirected(g, {}, seed)}
        for pattern in itertools.product((0.5, 1.0), repeat=len(sel)):
            key = ",".join(format(v, "g") for v in pattern)
            table[key] = _search_undirected(g, dict(zip(sel, pattern)), seed)
        return table
    if kind in ("set_triangle", "set_edge"):
        p = 0.5 if p is None else _check_exploit_prob(p)
        g = gadget(kind, p)
        if constraint is not None:
            return _subset_report(g, constraint, p)
        table = {}
        best = None
        for r in range(g.n + 1):
            for members in itertools.combinations(range(g.n), r):
                report = _subset_report(g, members, p)
                key = ",".join(str(i) for i in members) or "empty"
                table[key] = report
                if best is None or report.best_value > best.best_value:
                    best = report
        table["best"] = best
        return table
    raise ValidationError(f"unknown gadget kind {kind!r}")


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

_STREAM_KEYS = {"acceptance": 0xACC, "ordering": 0x08D, "assignment": 0xA55}


def _stream_uniforms(seed: int, stream: str, start: int, count: int,
                     width: int) -> np.ndarray:
    """Uniforms addressed by (trial, buyer), independent of chunking,
    returned buyer-major: entry [i, t] is buyer i's draw in trial start + t.

    Philox advances its counter once per block of four 64-bit outputs, so
    each trial is padded to a whole number of blocks and trial t always
    starts at block t * blocks regardless of where a chunk begins.
    """
    blocks = max(1, (width + 3) // 4)
    bg = Philox(SeedSequence([int(seed), _STREAM_KEYS[stream]]))
    bg.advance(start * blocks)
    vals = Generator(bg).random((count, 4 * blocks))
    return np.ascontiguousarray(vals[:, :width].T)


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo estimate of expected revenue.

    ``acceptance_counts[i]`` is the number of trials in which buyer i
    accepted the offer.  ``std_error`` is the sample standard error of the
    mean revenue.
    """

    mean: float
    std_error: float
    trials: int
    seed: int
    acceptance_counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error,
                "trials": self.trials, "seed": self.seed,
                "acceptance_counts": list(self.acceptance_counts)}


def simulate(g: SocialNetwork, strategy, trials: int, seed=0) -> SimulationReport:
    """Run the sequential-offer process ``trials`` times and estimate the
    expected revenue.

    Buyers are approached in the order of ``strategy.offers`` (the IE
    families redraw it every trial); each buyer i sees the total weight M
    of itself plus previously accepting buyers, is offered price
    (1 - p_i) * M, and accepts with probability p_i: when its valuation
    quantile, uniform on [0, 1], reaches 1 - p_i.  That holds for M = 0
    too, as in the closed forms: a buyer offered a zero-weight product at
    price 0 still accepts only with probability p_i.

    Acceptance does not depend on M, so a trial's acceptances a are drawn
    up front; with g_i = a_i (1 - p_i) it earns sum_i g_i w[i, i] plus
    w a_j g_i over stored edges (j, i, w) with j approached first (an
    undirected edge pays whichever endpoint comes later).  Cost is
    O(trials (n + |E|)), in chunks of about ``_SIM_CELLS`` buyer or edge
    cells.  Draws are addressed per (trial, buyer), so results depend only
    on ``seed``, never on chunk boundaries.  The standard error merges
    per-chunk centered moments (Chan, Golub and LeVeque 1979), so it
    survives a revenue whose spread is tiny next to its mean.
    """
    _require_normalized(g, "simulate")
    trials = int(trials)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    strategy_family(strategy)  # rejects a non-strategy
    n = g.n
    src, dst, w = g.edge_src, g.edge_dst, g.edge_weight
    chunk = max(1, _SIM_CELLS // max(1, n, w.size))
    seed = int(seed)
    done, mean, m2 = 0, 0.0, 0.0
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        prices, keys = strategy.offers(n, lambda s: _stream_uniforms(seed, s, start, m, n))
        accepted = _stream_uniforms(seed, "acceptance", start, m, n) >= 1.0 - prices
        gain = np.where(accepted, 1.0 - prices, 0.0)
        forward = keys[src] < keys[dst]
        revenue = g.self_weights @ gain + w @ np.where(
            forward, accepted[src] * gain[dst],
            0.0 if g.directed else accepted[dst] * gain[src])
        counts += np.sum(accepted, axis=1)
        chunk_mean = float(np.mean(revenue))
        chunk_m2 = float(np.sum((revenue - chunk_mean) ** 2))
        delta = chunk_mean - mean
        done += m
        mean += delta * m / done
        m2 += chunk_m2 + delta * delta * (done - m) * m / done
    std_error = math.sqrt(m2 / (trials - 1) / trials) if trials > 1 else 0.0
    return SimulationReport(mean=mean, std_error=std_error, trials=trials,
                            seed=seed,
                            acceptance_counts=tuple(int(c) for c in counts))
