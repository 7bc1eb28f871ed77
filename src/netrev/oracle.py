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
from .revenue import (IEStrategy, MarketingStrategy, _ClassIEStrategy,
                      _check_exploit_prob, _ie_cubic, _influence_mask,
                      _require_normalized, ie_coefficients_batch, ie_revenue,
                      strategy_family)

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
        witness = dict(self.best_witness.to_json())
        witness["family"] = strategy_family(self.best_witness)
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

def _sorted_revenue(Wm: np.ndarray, sw: np.ndarray, prices: np.ndarray) -> float:
    """Revenue of an undirected price vector under its best (sorted) order."""
    pos = np.empty(prices.size, dtype=np.int64)
    pos[np.argsort(-prices, kind="stable")] = np.arange(prices.size)
    before = pos[None, :] < pos[:, None]
    A = sw + (before * Wm.T) @ prices
    return float(np.sum(prices * (1.0 - prices) * A))


def _undirected_ascent(Wm, sw, p0, pins, pgd_steps=20, max_sweeps=250):
    """Projected-gradient warmup plus coordinate ascent, re-sorting the
    approach order after every pass; pinned coordinates stay fixed."""
    n = p0.size
    p = p0.copy()
    for node, price in pins.items():
        p[node] = price
    free = np.ones(n, dtype=bool)
    free[list(pins)] = False
    scale = max(1.0, float(np.max(sw) if n else 0.0), float(np.max(Wm)) if Wm.size else 0.0)
    for step in range(pgd_steps):
        pos = np.empty(n, dtype=np.int64)
        pos[np.argsort(-p, kind="stable")] = np.arange(n)
        before = pos[None, :] < pos[:, None]
        A = sw + (before * Wm.T) @ p
        B = (before.T * Wm) @ (p * (1.0 - p))
        grad = (1.0 - 2.0 * p) * A + B
        gmax = float(np.max(np.abs(grad[free]), initial=0.0))
        if gmax <= _TINY * scale:
            break
        p[free] += (0.12 / (gmax * math.sqrt(1.0 + step))) * grad[free]
        np.clip(p, 0.5, 1.0, out=p)
    best = -np.inf
    stall = 0
    for _ in range(max_sweeps):
        order = np.argsort(-p, kind="stable")
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        for i in order:
            if not free[i]:
                continue
            A_i = float(Wm[:, i] @ (p * (pos < pos[i]))) + sw[i]
            r = p * (1.0 - p)
            B_i = float(Wm[i] @ (r * (pos > pos[i])))
            if A_i <= _TINY * scale:
                p[i] = 1.0
            else:
                p[i] = min(1.0, max(0.5, 0.5 + B_i / (2.0 * A_i)))
        value = _sorted_revenue(Wm, sw, p)
        if value <= best + 1e-13 * max(1.0, abs(best)):
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        best = max(best, value)
    return best, p


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
    rng = default_rng(seed)
    free_nodes = np.array([i for i in range(n) if i not in pins], dtype=np.int64)
    best_val, best_p, starts = -np.inf, None, 0
    for p0 in _undirected_starts(n, free_nodes, rng):
        starts += 1
        val, p = _undirected_ascent(Wm, sw, p0, pins)
        if val > best_val:
            best_val, best_p = val, p
    order = tuple(int(i) for i in np.argsort(-best_p, kind="stable"))
    witness = MarketingStrategy(order, tuple(float(x) for x in best_p))
    return OracleReport(best_value=best_val, best_witness=witness,
                        search_space_size=starts, method="multistart",
                        resolution=1.0 / 16.0)


def _all_positions(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    return np.argsort(perms, axis=1)


def _perm_revenue_batch(Wm, sw, pos, Pr) -> np.ndarray:
    n = pos.shape[1]
    R = np.zeros(pos.shape[0])
    for i in range(n):
        before = pos < pos[:, [i]]
        A = sw[i] + (Pr * before) @ Wm[:, i]
        R += Pr[:, i] * (1.0 - Pr[:, i]) * A
    return R


def _search_directed(g: SocialNetwork, seed) -> OracleReport:
    n = g.n
    Wm = g.in_weight_matrix()
    sw = np.asarray(g.self_weights)
    pos = _all_positions(n)
    m = pos.shape[0]
    rng = default_rng(seed)
    starts = [np.full((m, n), 0.75), np.full((m, n), 1.0),
              np.full((m, n), 0.5), rng.uniform(0.5, 1.0, size=(m, n))]
    scale = max(1.0, float(np.max(Wm)) if Wm.size else 0.0)
    best_val, best_row, best_Pr = -np.inf, 0, None
    for Pr in starts:
        for _ in range(120):
            delta = 0.0
            for i in range(n):
                before = pos < pos[:, [i]]
                A = sw[i] + (Pr * before) @ Wm[:, i]
                # ~before is {i} plus the buyers after i; the diagonal of
                # Wm is zero, so the i term contributes nothing to B.
                B = ((Pr * (1.0 - Pr)) * ~before) @ Wm[i]
                new = np.where(A <= _TINY * scale, 1.0,
                               np.clip(0.5 + B / np.maximum(2.0 * A, _TINY), 0.5, 1.0))
                delta = max(delta, float(np.max(np.abs(new - Pr[:, i]))))
                Pr[:, i] = new
            if delta < 1e-12:
                break
        R = _perm_revenue_batch(Wm, sw, pos, Pr)
        k = int(np.argmax(R))
        if R[k] > best_val:
            best_val, best_row, best_Pr = float(R[k]), k, Pr[k].copy()
    order = tuple(int(i) for i in np.argsort(pos[best_row]))
    witness = MarketingStrategy(order, tuple(float(x) for x in best_Pr))
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
    prices = np.asarray(prices, dtype=np.float64)
    if prices.shape != (n,):
        raise ValidationError("prices must supply one probability per buyer")
    Wm = g.in_weight_matrix()
    sw = np.asarray(g.self_weights)
    pos = _all_positions(n)
    best_val, best_row = -np.inf, 0
    for start in range(0, pos.shape[0], _CHUNK):
        block = pos[start:start + _CHUNK]
        R = _perm_revenue_batch(Wm, sw, block, np.broadcast_to(prices, block.shape))
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


def _chunk_keys(strategy, n: int, seed: int, start: int, m: int):
    """Pricing probabilities and approach keys of one chunk, buyer-major.

    Both broadcast to (n, m).  In trial t buyer i is approached before
    buyer j when ``keys[i, t] < keys[j, t]``: a fixed order keys by
    position, the IE families by class plus a uniform ordering draw (an
    IE strategy's free buyers form class 0, its priced buyers class 1).
    """
    if isinstance(strategy, MarketingStrategy):
        return np.asarray(strategy.prices)[:, None], strategy.positions()[:, None]
    keys = _stream_uniforms(seed, "ordering", start, m, n)
    if isinstance(strategy, IEStrategy):
        member = _influence_mask(strategy.influence_set, n)[:, None]
        return np.where(member, 1.0, strategy.p), ~member + keys
    if isinstance(strategy, _ClassIEStrategy):
        q, prices = strategy.classes()
        draws = _stream_uniforms(seed, "assignment", start, m, n)
        cls = np.minimum(np.searchsorted(np.cumsum(q), draws, side="right"),
                         q.size - 1)
        return prices[cls], cls + keys
    raise ValidationError(
        f"cannot simulate strategy of type {type(strategy).__name__}")


def simulate(g: SocialNetwork, strategy, trials: int, seed=0) -> SimulationReport:
    """Run the sequential-offer process ``trials`` times and estimate the
    expected revenue.

    Buyers are approached in the strategy's order (IE families redraw
    random sets/orders every trial); each buyer i sees the total weight M
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
    if getattr(strategy, "n", g.n) != g.n:
        raise ValidationError(
            f"strategy covers {strategy.n} buyers, network has {g.n}")
    n = g.n
    src, dst, w = g.edge_src, g.edge_dst, g.edge_weight
    chunk = max(1, _SIM_CELLS // max(1, n, w.size))
    seed = int(seed)
    done, mean, m2 = 0, 0.0, 0.0
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        prices, keys = _chunk_keys(strategy, n, seed, start, m)
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
