"""Ground-truth engines: exhaustive and multistart searches for optimal
strategies, gadget revenue tables, and a Monte Carlo simulator that runs
the buyer valuation model directly.

The searches are the reference points the approximation algorithms are
measured against.  ``best_ie_exhaustive`` (every influence set, each at
its best p in closed form) and ``best_ordering_exhaustive`` (the best
approach order at fixed prices: the price sort on undirected networks, a
subset recursion on directed ones) are exact; ``best_strategy_search``
ascends over prices from many starts, each in its exact best order, so
its values are lower bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence, default_rng
from scipy.sparse import csr_array

from .netmodel import (GADGET_SELECTION_NODES, MAX_TRIALS, SocialNetwork,
                       ValidationError, _check_int, _check_ints, _check_seed,
                       gadget)
from .revenue import (_BLOCK_CELLS, IEStrategy, MarketingStrategy,
                      _check_exploit_prob, _check_price_prob, _ie_cubic,
                      _ie_weights, _marketing_revenue_rows, _require_normalized,
                      strategy_family)

_TINY = 1e-12

_ENUMERATION_LIMIT = 22
_DIRECTED_LIMIT = 8
_ORDERING_LIMIT = 18
_UNDIRECTED_LIMIT = 50


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one ground-truth search.

    ``method`` is "exhaustive" for the exact searches and "multistart"
    for the heuristic continuous searches (whose values are lower bounds,
    not certified optima).  ``resolution`` carries the pitch of the
    multistart price grid when one was used.
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


def _half_patterns(cap, src, dst, w, lo: int, hi: int):
    """The 2^k patterns of the k buyers lo..hi-1, pattern a freeing buyer
    lo + t when bit t of a is set: their priced indicators (2^k, k), cap
    sums and D among them, from the IE weight table (cap, src, dst, w)."""
    k = hi - lo
    priced = (((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) == 0).astype(float)
    inside = (src >= lo) & (src < hi) & (dst >= lo) & (dst < hi)
    D = (priced[:, src[inside] - lo] * priced[:, dst[inside] - lo]) @ w[inside]
    return priced, priced @ cap[lo:hi], D


def best_ie_exhaustive(g: SocialNetwork, p: Optional[float] = None) -> OracleReport:
    """Exact best IE strategy by enumerating all 2^n influence sets.

    With ``p`` supplied the pricing probability is held fixed; otherwise
    each set gets its revenue-maximizing p in [1/2, 1).

    D is a quadratic form in the priced indicator x, so the enumeration
    splits the buyers in two halves, the first h = n // 2 (pattern a) and
    the rest (pattern b), meeting in the middle (Horowitz and Sahni 1974):
    each half's cap sum and in-half D are tabulated once from the IE
    weight table, and the cross term x_b' K x_a of a block of b rows
    against every a is one matrix product, K holding the edges between the
    halves.  Blocks hold about ``_BLOCK_CELLS`` sets; set a + (b << h)
    frees buyer i when bit i is set, and ties go to the smallest index.
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
    cap, src, dst, w = _ie_weights(g)
    h = n // 2
    low, low_cap, low_D = _half_patterns(cap, src, dst, w, 0, h)
    high, high_cap, high_D = _half_patterns(cap, src, dst, w, h, n)
    low_t = np.ascontiguousarray(low.T)
    between = (src < h) != (dst < h)
    cell = (np.maximum(src, dst) - h) * h + np.minimum(src, dst)
    cross = np.bincount(cell[between], w[between], (n - h) * h).reshape(n - h, h)
    rows = max(1, _BLOCK_CELLS >> h)
    best_val, best_idx, best_p = -np.inf, 0, 0.5
    for b in range(0, high.shape[0], rows):
        D = (high[b:b + rows] @ cross) @ low_t
        D += low_D
        D += high_D[b:b + rows, None]
        C = low_cap + high_cap[b:b + rows, None]
        C -= D
        if p is None:
            vals, popt = _optimal_p_for_sets(C, D, scale)
        else:
            vals = _ie_cubic(p, C, D)
        k = int(np.argmax(vals))
        if vals.flat[k] > best_val:
            best_val, best_idx = float(vals.flat[k]), k + (b << h)
            best_p = float(popt.flat[k]) if p is None else p
    witness = IEStrategy(frozenset(i for i in range(n) if best_idx >> i & 1),
                         best_p)
    return OracleReport(best_value=best_val, best_witness=witness,
                        search_space_size=1 << n, method="exhaustive")


# ---------------------------------------------------------------------------
# Continuous strategy search
# ---------------------------------------------------------------------------

_SWEEPS = 120
_WARM_UP_STEPS = 20


def _buyer_terms(buyer, P, margin, pos, i):
    """A_i and B_i of buyer i, whose pairs ``buyer`` are (w_ii, in-sources
    j, w_ji, out-targets k, w_ik), in each column of prices P
    (n, columns), margins P (1 - P), approached in the order pos: in p_i
    alone the revenue is p_i (1 - p_i) A_i + p_i B_i, A_i being w_ii plus
    w_ji p_j over the j approached earlier, B_i w_ik p_k (1 - p_k) over the
    k approached later."""
    sw, ins, in_w, outs, out_w = buyer
    earlier = P[ins]
    earlier *= pos[ins] < pos[i]
    later = margin[outs]
    later *= pos[outs] > pos[i]
    return sw + in_w @ earlier, out_w @ later


def _ascend(g: SocialNetwork, P, free):
    """Batched coordinate ascent, in place, over the columns of prices P
    (n, columns) on ``g``.

    Each column is re-ordered by :func:`_best_positions`, the best order
    for its prices, before every step and every sweep.  Each update sets
    row i of every column to its maximizer clip(1/2 + B_i / (2 A_i), 1/2,
    1), or to 1 where A_i vanishes; buyers go in index order, and only
    those in the mask ``free`` move.  ``_WARM_UP_STEPS``
    projected-gradient steps come first: step t moves each column's
    steepest free price by 0.12 / sqrt(t).  Sweeps stop once none moves a
    price by 1e-12, or after ``_SWEEPS``.  A column whose sweep moved no
    price is at a fixed point (re-ordered, its order is the same) and is
    not swept again.
    """
    src, dst, w = g.influence_pairs()
    buyers = [(g.self_weights[i], src[dst == i], w[dst == i],
               dst[src == i], w[src == i]) for i in range(g.n)]
    cols = np.flatnonzero(free)
    tiny = _TINY * max([1.0] + [float(np.max(in_w, initial=sw))
                                for sw, _, in_w, _, _ in buyers])
    for step in range(_WARM_UP_STEPS):
        at = _best_positions(g, P)
        margin = P * (1.0 - P)
        grad = np.zeros_like(P)
        for i in cols:
            A, B = _buyer_terms(buyers[i], P, margin, at, i)
            grad[i] = (1.0 - 2.0 * P[i]) * A + B
        gmax = np.max(np.abs(grad), axis=0, initial=0.0)
        rate = np.where(gmax > tiny, 0.12 / (np.maximum(gmax, tiny)
                                             * math.sqrt(1.0 + step)), 0.0)
        np.clip(P + rate * grad, 0.5, 1.0, out=P)
    live = np.arange(P.shape[1])
    for _ in range(_SWEEPS):
        Q = P[:, live]
        at = _best_positions(g, Q)
        margin = Q * (1.0 - Q)
        delta = np.zeros(live.size)
        for i in cols:
            A, B = _buyer_terms(buyers[i], Q, margin, at, i)
            new = np.where(A <= tiny, 1.0,
                           np.clip(0.5 + B / np.maximum(2.0 * A, _TINY), 0.5, 1.0))
            delta = np.maximum(delta, np.abs(new - Q[i]))
            Q[i] = new
            margin[i] = new * (1.0 - new)
        P[:, live] = Q
        live = live[delta > 0.0]
        if np.max(delta, initial=0.0) < 1e-12:
            break


def _starts(n, free_nodes, rng):
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


def _search(g: SocialNetwork, pins: dict, seed) -> OracleReport:
    n = g.n
    free = np.ones(n, dtype=bool)
    free[list(pins)] = False
    P = np.array(list(_starts(n, np.flatnonzero(free),
                              default_rng(seed)))).T.copy()
    P[list(pins)] = np.array(list(pins.values()))[:, None]
    _ascend(g, P, free)
    pos = _best_positions(g, P)
    R = _marketing_revenue_rows(g, P.T, pos.T)
    k = int(np.argmax(R))
    return OracleReport(best_value=float(R[k]),
                        best_witness=MarketingStrategy(np.argsort(pos[:, k]),
                                                       P[:, k]),
                        search_space_size=P.shape[1], method="multistart",
                        resolution=1.0 / 16.0)


def best_strategy_search(g: SocialNetwork, seed=0) -> OracleReport:
    """Heuristic search for the best full marketing strategy.

    Multistart ascent over the price vector (:func:`_ascend`) from the
    same starts on either kind of network, each start approached in the
    best order for its current prices (:func:`_best_positions`): the price
    sort on undirected networks (n <= 50), the subset recursion on directed
    ones (n <= 8, the starts growing as 2^n).  Values are lower bounds on
    the true optimum (method="multistart"); ``search_space_size`` counts
    the starts.  The first start of largest computed revenue wins, so
    among optima of equal value the last bits of the sums decide.
    """
    _require_normalized(g, "best_strategy_search")
    seed = _check_seed(seed)
    kind, limit = (("directed", _DIRECTED_LIMIT) if g.directed else
                   ("undirected", _UNDIRECTED_LIMIT))
    if g.n > limit:
        raise ValidationError(f"{kind} search supports n <= {limit}")
    return _search(g, {}, seed)


def _best_positions(g: SocialNetwork, P: np.ndarray) -> np.ndarray:
    """Approach positions (n, columns) of the best order for each column of
    prices P (n, columns): the only code that knows the best-order rule.

    On an undirected network it is the price sort: largest pricing
    probability (the cheapest offer) first, ties by index.  Putting j just
    before i instead of after changes revenue by p_i p_j w_ij (p_j - p_i),
    so no sorted order gains by a swap.  On a directed network it is the
    subset recursion of Held and Karp (1962).  At fixed prices, revenue is
    the constant sum m_i w[i, i] plus c_ji = p_j w[j, i] m_i over the
    influence pairs (j, i) with j first, m_i = p_i (1 - p_i): the best
    f(S) of a set S approached first is the max
    over i in S of f(S - {i}) + sum_{j in S} c_ji.  Sets (bit i for buyer
    i) go one popcount layer at a time, in blocks of about
    ``_BLOCK_CELLS`` (set, column, buyer) cells.  A block's sums are one
    product of its membership, tiled once per column, with the
    block-diagonal sparse c of all columns, so each column is summed as it
    would be alone.  An int8 table keeps each set's last buyer, read back
    from the full set.  Ties: among last buyers of equal computed value
    the smallest index goes last, and so on backwards."""
    n, cols = P.shape
    if not g.directed:
        order = np.argsort(-P, axis=0, kind="stable")
        return np.argsort(order, axis=0).astype(np.min_scalar_type(n))
    src, dst, w = g.influence_pairs()
    margin = P * (1.0 - P)
    shift = n * np.arange(cols)  # column k holds rows and columns k n + i
    c = csr_array(((P[src] * w[:, None] * margin[dst]).T.ravel(),
                   ((src + shift[:, None]).ravel(),
                    (dst + shift[:, None]).ravel())), shape=(n * cols,) * 2)
    size = np.zeros(1 << n, np.int8)  # popcount of each set
    for b in range(n):  # a set with top bit b: one more than without it
        size[1 << b:2 << b] = size[:1 << b] + 1
    f, last = np.zeros((1 << n, cols)), np.zeros((1 << n, cols), np.int8)
    unit, rows = 1 << np.arange(n), max(1, _BLOCK_CELLS // max(n * cols, 1))
    for k in range(1, n + 1):
        layer = np.flatnonzero(size == k)
        for S in np.split(layer, range(rows, layer.size, rows)):
            member = (S[:, None] & unit) != 0
            cand = (np.tile(member, cols) @ c).reshape(S.size, cols, n)
            cand += f[S[:, None] ^ unit].transpose(0, 2, 1)  # c_ii = 0
            np.copyto(cand, -np.inf, where=~member[:, None])
            i = np.argmax(cand, axis=2)
            f[S], last[S] = np.take_along_axis(cand, i[..., None], 2)[..., 0], i
    pos = np.empty((n, cols), np.min_scalar_type(n))
    S, col = np.full(cols, (1 << n) - 1), np.arange(cols)
    for t in range(n - 1, -1, -1):
        i = last[S, col]
        pos[i, col] = t
        S ^= unit[i]
    return pos


def best_ordering_exhaustive(g: SocialNetwork, prices) -> OracleReport:
    """Exact best approach order for a fixed price vector (n <= 18), on
    either kind of network.

    The order is :func:`_best_positions`': the price sort on undirected
    networks, and on directed ones the best of all n! orders of a linear
    ordering problem, by a subset recursion in O(2^n n^2) time.
    ``best_value`` is the witness's own revenue."""
    _require_normalized(g, "best_ordering_exhaustive")
    n = g.n
    if n > _ORDERING_LIMIT:
        raise ValidationError(f"best_ordering_exhaustive supports n <= "
                              f"{_ORDERING_LIMIT}; got n={n}")
    prices = _check_price_prob(prices, "prices")
    if prices.shape != (n,):
        raise ValidationError("prices must supply one probability per buyer")
    witness = MarketingStrategy(
        np.argsort(_best_positions(g, prices[:, None])[:, 0]), prices)
    return OracleReport(best_value=witness.expected_revenue(g),
                        best_witness=witness,
                        search_space_size=math.factorial(n),
                        method="exhaustive")


# ---------------------------------------------------------------------------
# Gadget revenue tables
# ---------------------------------------------------------------------------

def _selection_pins(kind: str, constraint) -> dict:
    sel = GADGET_SELECTION_NODES[kind]
    nodes, prices = sel, constraint
    if isinstance(constraint, dict):
        nodes = _check_ints(list(constraint), "pinned nodes").tolist()
        prices = list(constraint.values())
        if not set(nodes) <= set(sel):
            raise ValidationError(
                f"{kind} selection nodes are {sel}; got pins for {sorted(nodes)}")
    prices = _check_price_prob(prices, "pinned prices")
    if prices.shape != (len(nodes),):
        raise ValidationError(
            f"{kind} needs one pinned price per selection node {sel}")
    return dict(zip(nodes, prices.tolist()))


def _subset_report(g: SocialNetwork, members, p: float) -> OracleReport:
    witness = IEStrategy(members, p)
    return OracleReport(best_value=witness.expected_revenue(g), best_witness=witness,
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
    seed = _check_seed(seed)
    if kind in ("extended_triangle", "three_path"):
        if p is not None:
            raise ValidationError(
                "p applies to the set gadgets; strategy gadgets price freely")
        g = gadget(kind)
        if constraint is not None:
            return _search(g, _selection_pins(kind, constraint), seed)
        sel = GADGET_SELECTION_NODES[kind]
        table = {"free": _search(g, {}, seed)}
        for pattern in itertools.product((0.5, 1.0), repeat=len(sel)):
            key = ",".join(format(v, "g") for v in pattern)
            table[key] = _search(g, dict(zip(sel, pattern)), seed)
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


def _philox_blocks(width: int) -> int:
    """Philox blocks of four 64-bit outputs that hold one trial's draws."""
    return max(1, (width + 3) // 4)


def _stream(seed: int, stream: str) -> Generator:
    """The Philox generator of one named stream, at trial 0."""
    return Generator(Philox(SeedSequence([int(seed), _STREAM_KEYS[stream]])))


def _next_uniforms(gen: Generator, count: int, width: int) -> np.ndarray:
    """The next ``count`` trials of ``gen``, buyer-major: entry [i, t] is
    buyer i's draw in the t-th of them.

    Philox advances its counter once per block of four 64-bit outputs, and
    each trial is padded to a whole number of blocks, so successive calls
    on one generator give the draws of consecutive trials.
    """
    vals = gen.random((count, 4 * _philox_blocks(width)))
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

    Buyers are approached in the order of ``strategy.offer_sampler`` (the IE
    families redraw it every trial); each buyer i sees the total weight M
    of itself plus previously accepting buyers, is offered price
    (1 - p_i) * M, and accepts with probability p_i: when its valuation
    quantile, uniform on [0, 1], reaches 1 - p_i.  That holds for M = 0
    too, as in the closed forms: a buyer offered a zero-weight product at
    price 0 still accepts only with probability p_i.

    Acceptance does not depend on M, so a trial's acceptances a are drawn
    up front; with g_i = a_i (1 - p_i) it earns sum_i g_i w[i, i] plus
    w a_j g_i over stored edges (j, i, w) with j approached first (an
    undirected edge pays whichever endpoint comes later).  The IE families
    approach their classes by non-increasing pricing probability
    (``price_ordered``), so on an undirected network the later endpoint
    holds the larger discount and an edge pays w a_i a_j max(1 - p_i,
    1 - p_j) whatever the order within a class: there the "ordering"
    stream is not drawn.  Directed networks and marketing strategies
    compare approach keys.  Cost is O(trials (n + |E|)), in chunks of at
    least 16 trials and otherwise of about ``_BLOCK_CELLS`` buyer or edge
    cells.  Draws are addressed per (trial, buyer), so results depend only
    on ``seed``, never on chunk boundaries: each stream is one Philox
    generator per call, drawn chunk after chunk, every trial from its own
    Philox block (:func:`_next_uniforms`).  The standard error merges
    per-chunk centered moments (Chan, Golub and LeVeque 1979), so it
    survives a revenue whose spread is tiny next to its mean.
    """
    _require_normalized(g, "simulate")
    trials = _check_int(trials, "trials", 1, MAX_TRIALS)
    strategy_family(strategy)  # rejects a non-strategy
    n = g.n
    src, dst, w = g.edge_src, g.edge_dst, g.edge_weight
    chunk = max(16, _BLOCK_CELLS // max(4 * _philox_blocks(n), w.size))
    by_discount = strategy.price_ordered and not g.directed
    if seed is None:  # the report names the seed that reproduces it
        raise ValidationError("simulate requires a seed")
    seed = _check_seed(seed)
    streams = {}

    def draw(stream):  # every chunk draws each stream it uses once
        if stream not in streams:
            streams[stream] = _stream(seed, stream)
        return _next_uniforms(streams[stream], m, n)

    offers = strategy.offer_sampler(n, ordered=not by_discount)
    done, mean, m2 = 0, 0.0, 0.0
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        prices, keys = offers(draw)
        discount = 1.0 - prices
        accepted = draw("acceptance") >= discount
        gain = accepted * discount
        if by_discount:
            paid = np.maximum(discount[src], discount[dst])
            paid = paid * (accepted[src] & accepted[dst])
        else:
            # masks select by multiplying: np.where on a random mask is slower
            forward = keys[src] < keys[dst]
            paid = gain[dst] * (forward & accepted[src])
            if not g.directed:
                paid += gain[src] * (~forward & accepted[dst])
        revenue = g.self_weights @ gain + w @ paid
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
