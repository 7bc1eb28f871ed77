"""Social-network data model, edge-list I/O, generators, and hard-instance gadgets.

A :class:`SocialNetwork` is a weighted graph, directed or undirected, whose
edge weight ``w[j, i]`` measures how much buyer ``j`` owning the product
raises buyer ``i``'s valuation.  Undirected networks may additionally carry
per-buyer self-weights ``w[i, i]`` (a buyer's intrinsic valuation scale).
Networks are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import io
import warnings
from typing import Iterable, Optional, Sequence

import numpy as np


#: Largest accepted node count.  It is checked before anything of size n
#: is allocated, so an absurd header or ``--n`` fails with a message
#: instead of exhausting memory.
MAX_NODES = 10 ** 7


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class ParseError(ValidationError):
    """Raised on malformed edge-list text; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedOperationError(ValidationError):
    """Raised when an operation is undefined for the given directedness."""


def _check_weights_finite(w: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"{what} must be finite (no NaN or infinity)")
    if np.any(w < 0):
        raise ValidationError(f"{what} must be non-negative")


class SocialNetwork:
    """Immutable weighted social network.

    Parameters
    ----------
    directed:
        Edge ``(i, j)`` means ``i`` influences ``j``.  Undirected edges
        influence both ways and are stored once with ``i < j``.
    n:
        Number of buyers, indexed ``0 .. n-1``; at most ``MAX_NODES``.
    edges:
        Iterable of ``(i, j, w)`` triples with ``i != j`` and ``w >= 0``.
        Duplicate entries (for undirected networks, regardless of endpoint
        order) are merged by summing their weights; zero-weight edges are
        dropped.  The totals ``W`` and ``N`` must be finite.
    self_weights:
        Optional per-buyer ``w[i, i]``.  Self-weights on directed networks
        are permitted only as input to :func:`eliminate_selfloops`; every
        other operation expects directed networks with zero self-weights.
    labels:
        Optional external node labels kept for provenance after remapping.
    """

    __slots__ = ("directed", "n", "edge_src", "edge_dst", "edge_weight",
                 "self_weights", "labels")

    def __init__(self, directed: bool, n: int,
                 edges: Iterable[tuple[int, int, float]] = (),
                 self_weights: Optional[Sequence[float]] = None,
                 labels: Optional[Sequence] = None):
        if n < 0:
            raise ValidationError("node count must be non-negative")
        if n > MAX_NODES:
            raise ValidationError(
                f"node count {n} exceeds MAX_NODES={MAX_NODES}")
        src, dst, wts = [], [], []
        for i, j, w in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValidationError(
                    f"edge ({i}, {i}) is a self-loop; pass self_weights instead")
            if not directed and i > j:
                i, j = j, i
            src.append(i)
            dst.append(j)
            wts.append(float(w))
        esrc = np.asarray(src, dtype=np.int64)
        edst = np.asarray(dst, dtype=np.int64)
        ew = np.asarray(wts, dtype=np.float64)
        _check_weights_finite(ew, "edge weights")
        # Merge duplicates by summation, then drop zero-weight edges.
        if esrc.size:
            keys = esrc * n + edst
            order = np.argsort(keys, kind="stable")
            keys, esrc, edst, ew = keys[order], esrc[order], edst[order], ew[order]
            uniq, inverse = np.unique(keys, return_inverse=True)
            merged = np.zeros(uniq.size)
            with np.errstate(over="ignore"):  # rejected below, as W = inf
                np.add.at(merged, inverse, ew)
            esrc = uniq // n
            edst = uniq % n
            ew = merged
            keep = ew > 0.0
            esrc, edst, ew = esrc[keep], edst[keep], ew[keep]
        sw = np.zeros(n)
        if self_weights is not None:
            sw = np.asarray(self_weights, dtype=np.float64).copy()
            if sw.shape != (n,):
                raise ValidationError("self_weights must have one entry per buyer")
            _check_weights_finite(sw, "self-weights")
        with np.errstate(over="ignore"):
            totals = np.sum(ew), np.sum(sw)
        if not np.all(np.isfinite(totals)):
            raise ValidationError(
                "total edge weight W and total self-weight N must be finite")
        for arr in (esrc, edst, ew, sw):
            arr.flags.writeable = False
        object.__setattr__(self, "directed", bool(directed))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edge_src", esrc)
        object.__setattr__(self, "edge_dst", edst)
        object.__setattr__(self, "edge_weight", ew)
        object.__setattr__(self, "self_weights", sw)
        object.__setattr__(self, "labels",
                          tuple(labels) if labels is not None else tuple(range(n)))

    def __setattr__(self, name, value):
        raise AttributeError("SocialNetwork is immutable")

    # -- aggregates ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.edge_weight.size)

    @property
    def W(self) -> float:
        """Total edge weight (each undirected pair counted once)."""
        return float(np.sum(self.edge_weight))

    @property
    def N(self) -> float:
        """Total self-weight."""
        return float(np.sum(self.self_weights))

    @property
    def lam(self) -> Optional[float]:
        """Self-weight to edge-weight ratio N/W; None when W = 0."""
        W = self.W
        return self.N / W if W > 0 else None

    # -- queries ------------------------------------------------------------

    def weight(self, i: int, j: int) -> float:
        """Influence weight of ``i`` on ``j`` (symmetric when undirected)."""
        if i == j:
            return float(self.self_weights[i])
        a, b = (i, j) if self.directed or i < j else (j, i)
        hit = (self.edge_src == a) & (self.edge_dst == b)
        idx = np.nonzero(hit)[0]
        return float(self.edge_weight[idx[0]]) if idx.size else 0.0

    def influence_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ordered influence pairs ``(src, dst, w)``.

        For undirected networks each stored edge appears in both
        orientations; for directed networks this is just the edge list.
        """
        if self.directed:
            return self.edge_src, self.edge_dst, self.edge_weight
        src = np.concatenate([self.edge_src, self.edge_dst])
        dst = np.concatenate([self.edge_dst, self.edge_src])
        w = np.concatenate([self.edge_weight, self.edge_weight])
        return src, dst, w

    def in_weight_matrix(self) -> np.ndarray:
        """Dense ``n x n`` matrix ``M[j, i]`` = influence of ``j`` on ``i``.

        Intended for small instances (simulation, oracles); zero diagonal.
        """
        M = np.zeros((self.n, self.n))
        src, dst, w = self.influence_pairs()
        M[src, dst] = w
        return M

    def scaled(self, c: float) -> "SocialNetwork":
        """Network with every weight multiplied by ``c > 0``."""
        if not c > 0:
            raise ValidationError("scale factor must be positive")
        return SocialNetwork(self.directed, self.n,
                             zip(self.edge_src, self.edge_dst, self.edge_weight * c),
                             self_weights=self.self_weights * c,
                             labels=self.labels)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"SocialNetwork({kind}, n={self.n}, edges={self.num_edges}, "
                f"W={self.W:.6g}, N={self.N:.6g})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialNetwork):
            return NotImplemented
        return (self.directed == other.directed and self.n == other.n
                and np.array_equal(self.edge_src, other.edge_src)
                and np.array_equal(self.edge_dst, other.edge_dst)
                and np.array_equal(self.edge_weight, other.edge_weight)
                and np.array_equal(self.self_weights, other.self_weights))

    def __hash__(self):
        return hash((self.directed, self.n, self.edge_weight.tobytes(),
                     self.edge_src.tobytes(), self.edge_dst.tobytes(),
                     self.self_weights.tobytes()))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "directedness": "directed" if self.directed else "undirected",
            "n": self.n,
            "edges": [[int(i), int(j), float(w)] for i, j, w in
                      zip(self.edge_src, self.edge_dst, self.edge_weight)],
            "self_weights": [float(x) for x in self.self_weights],
        }


def network_from_json(doc: dict) -> SocialNetwork:
    directedness = doc.get("directedness")
    if directedness not in ("directed", "undirected"):
        raise ValidationError("directedness must be 'directed' or 'undirected'")
    return SocialNetwork(directedness == "directed", int(doc["n"]),
                         [tuple(e) for e in doc.get("edges", [])],
                         self_weights=doc.get("self_weights"))


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def load_network(text: str) -> SocialNetwork:
    """Parse an edge-list document into a validated :class:`SocialNetwork`.

    Format: first non-comment line is ``directed <n>`` or ``undirected <n>``;
    each following line is ``i j w``.  ``#`` starts a comment.  ``i == j``
    lines set self-weights and are allowed only for undirected networks.
    Arbitrary non-negative integer node labels are remapped to dense 0-based
    indices (kept in ``labels``).  Duplicate edges are merged by summation
    with a warning; zero-weight edges are dropped.
    """
    directed: Optional[bool] = None
    n = 0
    raw: list[tuple[int, int, int, float]] = []  # (lineno, i, j, w)
    for lineno, line in enumerate(io.StringIO(text), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if directed is None:
            if len(tokens) != 2 or tokens[0] not in ("directed", "undirected"):
                raise ParseError("expected header 'directed <n>' or 'undirected <n>'",
                                 lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"invalid node count {tokens[1]!r}", lineno) from None
            if n < 0:
                raise ParseError("node count must be non-negative", lineno)
            if n > MAX_NODES:
                raise ParseError(f"node count {n} exceeds MAX_NODES={MAX_NODES}",
                                 lineno)
            directed = tokens[0] == "directed"
            continue
        if len(tokens) != 3:
            raise ParseError(f"expected 'i j w', got {body!r}", lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise ParseError(f"expected 'i j w', got {body!r}", lineno) from None
        if i < 0 or j < 0:
            raise ParseError("node labels must be non-negative", lineno)
        if not np.isfinite(w):
            raise ParseError(f"weight must be finite, got {tokens[2]}", lineno)
        if w < 0:
            raise ParseError(f"weight must be non-negative, got {w}", lineno)
        raw.append((lineno, i, j, w))
    if directed is None:
        raise ParseError("empty document: missing header line")

    # Remap arbitrary labels to dense 0-based indices.
    used = sorted({i for _, i, _, _ in raw} | {j for _, _, j, _ in raw})
    if len(used) > n:
        raise ParseError(f"{len(used)} distinct node labels exceed declared n={n}")
    if used and used[-1] >= n:
        remap = {lab: k for k, lab in enumerate(used)}
        labels: list = list(used) + [None] * (n - len(used))
    else:
        remap = {lab: lab for lab in used}
        labels = list(range(n))

    seen: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, float]] = []
    self_w = np.zeros(n)
    self_seen = np.zeros(n, dtype=bool)
    for lineno, li, lj, w in raw:
        i, j = remap[li], remap[lj]
        if i == j:
            if directed:
                raise ParseError(
                    f"self-loop ({li}, {lj}) not allowed in directed input; "
                    "load the influence as an explicit extra node or apply "
                    "eliminate_selfloops to a programmatically built network",
                    lineno)
            if self_seen[i]:
                warnings.warn(f"duplicate self-weight line for node {li}; summing",
                              stacklevel=2)
            self_seen[i] = True
            self_w[i] += w
            continue
        key = (i, j) if directed else (min(i, j), max(i, j))
        if key in seen:
            warnings.warn(
                f"duplicate edge ({li}, {lj}) at line {lineno}; summing weights",
                stacklevel=2)
        seen[key] = lineno
        edges.append((i, j, w))
    return SocialNetwork(directed, n, edges, self_weights=self_w, labels=labels)


def save_network(g: SocialNetwork) -> str:
    """Canonical edge-list text for ``g``; inverse of :func:`load_network`."""
    out = ["{} {}".format("directed" if g.directed else "undirected", g.n)]
    for i in range(g.n):
        if g.self_weights[i] > 0:
            out.append(f"{i} {i} {float(g.self_weights[i])!r}")
    order = np.lexsort((g.edge_dst, g.edge_src))
    for k in order:
        out.append(f"{g.edge_src[k]} {g.edge_dst[k]} {float(g.edge_weight[k])!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Self-loop elimination for directed networks
# ---------------------------------------------------------------------------

def eliminate_selfloops(g: SocialNetwork) -> SocialNetwork:
    """Replace each directed self-weight by a fresh source node.

    Every buyer ``i`` with ``w[i, i] > 0`` gains a dedicated node ``i'`` with
    a single edge ``(i', i)`` of weight ``w[i, i]`` and no incoming edges.
    Giving ``i'`` the product for free makes ``i``'s valuation behave exactly
    as the self-weight did, so the maximum revenue is unchanged.  Total edge
    weight satisfies ``W_out = W_in + N_in``.
    """
    if not g.directed:
        raise UnsupportedOperationError(
            "self-loop elimination applies to directed networks only")
    loops = np.nonzero(g.self_weights > 0)[0]
    if loops.size == 0:
        return g
    edges = list(zip(g.edge_src, g.edge_dst, g.edge_weight))
    labels = list(g.labels)
    n = g.n
    for i in loops:
        edges.append((n, int(i), float(g.self_weights[i])))
        labels.append(None)
        n += 1
    return SocialNetwork(True, n, edges, labels=labels)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("cycle", "path", "complete_dag", "bipartite", "random")


def generate(kind: str, n: int, *, weight: float = 1.0, directed: bool = False,
             density: float = 1.0, weight_range: Optional[tuple[float, float]] = None,
             self_weight_range: Optional[tuple[float, float]] = None,
             parts: Optional[tuple[int, int]] = None,
             seed: Optional[int] = None) -> SocialNetwork:
    """Build a named network family instance.

    ``cycle``/``path`` chain node ``i`` to ``i+1`` (cycles close the loop),
    ``complete_dag`` puts a directed edge on every pair ``i < j``,
    ``bipartite`` connects two sides (sizes ``parts``, default as even as
    possible) with probability ``density``, and ``random`` samples each
    ordered (directed) or unordered (undirected) pair with probability
    ``density``.  Random kinds draw weights uniformly from ``weight_range``
    and require a ``seed``; fixed kinds use the constant ``weight``.
    """
    if n < 1:
        raise ValidationError("generate requires n >= 1")
    if n > MAX_NODES:
        raise ValidationError(f"node count {n} exceeds MAX_NODES={MAX_NODES}")
    if kind not in GENERATOR_KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    if not 0.0 <= density <= 1.0:
        raise ValidationError("density must lie in [0, 1]")
    for name, bounds in (("weight_range", weight_range),
                         ("self_weight_range", self_weight_range)):
        if bounds is not None and not (np.all(np.isfinite(bounds))
                                       and bounds[0] <= bounds[1]):
            raise ValidationError(
                f"{name} must be finite with low <= high, got {tuple(bounds)}")
    if kind == "cycle":
        if n < 3:
            raise ValidationError("cycle requires n >= 3")
        edges = [(i, (i + 1) % n, weight) for i in range(n)]
        return SocialNetwork(directed, n, edges)
    if kind == "path":
        edges = [(i, i + 1, weight) for i in range(n - 1)]
        return SocialNetwork(directed, n, edges)
    if kind == "complete_dag":
        edges = [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
        return SocialNetwork(True, n, edges)

    randomized = density < 1.0 or weight_range is not None \
        or self_weight_range is not None
    rng = None
    if randomized:
        if seed is None:
            raise ValidationError(f"{kind} with random choices requires a seed")
        rng = np.random.default_rng(seed)

    def draw_weights(count: int) -> np.ndarray:
        if weight_range is not None:
            lo, hi = weight_range
            return rng.uniform(lo, hi, size=count)
        return np.full(count, weight)

    if kind == "bipartite":
        if directed:
            raise ValidationError("bipartite generator is undirected")
        if parts is None:
            parts = ((n + 1) // 2, n // 2)
        a, b = parts
        if a + b != n or a < 1 or b < 1:
            raise ValidationError(f"parts {parts} must be positive and sum to n={n}")
        src, dst = _sample_pairs((np.arange(a, n) for _ in range(a)),
                                 density, rng)
        w = draw_weights(src.size)
        return SocialNetwork(False, n, zip(src, dst, w))

    # kind == "random"
    if rng is None:
        if seed is None:
            raise ValidationError("random generator requires a seed")
        rng = np.random.default_rng(seed)
    if directed:
        candidates = (np.delete(np.arange(n), i) for i in range(n))
    else:
        candidates = (np.arange(i + 1, n) for i in range(n))
    src, dst = _sample_pairs(candidates, density, rng)
    w = draw_weights(src.size)
    self_w = None
    if self_weight_range is not None:
        if directed:
            raise ValidationError("self-weights apply to undirected networks only")
        lo, hi = self_weight_range
        self_w = rng.uniform(lo, hi, size=n)
    return SocialNetwork(directed, n, zip(src, dst, w), self_weights=self_w)


def _sample_pairs(candidates: Iterable[np.ndarray], density: float, rng):
    """Pairs ``(i, j)`` over the candidate columns ``j`` of each row ``i``,
    each kept with probability ``density``.

    Each row draws one uniform per candidate, rows in order: the same
    uniforms as one draw over all pairs in lexicographic order, while only
    one row of candidates is held at a time (at least one row is expected).
    """
    src, dst = [], []
    for i, cols in enumerate(candidates):
        if density < 1.0:
            cols = cols[rng.random(cols.size) < density]
        src.append(np.full(cols.size, i, dtype=np.int64))
        dst.append(cols)
    return np.concatenate(src), np.concatenate(dst)


# ---------------------------------------------------------------------------
# Hard-instance gadgets
# ---------------------------------------------------------------------------

GADGET_KINDS = ("extended_triangle", "three_path", "set_triangle", "set_edge")

#: Degree-1 "selection" nodes of each gadget whose pricing gets pinned when
#: tabulating conditional revenue optima (see oracle.gadget_revenue_table).
GADGET_SELECTION_NODES = {
    "extended_triangle": (3, 4, 5),
    "three_path": (0, 3),
}


def gadget(kind: str, p: Optional[float] = None) -> SocialNetwork:
    """Small undirected networks with known revenue structure.

    ``extended_triangle``: unit triangle on set nodes 0-2, each with a pendant
    selection node (3, 4, 5).  ``three_path``: 4-node path whose interior
    nodes 1, 2 are the set nodes and whose endpoints 0, 3 are selection
    nodes.  ``set_triangle``: plain unit triangle.  ``set_edge``: a single
    edge of weight ``2 + p`` for an exploit pricing probability ``p``.
    """
    if kind == "extended_triangle":
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)]
        return SocialNetwork(False, 6, edges)
    if kind == "three_path":
        return SocialNetwork(False, 4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    if kind == "set_triangle":
        return SocialNetwork(False, 3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    if kind == "set_edge":
        if p is None or not 0.5 <= p < 1.0:
            raise ValidationError("set_edge requires a pricing probability p in [1/2, 1)")
        return SocialNetwork(False, 2, [(0, 1, 2.0 + p)])
    raise ValidationError(f"unknown gadget kind {kind!r}")
