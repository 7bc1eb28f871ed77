"""Social-network data model, edge-list I/O, generators, and hard-instance gadgets.

A :class:`SocialNetwork` is a weighted graph, directed or undirected, whose
edge weight ``w[j, i]`` measures how much buyer ``j`` owning the product
raises buyer ``i``'s valuation.  Undirected networks may additionally carry
per-buyer self-weights ``w[i, i]`` (a buyer's intrinsic valuation scale).
Networks are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import re
import sys
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


#: Largest accepted trial count of ``sdp_ie`` and ``simulate``.  At about
#: 0.24 s per 10**6 trials on a 12-node network (2-vCPU box) that is four
#: minutes, so an absurd ``--trials`` fails at once instead of running for
#: hours.
MAX_TRIALS = 10 ** 9


_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _check_int(value, name: str, lo: int, hi: Optional[int] = None) -> int:
    """``value`` as an int: an integer in [lo, hi] (>= lo without ``hi``),
    never a bool and never a float however integral."""
    if isinstance(value, _INTS) and not isinstance(value, bool) \
            and lo <= value and (hi is None or value <= hi):
        return int(value)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")


def _check_real(value, name: str, lo: float, hi: float) -> float:
    """``value`` as a float: a finite real number in [lo, hi], never a bool,
    a string or None."""
    if isinstance(value, _REALS) and not isinstance(value, bool) \
            and lo <= value <= hi and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationError(f"{name} must lie in [{lo}, {hi}], got {value!r}")


def _check_bool(value, name: str) -> bool:
    """``value`` as a bool: a Python or numpy bool, never another value."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValidationError(f"{name} must be a bool, got {value!r}")


def _entries(values, types: tuple, fail):
    """``values`` (an array as a list) when a list, tuple or set of entries
    of ``types``, none a bool, as one pass over the entry types tells; else
    ``fail`` raises for the first bad entry, or for ``values`` itself."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(values, (list, tuple, set, frozenset)):
        fail(values)
    if not all(issubclass(t, types) and t is not bool for t in set(map(type, values))):
        fail(next(v for v in values
                  if isinstance(v, bool) or not isinstance(v, types)))
    return values


def _check_ints(values, name: str) -> np.ndarray:
    """``values`` as a new int64 array (an object array past 64 bits, see
    :func:`_int_array`): a 1-D integer array, or a list, tuple or set of
    integers, never a bool or a float however integral."""
    def fail(v):
        raise ValidationError(f"{name} must be integers, got {v!r}")
    if isinstance(values, np.ndarray) and values.dtype.kind == "i" and values.ndim == 1:
        return values.astype(np.int64)
    return _int_array(_entries(values, _INTS, fail))


def _check_reals(values, name: str, lo: float, hi: float) -> np.ndarray:
    """``values`` as a new float64 array of finite numbers in [lo, hi]: one
    real number, an array of a numeric dtype, or a list, tuple or set of
    real numbers; :func:`_check_real` names the first bad entry."""
    def check(v):
        return _check_real(v, name, lo, hi)
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        x = values.astype(np.float64)
    elif not isinstance(values, (list, tuple, set, frozenset, np.ndarray)):
        return np.float64(check(values))
    else:
        values = _entries(values, _REALS, check)
        try:
            x = np.fromiter(values, np.float64, len(values))
        except OverflowError:  # an integer beyond the float range
            x = None
    if x is None or not (np.isfinite(x) & (x >= lo) & (x <= hi)).all():
        for v in values.ravel().tolist() if isinstance(values, np.ndarray) else values:
            check(v)  # raises at the first bad entry
    return x


def _check_seed(seed) -> Optional[int]:
    """``seed`` for numpy's generators: None or an integer >= 0."""
    return None if seed is None else _check_int(seed, "seed", 0)


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
        dropped.  The totals ``W`` and ``N`` must be finite.  The stored
        edge arrays are sorted by ``(src, dst)``.
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
        try:
            triples = list(edges)
            lengths = set(map(len, triples))
        except TypeError:  # edges, or one of them, is no sequence
            lengths = None
        if lengths is None or triples and lengths != {3}:
            raise ValidationError(
                f"edges must be (i, j, w) triples, got {edges!r}")
        i, j, w = zip(*triples) if triples else ((), (), ())
        self._assign(directed, n, i, j, w, self_weights, labels)

    @classmethod
    def _from_arrays(cls, directed: bool, n: int, src, dst, w,
                     self_weights=None, labels=None) -> "SocialNetwork":
        """Network from edge columns, validated as by the constructor."""
        g = cls.__new__(cls)
        g._assign(directed, n, src, dst, w, self_weights, labels)
        return g

    def _assign(self, directed, n, src, dst, w, self_weights, labels) -> None:
        """The one validation path: flag, node count and endpoint types,
        then the first edge (in input order) out of range or a self-loop,
        then weights, duplicate merge, self-weights, totals and labels."""
        directed = _check_bool(directed, "directed")
        n = _check_int(n, "node count", 0, MAX_NODES)
        src, dst = (_check_ints(v, "edge endpoints") for v in (src, dst))
        outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        bad = np.flatnonzero(outside | (src == dst))
        if bad.size:
            k = bad[0]
            i, j = int(src[k]), int(dst[k])
            if outside[k]:
                raise ValidationError(f"edge ({i}, {j}) out of range for n={n}")
            raise ValidationError(
                f"edge ({i}, {i}) is a self-loop; pass self_weights instead")
        ew = _check_reals(w, "edge weights", 0, math.inf)
        if not directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        # Merge duplicates by summation (in input order), then drop
        # zero-weight edges.
        uniq, inverse = np.unique(src * n + dst, return_inverse=True)
        merged = np.zeros(uniq.size)
        with np.errstate(over="ignore"):  # rejected below, as W = inf
            np.add.at(merged, inverse, ew)
        keep = merged > 0.0
        uniq, ew = uniq[keep], merged[keep]
        esrc, edst = np.divmod(uniq, n)
        sw = np.zeros(n)
        if self_weights is not None:
            sw = _check_reals(self_weights, "self-weights", 0, math.inf)
            if sw.shape != (n,):
                raise ValidationError("self_weights must have one entry per buyer")
        with np.errstate(over="ignore"):
            totals = np.sum(ew), np.sum(sw)
        if not np.all(np.isfinite(totals)):
            raise ValidationError(
                "total edge weight W and total self-weight N must be finite")
        if labels is not None and not (isinstance(labels, (list, tuple))
                                       and len(labels) == n):
            raise ValidationError(f"labels must be a list or tuple of n={n} entries")
        for arr in (esrc, edst, ew, sw):
            arr.flags.writeable = False
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "n", n)
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

    def scaled(self, c: float) -> "SocialNetwork":
        """Network with every weight multiplied by ``c > 0``."""
        c = _check_real(c, "scale factor c", math.ulp(0.0), math.inf)
        return SocialNetwork._from_arrays(
            self.directed, self.n, self.edge_src, self.edge_dst,
            self.edge_weight * c, self_weights=self.self_weights * c,
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
            "edges": list(map(list, zip(self.edge_src.tolist(),
                                        self.edge_dst.tolist(),
                                        self.edge_weight.tolist()))),
            "self_weights": self.self_weights.tolist(),
        }


def _int_array(values: Sequence) -> np.ndarray:
    """``int(v)`` of each value as an int64 array; as an object array of
    Python ints when one does not fit in 64 bits (it is then out of range
    of every node count and label check, and exact in their messages)."""
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def network_from_json(doc: dict) -> SocialNetwork:
    """Network from a :meth:`SocialNetwork.to_json` document; any malformed
    document raises :class:`ValidationError`."""
    if not isinstance(doc, dict):
        raise ValidationError("network document must be a JSON object")
    directedness = doc.get("directedness")
    if directedness not in ("directed", "undirected"):
        raise ValidationError("directedness must be 'directed' or 'undirected'")
    edges = doc.get("edges", [])
    if not (isinstance(edges, list) and set(map(type, edges)) <= {list, tuple}
            and set(map(len, edges)) <= {3}):
        raise ValidationError("edges must be a list of [i, j, w] triples")
    return SocialNetwork(directedness == "directed", doc.get("n"), edges,
                         self_weights=doc.get("self_weights"))


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

_COMMENT = re.compile("#.*")


def _parses(i: str, j: str, w: str) -> bool:
    try:
        int(i), int(j), float(w)
    except ValueError:
        return False
    return True


def load_network(text: str) -> SocialNetwork:
    """Parse an edge-list document into a validated :class:`SocialNetwork`.

    Format: first non-comment line is ``directed <n>`` or ``undirected <n>``;
    each following line is ``i j w``.  ``#`` starts a comment.  ``i == j``
    lines set self-weights and are allowed only for undirected networks.
    Arbitrary non-negative integer node labels are remapped to dense 0-based
    indices (kept in ``labels``).  Duplicate edges are merged by summation
    with a warning; zero-weight edges are dropped.

    The first fault is reported: the header's, else the first line that is
    not ``i j w`` or has a negative label or a non-finite or negative
    weight, else too many distinct labels, else the first directed
    self-loop.  Python only splits the text; the columns are checked and
    remapped as arrays.
    """
    lines = (_COMMENT.sub("", text) if "#" in text else text).split("\n")
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp,
                         count=len(lines))
    filled = np.flatnonzero(counts)
    if not filled.size:
        raise ParseError("empty document: missing header line")
    head_row = int(filled[0])
    head = lines[head_row].split()
    if len(head) != 2 or head[0] not in ("directed", "undirected"):
        raise ParseError("expected header 'directed <n>' or 'undirected <n>'",
                         head_row + 1)
    try:
        n = _check_int(int(head[1]), "node count", 0, MAX_NODES)
    except ValidationError as exc:
        raise ParseError(str(exc), head_row + 1) from None
    except ValueError:
        raise ParseError(f"invalid node count {head[1]!r}", head_row + 1) from None
    directed = head[0] == "directed"

    # Data lines up to the first one without three tokens, as columns.
    rows = filled[1:]
    wrong = np.flatnonzero(counts[rows] != 3)
    stop = int(wrong[0]) if wrong.size else rows.size
    end_row = int(rows[stop]) if stop < rows.size else len(lines)
    tokens = "\n".join(lines[head_row + 1:end_row]).split()
    del lines  # an error message re-reads its line from the text
    a, b, c = tokens[0::3], tokens[1::3], tokens[2::3]
    del tokens
    try:
        li, lj = _int_array(a), _int_array(b)
        w = np.fromiter(map(float, c), dtype=np.float64, count=len(c))
    except ValueError:  # stop at the first line that does not parse
        stop = next(k for k, ok in enumerate(map(_parses, a, b, c)) if not ok)
        li, lj = _int_array(a[:stop]), _int_array(b[:stop])
        w = np.fromiter(map(float, c[:stop]), dtype=np.float64, count=stop)
    lineno = rows[:stop] + 1
    negative = (li < 0) | (lj < 0)
    finite = np.isfinite(w)
    bad = np.flatnonzero(negative | ~finite | (w < 0))
    if bad.size:
        k = bad[0]
        if negative[k]:
            raise ParseError("node labels must be non-negative", lineno[k])
        if not finite[k]:
            raise ParseError(f"weight must be finite, got {c[k]}", lineno[k])
        raise ParseError(f"weight must be non-negative, got {float(w[k])}",
                         lineno[k])
    if stop < rows.size:
        row = int(rows[stop])
        body = _COMMENT.sub("", text.split("\n")[row]).strip()
        raise ParseError(f"expected 'i j w', got {body!r}", row + 1)

    # Remap arbitrary labels to dense 0-based indices.
    m = w.size
    src, dst, labels = li, lj, None
    if m and max(li.max(), lj.max()) >= n:
        used, inverse = np.unique(np.concatenate([li, lj]), return_inverse=True)
        if used.size > n:
            raise ParseError(f"{used.size} distinct node labels exceed declared n={n}")
        src, dst = inverse[:m], inverse[m:]
        labels = used.tolist() + [None] * (n - used.size)

    # Duplicates warn in line order, up to the first directed self-loop.
    loops = src == dst
    first_loop = int(np.argmax(loops)) if directed and loops.any() else m
    keys = (src * n + dst if directed
            else np.minimum(src, dst) * n + np.maximum(src, dst))[:first_loop]
    repeat = np.ones(first_loop, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    for k in np.flatnonzero(repeat):
        if loops[k]:
            warnings.warn(f"duplicate self-weight line for node {li[k]}; summing",
                          stacklevel=2)
        else:
            warnings.warn(f"duplicate edge ({li[k]}, {lj[k]}) at line "
                          f"{lineno[k]}; summing weights", stacklevel=2)
    if first_loop < m:
        k = first_loop
        raise ParseError(
            f"self-loop ({li[k]}, {lj[k]}) not allowed in directed input; "
            "load the influence as an explicit extra node or apply "
            "eliminate_selfloops to a programmatically built network",
            lineno[k])
    self_w = np.zeros(n)
    with np.errstate(over="ignore"):  # rejected as non-finite
        np.add.at(self_w, src[loops], w[loops])
    edge = ~loops
    return SocialNetwork._from_arrays(directed, n, src[edge], dst[edge],
                                      w[edge], self_weights=self_w,
                                      labels=labels)


def save_network(g: SocialNetwork) -> str:
    """Canonical edge-list text for ``g``; inverse of :func:`load_network`."""
    out = ["{} {}".format("directed" if g.directed else "undirected", g.n)]
    loops = np.flatnonzero(g.self_weights > 0)
    out += map("{0} {0} {1!r}".format, loops.tolist(),
               g.self_weights[loops].tolist())
    # the stored edges are already in (src, dst) order
    out += map("{} {} {!r}".format, g.edge_src.tolist(), g.edge_dst.tolist(),
               g.edge_weight.tolist())
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
    return SocialNetwork._from_arrays(
        True, g.n + loops.size,
        np.concatenate([g.edge_src, g.n + np.arange(loops.size)]),
        np.concatenate([g.edge_dst, loops]),
        np.concatenate([g.edge_weight, g.self_weights[loops]]),
        labels=g.labels + (None,) * loops.size)


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

    Each kind lists its candidate pairs in lexicographic order: ``cycle``
    and ``path`` chain node ``i`` to ``i+1`` (cycles close the loop),
    ``complete_dag`` takes every pair ``i < j`` and is always directed,
    ``bipartite`` (undirected) joins each node of one side to each of the
    other (sizes ``parts``, default as even as possible), and ``random``
    takes every ordered (directed) or unordered (undirected) pair.  Every
    kind then follows one rule: each candidate is kept with probability
    ``density`` (one uniform per candidate, in order), the kept pairs draw
    weights uniformly from ``weight_range`` (else take the constant
    ``weight``), and the buyers draw self-weights from
    ``self_weight_range``.  Any random choice requires a ``seed``, and so
    does the ``random`` kind.  ``parts`` is refused on every kind but
    ``bipartite``, and ``self_weight_range`` on a directed network.
    """
    n = _check_int(n, "node count", 1, MAX_NODES)
    seed = _check_seed(seed)
    if kind not in GENERATOR_KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    density = _check_real(density, "density", 0, 1)
    weight = _check_real(weight, "weight", 0, math.inf)
    for name, bounds in (("weight_range", weight_range),
                         ("self_weight_range", self_weight_range)):
        pair = None if bounds is None else _check_reals(bounds, name, 0, math.inf)
        if pair is not None and (pair.shape != (2,) or pair[0] > pair[1]):
            raise ValidationError(f"{name} must be a pair low <= high, got {bounds!r}")
    directed = _check_bool(directed, "directed") or kind == "complete_dag"
    if parts is not None and kind != "bipartite":
        raise ValidationError(f"parts apply to the bipartite generator, not {kind}")
    if self_weight_range is not None and directed:
        raise ValidationError("self-weights apply to undirected networks only")

    if kind == "cycle":
        if n < 3:
            raise ValidationError("cycle requires n >= 3")
        if directed:
            blocks = [(np.arange(n), np.r_[1:n, 0])]
        else:  # the closing pair (0, n-1) sorts second
            blocks = [(np.r_[0, 0:n - 1], np.r_[1, n - 1, 2:n])]
    elif kind == "path":
        blocks = [(np.arange(n - 1), np.arange(1, n))]
    elif kind == "complete_dag":
        blocks = [np.triu_indices(n, 1)]
    elif kind == "bipartite":
        if directed:
            raise ValidationError("bipartite generator is undirected")
        sizes = _check_ints(((n + 1) // 2, n // 2) if parts is None else parts, "parts")
        if sizes.shape != (2,) or min(sizes) < 1 or sum(sizes) != n:
            raise ValidationError(
                f"parts {sizes.tolist()} must be two positive sizes that sum to n={n}")
        a = int(sizes[0])
        blocks = ((i, np.arange(a, n)) for i in range(a))
    elif directed:  # random: one block per source row
        blocks = ((i, np.delete(np.arange(n), i)) for i in range(n))
    else:
        blocks = ((i, np.arange(i + 1, n)) for i in range(n))

    rng = None
    randomized = density < 1.0 or weight_range is not None \
        or self_weight_range is not None
    if randomized or kind == "random":
        if seed is None:
            raise ValidationError(f"{kind} with random choices requires a seed"
                                  if randomized else
                                  "random generator requires a seed")
        rng = np.random.default_rng(seed)
    src, dst = _sample_pairs(blocks, density, rng)
    w = (rng.uniform(*weight_range, size=src.size) if weight_range is not None
         else np.full(src.size, weight, dtype=np.float64))
    self_w = (rng.uniform(*self_weight_range, size=n)
              if self_weight_range is not None else None)
    return SocialNetwork._from_arrays(directed, n, src, dst, w,
                                      self_weights=self_w)


def _sample_pairs(blocks: Iterable[tuple], density: float, rng):
    """The candidate pairs of the ``(src, dst)`` blocks, each kept with
    probability ``density``; ``src`` is an array, or one source row's
    index.

    Each block draws one uniform per candidate, blocks in order: the same
    uniforms as one draw over all candidates, while only one block is held
    at a time (at least one block is expected).
    """
    src, dst = [], []
    for s, d in blocks:
        if density < 1.0:
            keep = rng.random(d.size) < density
            s, d = (s[keep] if isinstance(s, np.ndarray) else s), d[keep]
        src.append(np.full(d.size, s, dtype=np.int64))
        dst.append(d)
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
        p = _check_real(p, "p", 0.5, math.nextafter(1.0, 0.0))
        return SocialNetwork(False, 2, [(0, 1, 2.0 + p)])
    raise ValidationError(f"unknown gadget kind {kind!r}")
