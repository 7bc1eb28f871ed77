"""Numeric certification of approximation-ratio bounds.

Each certificate minimizes (or maximizes) one of the library's worst-case
ratio expressions over a box and reports the optimum with its optimizer.
Every scanned kind goes through one routine, ``_box_min``: a vectorized
scan of a regular grid over the box, then one bounded Nelder-Mead polish
from the best cell.  Kinds, with the library formula each one evaluates
and the box it is scanned over:

``sdp_directed``   worst per-edge revenue ratio of rotate-and-round versus
                   the directed relaxation objective (the edge terms of
                   ``sdprelax._edge_terms``, angles mapped by ``rotate`` and
                   ``rotated_pair_angle``), min over feasible angle
                   triples: (theta_i, theta_j, t) in [0, pi]^2 x [0, 1],
                   with theta_ij at fraction t of its ``_cos_band`` band.
                   Each angle term is evaluated per axis or per (theta_i,
                   theta_j) face; only theta_ij, its cosine, its rotated
                   angle and the ratio are evaluated per cell.
``sdp_undirected`` same for undirected edge terms.
``sdp_self``       same for the self-weight term ``sdprelax._SELF_TERMS``
                   (depends only on gamma), over theta in [0, pi].
``rounding_undirected``  the two minima governing randomized rounding of an
                   undirected pricing vector: ``RoundingSchedule.self_term``
                   over x and ``RoundingSchedule.edge_term`` over y <= x
                   (the box (x, s) with y = 1/2 + s (x - 1/2)), each divided
                   by the same term of ``strategy_revenue`` under the
                   sorted order.
``rounding_directed``    the directed ``RoundingSchedule.edge_term`` over the
                   same marketing term (its x-dependence cancels; certified
                   over the full (x, y) square).
``random_ie``      best achievable ratio of the single-set random IE family,
                   ``random_ie_revenue / revenue_bounds().upper`` through
                   ``class_moments`` of its two classes, max over (q, p) at
                   a given self-weight ratio lam.
``class_ie``       ``class_ratio_terms`` of a K-class assignment vector (a
                   closed form; nothing is scanned).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .netmodel import ValidationError
from .revenue import (GeneralizedIEStrategy, _check_exploit_prob,
                      _random_ie_classes, class_moments)
from .strategies import (DIRECTED_ROUNDING, RoundingSchedule,
                         SIX_CLASS_PRESET_Q, TUNED_EXPLOIT_PROB,
                         UNDIRECTED_ROUNDING, UNDIRECTED_ROUNDING_FLAT,
                         _tuned_inclusion_prob, class_ratio, class_ratio_terms)
from .sdprelax import (DIRECTED_SDP_GAMMA, DIRECTED_SDP_PRICING,
                       UNDIRECTED_SDP_GAMMA, UNDIRECTED_SDP_PRICING,
                       _SELF_TERMS, _edge_terms, _rotated_pair_angles, rotate)

CERTIFICATE_KINDS = ("sdp_directed", "sdp_undirected", "sdp_self",
                     "rounding_undirected", "rounding_directed",
                     "random_ie", "class_ie")

#: Finest accepted scan step.  The polish, not the grid, sets the precision,
#: and at this step the sdp pair scan already evaluates 2.4e8 angle triples.
MIN_GRID_STEP = 1e-3
#: Coarsest accepted scan step.  Up to 0.1 every kind agrees with its 1e-2
#: value to 2e-16, except the sdp_undirected minimum at p=0.5, gamma=0.176,
#: whose best cell at 0.1 is in the theta_i = 0 corner: 1.6e-4 too high.
#: At 0.2-1 the piecewise rounding minimum is overstated by up to 2.3e-2,
#: and at 5 the sdp pair minima by up to 5.8e-2.
MAX_GRID_STEP = 0.1

_TWO_OVER_PI = 2.0 / math.pi
_DEN_TOL = 1e-9
_CAP = 1.0 - 1e-9  # price boxes end here, where 1 - price is still positive
_BLOCK_CELLS = 1 << 15  # grid cells evaluated at once by ``_box_min``


@dataclass(frozen=True)
class CertificateReport:
    """Certified optimum of a ratio expression.

    ``value`` is a minimum unless ``maximization`` (then the JSON keys keep
    their names for format stability and hold the maximum/argmax).
    """

    kind: str
    params: dict
    value: float
    argopt: dict
    grid_step: Optional[float]
    maximization: bool = False
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "min_value": self.value, "argmin": self.argopt,
                "grid_step": self.grid_step, "details": self.details}


# ---------------------------------------------------------------------------
# The one minimizer
# ---------------------------------------------------------------------------

def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Grid over [lo, hi] at ``step``, ending at ``hi``."""
    return np.append(np.arange(lo, hi, step), hi)


def _box_min(fn, axes) -> tuple[float, np.ndarray]:
    """Minimum ``(value, point)`` of ``fn`` over the box spanned by ``axes``.

    ``fn`` takes one coordinate array per axis, broadcast against each
    other, and returns the ratio there (inf where it is undefined).  The
    grid ``axes[0] x axes[1] x ...`` is scanned in blocks of first-axis
    rows; one bounded Nelder-Mead run from the best cell then polishes it.
    """
    mesh = np.ix_(*axes)
    shape = tuple(len(a) for a in axes)
    rows = max(1, _BLOCK_CELLS * shape[0] // math.prod(shape))
    best, cell = np.inf, None
    for r in range(0, shape[0], rows):
        vals = fn(mesh[0][r:r + rows], *mesh[1:])
        k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[k] < best:
            best, cell = float(vals[k]), (k[0] + r,) + k[1:]
    point = np.array([a[i] for a, i in zip(axes, cell)])
    res = minimize(lambda v: float(fn(*v)), point, method="Nelder-Mead",
                   bounds=[(a[0], a[-1]) for a in axes],
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxfev": 4000})
    if res.fun < best:
        return float(res.fun), res.x
    return best, point


def _ratio(num, den):
    """``num / den``, inf where the denominator vanishes."""
    return np.where(den > _DEN_TOL, num / np.maximum(den, _DEN_TOL), np.inf)


# ---------------------------------------------------------------------------
# Angle-domain machinery (shared by the sdp_* kinds)
# ---------------------------------------------------------------------------
# Domain: angles (x, y, z) in [0, pi]^3 whose cosines satisfy the four
# half-space constraints s1 cx + s2 cy + s3 cz >= -1 (even sign patterns).
# That region is the tetrahedron spanned by the integral sign assignments,
# so every feasible triple is realizable by unit vectors and, coordinate-
# wise, cx ranges over [-1 + |cy + cz|, 1 - |cy - cz|] (symmetric in roles).

def _cos_band(ca, cb):
    return -1.0 + abs(ca + cb), 1.0 - abs(ca - cb)


def _band_angle(y, z, t):
    """theta_ij at fraction ``t`` of its feasible band given theta_i = y and
    theta_j = z; maps the tetrahedron onto the box [0, pi]^2 x [0, 1]."""
    lo, hi = _cos_band(np.cos(y), np.cos(z))
    x_lo = np.arccos(np.clip(hi, -1.0, 1.0))
    return x_lo + t * (np.arccos(np.clip(lo, -1.0, 1.0)) - x_lo)


def _sdp_edge_ratio(kind: str, p: float, gamma: float, x, y, z):
    """Rotate-and-round revenue over the relaxation term of one edge at the
    angle triple (theta_ij, theta_i, theta_j) = (x, y, z), broadcast.

    With (d0, dy, dz, dx) the edge's ``_edge_terms``, the relaxation term
    is den = d0 + dy cy + dz cz + dx cx.  Hyperplane rounding of the
    rotated vectors gives E[y_a y_b] = 1 - (2 / pi) f, f the pair's angle
    after rotation, and the terms sum to zero, so the expected rounded
    term is (2 / pi) num with num = -dx f(x) - dy f(y) - dz f(z).
    """
    d0, dy, dz, dx = _edge_terms(p, kind == "sdp_directed")
    cx = np.cos(x)
    num = -(dx * _rotated_pair_angles(cx, y, z, gamma)
            + dy * rotate(y, gamma) + dz * rotate(z, gamma))
    return _ratio(num, d0 + dy * np.cos(y) + dz * np.cos(z) + dx * cx)


def _certify_sdp_pair(kind: str, p: float, gamma: float,
                      step: float) -> CertificateReport:
    angles = _axis(0.0, math.pi, step)
    val, (y, z, t) = _box_min(
        lambda y, z, t: _sdp_edge_ratio(kind, p, gamma,
                                        _band_angle(y, z, t), y, z),
        (angles, angles, np.linspace(0.0, 1.0, 24)))
    return CertificateReport(
        kind=kind, params={"p": p, "gamma": gamma},
        value=_TWO_OVER_PI * val,
        argopt={"theta_ij": float(_band_angle(y, z, t)),
                "theta_i": float(y), "theta_j": float(z)},
        grid_step=step)


def _certify_sdp_self(gamma: float, step: float) -> CertificateReport:
    d0, d1 = _SELF_TERMS
    val, (theta,) = _box_min(
        lambda t: _ratio(-d1 * rotate(t, gamma), d0 + d1 * np.cos(t)),
        (_axis(0.0, math.pi, step),))
    return CertificateReport(kind="sdp_self", params={"gamma": gamma},
                             value=_TWO_OVER_PI * val,
                             argopt={"theta": float(theta)}, grid_step=step)


# ---------------------------------------------------------------------------
# Pricing-vector rounding terms
# ---------------------------------------------------------------------------

def _resolve_schedule(schedule) -> RoundingSchedule:
    if isinstance(schedule, RoundingSchedule):
        return schedule
    if schedule in (None, "piecewise"):
        return UNDIRECTED_ROUNDING
    if schedule == "flat":
        return UNDIRECTED_ROUNDING_FLAT
    raise ValidationError(f"unknown rounding schedule {schedule!r}")


def _rounding_self_ratio(sched: RoundingSchedule, x):
    """Rounded over marketing revenue per unit self-weight at price x."""
    x = np.asarray(x, dtype=np.float64)
    return sched.self_term(x) / (x * (1.0 - x))


def _rounding_edge_ratio(sched: RoundingSchedule, x, y, directed: bool):
    """Rounded over marketing revenue per unit weight of an edge whose
    endpoints have prices x >= y (so the x buyer is approached first)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return sched.edge_term(x, y, directed) / (x * y * (1.0 - y))


def _certify_rounding_undirected(schedule, step: float) -> CertificateReport:
    sched = _resolve_schedule(schedule)
    left_val, (left_x,) = _box_min(partial(_rounding_self_ratio, sched),
                                   (_axis(0.5, _CAP, step),))
    right_val, (x, s) = _box_min(
        lambda x, s: _rounding_edge_ratio(sched, x, 0.5 + s * (x - 0.5),
                                          directed=False),
        (_axis(0.5, 1.0, step), _axis(0.0, _CAP, step)))
    left_x, x, y = float(left_x), float(x), float(0.5 + s * (x - 0.5))
    return CertificateReport(
        kind="rounding_undirected",
        params={"schedule": sched.name, "p_hat": sched.p_hat},
        value=min(left_val, right_val),
        argopt=({"x": left_x} if left_val <= right_val else {"x": x, "y": y}),
        grid_step=step,
        details={"self_term": {"min": left_val, "x": left_x},
                 "edge_term": {"min": right_val, "x": x, "y": y}})


def _certify_rounding_directed(step: float) -> CertificateReport:
    val, (x, y) = _box_min(
        partial(_rounding_edge_ratio, DIRECTED_ROUNDING, directed=True),
        (_axis(0.5, 1.0, step), _axis(0.5, _CAP, step)))
    return CertificateReport(
        kind="rounding_directed", params={"p_hat": DIRECTED_ROUNDING.p_hat},
        value=val, argopt={"x": float(x), "y": float(y)},
        grid_step=step,
        details={"x_free": "the ratio is constant in x",
                 "closed_form_argmin_y": (3.0 - math.sqrt(3.0)) / 2.0})


# ---------------------------------------------------------------------------
# Random IE family ratio
# ---------------------------------------------------------------------------

def _random_ie_ratio(q, p, lam: float, directed: bool):
    """``random_ie_revenue / revenue_bounds().upper`` on a network with
    N / W = lam (N = 0 when directed), broadcast over ``q`` and ``p``: the
    two-class moments give S1 per unit self-weight and S2 per unit edge
    weight (S2 / 2 directed), against (W + N) / 4."""
    S1, S2 = class_moments(*_random_ie_classes(q, p))
    if directed:
        return 4.0 * (0.5 * S2)
    return 4.0 * (S1 * lam + S2) / (1.0 + lam)


def _tuned_random_ie(lam: float, directed: bool) -> dict:
    q, p = _tuned_inclusion_prob(lam, directed), TUNED_EXPLOIT_PROB
    return {"q": q, "p": p,
            "value": float(_random_ie_ratio(q, p, lam, directed))}


def _certify_random_ie(lam: float, directed: bool,
                       step: float) -> CertificateReport:
    val, (q, p) = _box_min(
        lambda q, p: -_random_ie_ratio(q, p, lam, directed),
        (_axis(0.0, 1.0, step), _axis(0.5, 1.0, step)))
    return CertificateReport(
        kind="random_ie",
        params={"lam": lam, "directed": directed},
        value=-val, argopt={"q": float(q), "p": float(p)},
        grid_step=step, maximization=True,
        details={"tuned_parameters": _tuned_random_ie(lam, directed)})


# ---------------------------------------------------------------------------
# Class-based IE ratio
# ---------------------------------------------------------------------------

def _certify_class_ie(K: int, q, directed: bool) -> CertificateReport:
    if q is None:
        if K != 6:
            raise ValidationError("default assignment vector exists for K=6 only")
        q = SIX_CLASS_PRESET_Q
    strategy = GeneralizedIEStrategy(K, tuple(q))
    t1, t2 = class_ratio_terms(strategy.K, strategy.q)
    undirected = class_ratio(strategy.K, strategy.q)
    directed_value = class_ratio(strategy.K, strategy.q, directed=True)
    return CertificateReport(
        kind="class_ie",
        params={"K": strategy.K, "q": list(strategy.q), "directed": directed},
        value=directed_value if directed else undirected,
        argopt={}, grid_step=None,
        details={"self_term": t1, "edge_term": t2,
                 "undirected": undirected, "directed": directed_value})


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def ratio_certificate(kind: str, grid_step: Optional[float] = None,
                      **params) -> CertificateReport:
    """Certify one ratio expression; see the module docstring for kinds.

    ``grid_step`` sets the scan resolution in the native units of the kind
    (default 1e-2, within [MIN_GRID_STEP, MAX_GRID_STEP]; the sdp pair
    kinds also take 24 samples across each theta_ij band); the polish then
    settles the best cell to about 1e-10.  Remaining keyword arguments
    are kind-specific: ``p`` and ``gamma`` for the sdp kinds,
    ``schedule`` ("piecewise" or "flat") for rounding_undirected, ``lam``
    and ``directed`` for random_ie, ``K``, ``q``, ``directed`` for
    class_ie.
    """
    step = 1e-2 if grid_step is None else float(grid_step)
    if not MIN_GRID_STEP <= step <= MAX_GRID_STEP:
        raise ValidationError(f"grid_step must lie in [{MIN_GRID_STEP}, "
                              f"{MAX_GRID_STEP}], got {step}")
    if kind in ("sdp_directed", "sdp_undirected"):
        directed = kind == "sdp_directed"
        p = _check_exploit_prob(params.pop(
            "p", DIRECTED_SDP_PRICING if directed else UNDIRECTED_SDP_PRICING))
        gamma = float(params.pop(
            "gamma", DIRECTED_SDP_GAMMA if directed else UNDIRECTED_SDP_GAMMA))
        _no_extras(kind, params)
        return _certify_sdp_pair(kind, p, gamma, step)
    if kind == "sdp_self":
        gamma = float(params.pop("gamma", UNDIRECTED_SDP_GAMMA))
        _no_extras(kind, params)
        return _certify_sdp_self(gamma, step)
    if kind == "rounding_undirected":
        schedule = params.pop("schedule", None)
        _no_extras(kind, params)
        return _certify_rounding_undirected(schedule, step)
    if kind == "rounding_directed":
        _no_extras(kind, params)
        return _certify_rounding_directed(step)
    if kind == "random_ie":
        lam = float(params.pop("lam", 0.0))
        if not (math.isfinite(lam) and lam >= 0):
            raise ValidationError(
                f"self-weight ratio lam must be finite and non-negative, got {lam}")
        directed = bool(params.pop("directed", False))
        _no_extras(kind, params)
        return _certify_random_ie(lam, directed, step)
    if kind == "class_ie":
        K = params.pop("K", 6)
        q = params.pop("q", None)
        directed = bool(params.pop("directed", False))
        _no_extras(kind, params)
        return _certify_class_ie(K, q, directed)
    raise ValidationError(
        f"unknown certificate kind {kind!r}; choose from {CERTIFICATE_KINDS}")


def _no_extras(kind: str, params: dict) -> None:
    if params:
        raise ValidationError(
            f"unexpected parameters for {kind}: {sorted(params)}")
