"""Numeric certification of approximation-ratio bounds.

Each certificate minimizes (or maximizes) one of the library's worst-case
ratio expressions over its constrained domain by a dense vectorized grid
scan followed by local refinement, and reports the certified value with its
optimizer.  Kinds, with the library formula each one evaluates:

``sdp_directed``   worst per-edge revenue ratio of rotate-and-round versus
                   the directed relaxation objective (the edge terms of
                   ``build_sdp``, angles mapped by ``rotate`` and
                   ``rotated_pair_angle``), min over angle triples.
``sdp_undirected`` same for undirected edge terms.
``sdp_self``       same for self-weight terms (depends only on gamma).
``rounding_undirected``  the two minima governing randomized rounding of an
                   undirected pricing vector: ``RoundingSchedule.self_term``
                   over x and ``RoundingSchedule.edge_term`` over y <= x,
                   each divided by the same term of ``strategy_revenue``
                   under the sorted order.
``rounding_directed``    the directed ``RoundingSchedule.edge_term`` over the
                   same marketing term (its x-dependence cancels; certified
                   over the full (x, y) square).
``random_ie``      best achievable ratio of the single-set random IE family,
                   ``random_ie_revenue / revenue_bounds().upper`` through
                   ``class_moments`` of its two classes, max over (q, p) at
                   a given self-weight ratio lam.
``class_ie``       ``class_ratio_terms`` of a K-class assignment vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .netmodel import ValidationError
from .revenue import (GeneralizedIEStrategy, _check_exploit_prob,
                      _random_ie_classes, class_moments)
from .strategies import (DIRECTED_ROUNDING, RoundingSchedule,
                         SIX_CLASS_PRESET_Q, TUNED_EXPLOIT_PROB,
                         UNDIRECTED_ROUNDING, UNDIRECTED_ROUNDING_FLAT,
                         _tuned_inclusion_prob, class_ratio_terms)
from .sdprelax import (DIRECTED_SDP_GAMMA, DIRECTED_SDP_PRICING,
                       UNDIRECTED_SDP_GAMMA, UNDIRECTED_SDP_PRICING,
                       _rotated_pair_angles, rotate)

CERTIFICATE_KINDS = ("sdp_directed", "sdp_undirected", "sdp_self",
                     "rounding_undirected", "rounding_directed",
                     "random_ie", "class_ie")

#: Coarsest accepted scan step.  Up to 0.2 the sdp pair minima come out
#: within 5.1e-4; at 0.5-1 they are overstated by about 3e-3 and at 5 by
#: 9.4e-2 (a "certified" 1.0), which the refinement does not recover.
MAX_GRID_STEP = 0.1

_TWO_OVER_PI = 2.0 / math.pi
_DEN_TOL = 1e-9


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
# Angle-domain machinery (shared by the sdp_* kinds)
# ---------------------------------------------------------------------------
# Domain: angles (x, y, z) in [0, pi]^3 whose cosines satisfy the four
# half-space constraints s1 cx + s2 cy + s3 cz >= -1 (even sign patterns).
# That region is the tetrahedron spanned by the integral sign assignments,
# so every feasible triple is realizable by unit vectors and, coordinate-
# wise, cx ranges over [-1 + |cy + cz|, 1 - |cy - cz|] (symmetric in roles).

def _cos_band(ca: float, cb: float) -> tuple[float, float]:
    return -1.0 + abs(ca + cb), 1.0 - abs(ca - cb)


def _sdp_ratio_coeffs(kind: str, p: float):
    """(numerator, denominator) coefficient builders for the sdp kinds.

    Directed edge: num = a*g - a*f(y) + b*f(z), den = a + b + a*cy - b*cz
    - a*cx with a = 1 - p/2, b = 1 + p/2.  Undirected edge: num =
    (2-p)*g + p*f(y) + p*f(z), den = 2 + p - p*cy - p*cz - (2-p)*cx.
    """
    if kind == "sdp_directed":
        a, b = 1.0 - 0.5 * p, 1.0 + 0.5 * p
        return (a, -a, b), (b, a, -b, -a)
    a = 2.0 - p
    return (a, p, p), (2.0 + p, -p, -p, -a)


def _sdp_ratio_grid(kind: str, p: float, gamma: float, step: float,
                    x_samples: int = 24):
    """Vectorized scan of the constrained angle domain.

    Scans (y, z) on a regular grid and, for each pair, ``x_samples`` angles
    spanning the feasible x-band.  Returns the best point and a candidate
    list for refinement.
    """
    (cg, cfy, cfz), (d0, dy, dz, dx) = _sdp_ratio_coeffs(kind, p)
    ys = np.minimum(np.arange(0.0, math.pi + step * 0.5, step), math.pi)
    zs = ys
    cz_all = np.cos(zs)
    fz_all = rotate(zs, gamma)
    ts = np.linspace(0.0, 1.0, x_samples)
    best = (np.inf, 0.0, 0.0, 0.0)
    candidates = []
    for y in ys:
        cy = math.cos(y)
        fy = rotate(y, gamma)
        lo = -1.0 + np.abs(cy + cz_all)
        hi = 1.0 - np.abs(cy - cz_all)
        x_lo = np.arccos(np.clip(hi, -1.0, 1.0))
        x_hi = np.arccos(np.clip(lo, -1.0, 1.0))
        X = x_lo[:, None] + (x_hi - x_lo)[:, None] * ts[None, :]
        G = _rotated_pair_angles(X, y, zs[:, None], gamma)
        num = cg * G + cfy * fy + cfz * fz_all[:, None]
        den = d0 + dy * cy + dz * cz_all[:, None] + dx * np.cos(X)
        ratio = np.where(den > _DEN_TOL, num / np.maximum(den, _DEN_TOL), np.inf)
        k = int(np.argmin(ratio))
        zi, xi = np.unravel_index(k, ratio.shape)
        val = float(ratio[zi, xi])
        if math.isfinite(val):
            candidates.append((val, float(X[zi, xi]), float(y), float(zs[zi])))
            if val < best[0]:
                best = candidates[-1]
    candidates.sort(key=lambda c: c[0])
    return best, candidates[:32]


def _sdp_ratio_value(kind: str, p: float, gamma: float,
                     x: float, y: float, z: float) -> float:
    (cg, cfy, cfz), (d0, dy, dz, dx) = _sdp_ratio_coeffs(kind, p)
    g = float(_rotated_pair_angles(x, y, z, gamma))
    num = cg * g + cfy * rotate(y, gamma) + cfz * rotate(z, gamma)
    den = d0 + dy * math.cos(y) + dz * math.cos(z) + dx * math.cos(x)
    if den <= _DEN_TOL:
        return np.inf
    return num / den


def _refine_sdp_point(kind: str, p: float, gamma: float,
                      start: tuple[float, float, float],
                      sweeps: int = 12) -> tuple[float, tuple[float, float, float]]:
    """Cyclic 1-D minimization of the ratio along each angle, constrained
    to the feasible band implied by the other two."""
    pt = list(start)
    val = _sdp_ratio_value(kind, p, gamma, *pt)
    for _ in range(sweeps):
        moved = False
        for axis in range(3):
            others = [pt[(axis + 1) % 3], pt[(axis + 2) % 3]]
            lo, hi = _cos_band(math.cos(others[0]), math.cos(others[1]))
            a_lo = math.acos(min(1.0, max(-1.0, hi)))
            a_hi = math.acos(min(1.0, max(-1.0, lo)))
            if a_hi - a_lo < 1e-14:
                continue

            def along(t, axis=axis):
                q = list(pt)
                q[axis] = t
                return _sdp_ratio_value(kind, p, gamma, *q)

            res = minimize_scalar(along, bounds=(a_lo, a_hi), method="bounded",
                                  options={"xatol": 1e-10})
            if res.fun < val - 1e-15:
                pt[axis] = float(res.x)
                val = float(res.fun)
                moved = True
        if not moved:
            break
    return val, (pt[0], pt[1], pt[2])


def _certify_sdp_pair(kind: str, p: float, gamma: float, step: float,
                      refine: bool) -> CertificateReport:
    best, candidates = _sdp_ratio_grid(kind, p, gamma, step)
    val, (x, y, z) = best[0], best[1:]
    if refine:
        for cand in candidates:
            v, pt = _refine_sdp_point(kind, p, gamma, cand[1:])
            if v < val:
                val, (x, y, z) = v, pt
    return CertificateReport(
        kind=kind, params={"p": p, "gamma": gamma},
        value=_TWO_OVER_PI * val,
        argopt={"theta_ij": x, "theta_i": y, "theta_j": z},
        grid_step=step)


def _grid_min_1d(fn, xs: np.ndarray, lo: float, hi: float, step: float,
                 refine: bool) -> tuple[float, float]:
    """Minimum ``(value, x)`` of ``fn`` over the grid ``xs``, polished within
    two steps of the best cell (kept inside [lo, hi]) when ``refine``."""
    vals = fn(xs)
    k = int(np.argmin(vals))
    x, val = float(xs[k]), float(vals[k])
    if refine:
        res = minimize_scalar(lambda t: float(fn(t)),
                              bounds=(max(lo, x - 2 * step), min(hi, x + 2 * step)),
                              method="bounded", options={"xatol": 1e-10})
        if res.fun < val:
            x, val = float(res.x), float(res.fun)
    return val, x


def _certify_sdp_self(gamma: float, step: float, refine: bool) -> CertificateReport:
    xs = np.minimum(np.arange(step, math.pi + 0.5 * step, step), math.pi)
    val, x = _grid_min_1d(lambda t: rotate(t, gamma) / (1.0 - np.cos(t)),
                          xs, 1e-9, math.pi, step, refine)
    return CertificateReport(kind="sdp_self", params={"gamma": gamma},
                             value=_TWO_OVER_PI * val, argopt={"theta": x},
                             grid_step=step)


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


def _pair_grid_min(ratio, step: float, cap: float, sorted_pairs: bool):
    """Grid minimum ``[value, x, y]`` of ``ratio(x, y)`` over x in [1/2, 1]
    and y in [1/2, cap], restricted to y <= x when ``sorted_pairs``."""
    gx = np.minimum(np.arange(0.5, 1.0 + 0.5 * step, step), 1.0)
    gy = np.arange(0.5, cap, step)
    R = ratio(gx[None, :], gy[:, None])
    if sorted_pairs:
        R = np.where(gy[:, None] <= gx[None, :] + 1e-12, R, np.inf)
    yi, xi = np.unravel_index(int(np.argmin(R)), R.shape)
    return [float(R[yi, xi]), float(gx[xi]), float(gy[yi])]


def _certify_rounding_undirected(schedule, step: float,
                                 refine: bool) -> CertificateReport:
    sched = _resolve_schedule(schedule)
    left_fn = partial(_rounding_self_ratio, sched)
    right_fn = partial(_rounding_edge_ratio, sched, directed=False)
    cap = 1.0 - 1e-9
    left_val, left_x = _grid_min_1d(left_fn, np.arange(0.5, cap, step),
                                    0.5, cap, step, refine)
    right = _pair_grid_min(right_fn, step, cap, sorted_pairs=True)
    if refine:
        for _ in range(8):
            v0 = right[0]
            res = minimize_scalar(lambda t: float(right_fn(t, right[2])),
                                  bounds=(right[2], 1.0), method="bounded",
                                  options={"xatol": 1e-10})
            if res.fun < right[0]:
                right[0], right[1] = float(res.fun), float(res.x)
            res = minimize_scalar(lambda t: float(right_fn(right[1], t)),
                                  bounds=(0.5, min(cap, right[1])),
                                  method="bounded", options={"xatol": 1e-10})
            if res.fun < right[0]:
                right[0], right[2] = float(res.fun), float(res.x)
            if v0 - right[0] < 1e-14:
                break
    value = min(left_val, right[0])
    return CertificateReport(
        kind="rounding_undirected",
        params={"schedule": sched.name, "p_hat": sched.p_hat},
        value=value,
        argopt=({"x": left_x} if left_val <= right[0]
                else {"x": right[1], "y": right[2]}),
        grid_step=step,
        details={"self_term": {"min": left_val, "x": left_x},
                 "edge_term": {"min": right[0], "x": right[1], "y": right[2]}})


def _certify_rounding_directed(step: float, refine: bool) -> CertificateReport:
    ratio = partial(_rounding_edge_ratio, DIRECTED_ROUNDING, directed=True)
    cap = 1.0 - 1e-9
    best = _pair_grid_min(ratio, step, cap, sorted_pairs=False)
    if refine:
        res = minimize_scalar(lambda t: float(ratio(best[1], t)),
                              bounds=(0.5, cap), method="bounded",
                              options={"xatol": 1e-12})
        if res.fun < best[0]:
            best[0], best[2] = float(res.fun), float(res.x)
    return CertificateReport(
        kind="rounding_directed", params={"p_hat": DIRECTED_ROUNDING.p_hat},
        value=best[0], argopt={"x": best[1], "y": best[2]},
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


def _certify_random_ie(lam: float, directed: bool, step: float,
                       refine: bool) -> CertificateReport:
    qs = np.arange(0.0, 1.0 + 0.5 * step, step)
    ps = np.arange(0.5, 1.0 + 0.5 * step, step)
    qs, ps = np.minimum(qs, 1.0), np.minimum(ps, 1.0)
    # in blocks of q rows: the two-class arrays of the whole grid would hold
    # several (q, p, 2) temporaries at once
    R = np.concatenate([_random_ie_ratio(qb[:, None], ps, lam, directed)
                        for qb in np.array_split(qs, 16)])
    qi, pi_ = np.unravel_index(int(np.argmax(R)), R.shape)
    best = [float(R[qi, pi_]), float(qs[qi]), float(ps[pi_])]
    if refine:
        res = minimize(
            lambda v: -float(_random_ie_ratio(v[0], v[1], lam, directed)),
            x0=np.array(best[1:]), method="L-BFGS-B",
            bounds=[(0.0, 1.0), (0.5, 1.0)])
        if -res.fun > best[0]:
            best = [float(-res.fun), float(res.x[0]), float(res.x[1])]
    tuned = _tuned_random_ie(lam, directed)
    if tuned["value"] > best[0]:
        best = [tuned["value"], tuned["q"], tuned["p"]]
    return CertificateReport(
        kind="random_ie",
        params={"lam": lam, "directed": directed},
        value=best[0], argopt={"q": best[1], "p": best[2]},
        grid_step=step, maximization=True,
        details={"tuned_parameters": tuned})


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
    undirected = min(t1, t2)
    directed_value = 0.5 * t2
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
                      refine: bool = True, **params) -> CertificateReport:
    """Certify one ratio expression; see the module docstring for kinds.

    ``grid_step`` overrides the scan resolution (defaults to 1e-3 in the
    native units of the kind, at most MAX_GRID_STEP); refinement then
    polishes the best grid cells to ~1e-6.  Remaining keyword arguments
    are kind-specific: ``p`` and ``gamma`` for the sdp kinds,
    ``schedule`` ("piecewise" or "flat") for rounding_undirected, ``lam``
    and ``directed`` for random_ie, ``K``, ``q``, ``directed`` for
    class_ie.
    """
    step = 1e-3 if grid_step is None else float(grid_step)
    if not (math.isfinite(step) and 0 < step <= MAX_GRID_STEP):
        raise ValidationError(
            f"grid_step must lie in (0, {MAX_GRID_STEP}], got {step}")
    if kind in ("sdp_directed", "sdp_undirected"):
        directed = kind == "sdp_directed"
        p = _check_exploit_prob(params.pop(
            "p", DIRECTED_SDP_PRICING if directed else UNDIRECTED_SDP_PRICING))
        gamma = float(params.pop(
            "gamma", DIRECTED_SDP_GAMMA if directed else UNDIRECTED_SDP_GAMMA))
        _no_extras(kind, params)
        return _certify_sdp_pair(kind, p, gamma, step, refine)
    if kind == "sdp_self":
        gamma = float(params.pop("gamma", UNDIRECTED_SDP_GAMMA))
        _no_extras(kind, params)
        return _certify_sdp_self(gamma, step, refine)
    if kind == "rounding_undirected":
        schedule = params.pop("schedule", None)
        _no_extras(kind, params)
        return _certify_rounding_undirected(schedule, step, refine)
    if kind == "rounding_directed":
        _no_extras(kind, params)
        return _certify_rounding_directed(step, refine)
    if kind == "random_ie":
        lam = float(params.pop("lam", 0.0))
        if not (math.isfinite(lam) and lam >= 0):
            raise ValidationError(
                f"self-weight ratio lam must be finite and non-negative, got {lam}")
        directed = bool(params.pop("directed", False))
        _no_extras(kind, params)
        return _certify_random_ie(lam, directed, step, refine)
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
