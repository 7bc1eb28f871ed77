import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrev import (
    CERTIFICATE_KINDS,
    DIRECTED_ROUNDING,
    SIX_CLASS_PRESET_Q,
    UNDIRECTED_ROUNDING,
    UNDIRECTED_ROUNDING_FLAT,
    MarketingStrategy,
    SocialNetwork,
    ValidationError,
    class_ratio,
    random_ie_revenue,
    ratio_certificate,
    revenue_bounds,
    rounding_expected_revenue,
    strategy_revenue,
)
from netrev.certificates import (_random_ie_ratio, _rounding_edge_ratio,
                                 _rounding_self_ratio)


def test_kind_catalogue():
    assert set(CERTIFICATE_KINDS) == {
        "sdp_directed", "sdp_undirected", "sdp_self",
        "rounding_undirected", "rounding_directed", "random_ie", "class_ie"}
    with pytest.raises(ValidationError):
        ratio_certificate("nonesuch")
    with pytest.raises(ValidationError):
        ratio_certificate("rounding_directed", banana=1)
    with pytest.raises(ValidationError):
        ratio_certificate("rounding_directed", grid_step=-1.0)


def test_directed_rounding_minimum():
    rep = ratio_certificate("rounding_directed")
    assert rep.value == pytest.approx(0.5528964, abs=1e-6)
    # the pair-price coordinate of the minimizer has a closed form
    assert rep.argopt["y"] == pytest.approx((3 - math.sqrt(3)) / 2, abs=1e-6)
    assert not rep.maximization


def test_undirected_rounding_minima():
    pw = ratio_certificate("rounding_undirected", schedule="piecewise")
    assert pw.value == pytest.approx(0.9111001, abs=1e-6)
    assert pw.details["edge_term"]["min"] <= pw.details["self_term"]["min"]
    assert pw.details["self_term"]["min"] == pytest.approx(0.9112813, abs=1e-6)
    flat = ratio_certificate("rounding_undirected", schedule="flat")
    assert flat.value == pytest.approx(0.8024592, abs=1e-6)
    with pytest.raises(ValidationError):
        ratio_certificate("rounding_undirected", schedule="steep")


def test_random_ie_optimum_is_maximization():
    rep = ratio_certificate("random_ie", lam=0.0, directed=False)
    assert rep.maximization
    assert rep.value == pytest.approx(0.6862915, abs=1e-6)
    assert rep.argopt["p"] == pytest.approx(2 - math.sqrt(2), abs=1e-6)
    assert rep.argopt["q"] == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-6)
    d = ratio_certificate("random_ie", directed=True)
    assert d.value == pytest.approx(0.3431458, abs=1e-6)
    # the directed optimum is exactly half the undirected lam=0 optimum
    assert d.value == pytest.approx(rep.value / 2, abs=1e-9)


def test_random_ie_heavier_self_weights_help():
    lo = ratio_certificate("random_ie", lam=0.0).value
    hi = ratio_certificate("random_ie", lam=1.0).value
    assert hi > lo


def test_class_ie_terms_and_directed_half():
    rep = ratio_certificate("class_ie", K=6)
    assert rep.value == pytest.approx(0.703225356, abs=1e-9)
    assert rep.details["self_term"] == pytest.approx(0.70356, abs=1e-9)
    d = ratio_certificate("class_ie", K=6, directed=True)
    assert d.value == pytest.approx(0.703225356 / 2, abs=1e-9)
    two = ratio_certificate("class_ie", K=2, q=(1 / 3, 2 / 3))
    assert two.value == pytest.approx(2 / 3, abs=1e-12)
    with pytest.raises(ValidationError):
        ratio_certificate("class_ie", K=4)  # no stored vector
    with pytest.raises(ValidationError):
        ratio_certificate("class_ie", K=2, q=(0.9, 0.9))


def test_self_rotation_certificates():
    base = ratio_certificate("sdp_self", gamma=0.0)
    assert base.value == pytest.approx(0.8785672, abs=1e-6)
    assert base.argopt["theta"] == pytest.approx(2.331122, abs=1e-4)
    tuned = ratio_certificate("sdp_self", gamma=0.209)
    assert tuned.value == pytest.approx(0.9039467, abs=1e-6)
    assert tuned.value > base.value


def test_report_serialization_shape():
    rep = ratio_certificate("class_ie", K=6)
    doc = rep.to_json()
    assert set(doc) == {"kind", "params", "min_value", "argmin",
                        "grid_step", "details"}
    assert doc["min_value"] == rep.value
    assert doc["params"]["K"] == 6


def test_coarse_grid_still_lands_in_the_basin():
    rep = ratio_certificate("rounding_directed", grid_step=1e-2)
    assert rep.value == pytest.approx(0.5528964, abs=1e-4)


# minima at the default (p, gamma) of each kind
_SDP_PAIR_MINIMA = {"sdp_directed": 0.9064443039880198,
                    "sdp_undirected": 0.903516801713222}


@pytest.mark.parametrize("kind", ["sdp_directed", "sdp_undirected"])
def test_sdp_pair_value_does_not_depend_on_the_grid_step(kind):
    for step in (1e-2, 3e-2, 0.1):
        assert ratio_certificate(kind, grid_step=step).value == pytest.approx(
            _SDP_PAIR_MINIMA[kind], rel=0, abs=1e-12), step


@pytest.mark.xfail(strict=True, reason="known defect: the step-0.1 scan's "
                   "best cell starts the polish in the theta_i = 0 basin")
def test_coarse_sdp_undirected_scan_finds_the_interior_minimum():
    fine = ratio_certificate("sdp_undirected", p=0.5, gamma=0.176,
                             grid_step=5e-2)
    assert fine.value == pytest.approx(0.8997813458280811, rel=0, abs=1e-9)
    coarse = ratio_certificate("sdp_undirected", p=0.5, gamma=0.176,
                               grid_step=0.1)
    assert coarse.value == pytest.approx(fine.value, rel=0, abs=1e-9)


@pytest.mark.parametrize("kind", ["sdp_directed", "sdp_undirected"])
def test_sdp_pair_argmin_is_a_feasible_triple_attaining_the_value(kind):
    from netrev.certificates import _cos_band, _sdp_edge_ratio

    rep = ratio_certificate(kind)
    x, y, z = (rep.argopt[k] for k in ("theta_ij", "theta_i", "theta_j"))
    lo, hi = _cos_band(math.cos(y), math.cos(z))
    assert lo - 1e-12 <= math.cos(x) <= hi + 1e-12
    ratio = _sdp_edge_ratio(kind, rep.params["p"], rep.params["gamma"],
                            x, y, z)
    assert 2 / math.pi * float(ratio) == pytest.approx(rep.value, abs=1e-12)


def test_class_certificate_agrees_with_ratio_helper():
    rep = ratio_certificate("class_ie", K=6, q=SIX_CLASS_PRESET_Q)
    assert rep.value == pytest.approx(class_ratio(6, SIX_CLASS_PRESET_Q))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
def test_cos_band_is_a_valid_subinterval_of_the_geometric_band(a, b):
    from netrev.certificates import _cos_band

    ca, cb = math.cos(a), math.cos(b)
    lo, hi = _cos_band(ca, cb)
    assert -1.0 - 1e-12 <= lo <= hi + 1e-12 <= 1.0 + 1e-12
    # the constrained band sits inside what unit vectors can realize:
    # cos of the coplanar extremes min(a+b, 2pi-a-b) and |a-b|
    geo_lo = math.cos(min(a + b, 2 * math.pi - a - b))
    geo_hi = math.cos(abs(a - b))
    assert lo >= geo_lo - 1e-9
    assert hi <= geo_hi + 1e-9
    # symmetric in its two arguments
    assert _cos_band(cb, ca) == (lo, hi)


@pytest.mark.parametrize("kind, params", [
    ("sdp_directed", {"p": 2.0}),
    ("sdp_undirected", {"p": 0.4}),
    ("sdp_directed", {"p": math.nan}),
    ("sdp_undirected", {"p": 1.0}),
    ("random_ie", {"lam": math.nan}),
    ("random_ie", {"lam": math.inf}),
    ("random_ie", {"lam": -0.5}),
    ("rounding_directed", {"grid_step": math.nan}),
    ("rounding_directed", {"grid_step": math.inf}),
    ("sdp_self", {"grid_step": 0.0}),
    ("sdp_directed", {"grid_step": 5.0}),
    ("sdp_undirected", {"grid_step": 0.1 + 1e-9}),
    ("sdp_directed", {"grid_step": 1e-9}),
    ("rounding_undirected", {"grid_step": 1e-7}),
    ("random_ie", {"grid_step": 1e-3 - 1e-9}),
])
def test_certificate_rejects_invalid_inputs(kind, params):
    with pytest.raises(ValidationError):
        ratio_certificate(kind, **params)


# ---------------------------------------------------------------------------
# Certificates evaluate the library's own closed forms
# ---------------------------------------------------------------------------

def _one_edge(directed, w=1.0, self_weights=None):
    return SocialNetwork(directed, 2, [(0, 1, w)], self_weights=self_weights)


@pytest.mark.parametrize("schedule, directed", [
    (UNDIRECTED_ROUNDING, False),
    (UNDIRECTED_ROUNDING_FLAT, False),
    (DIRECTED_ROUNDING, True),
])
def test_rounding_ratio_is_library_revenue_ratio(schedule, directed):
    rng = np.random.default_rng(7)
    g = _one_edge(directed, w=1.7)
    one = SocialNetwork(False, 1, [], self_weights=np.array([2.3]))
    for _ in range(60):
        x, y = np.sort(rng.uniform(0.5, 1.0 - 1e-6, size=2))[::-1]
        # x >= y, so buyer 0 goes first in the sorted order
        sorted_order = MarketingStrategy((0, 1), (x, y))
        want = (rounding_expected_revenue(g, [x, y], schedule)
                / strategy_revenue(g, sorted_order))
        assert _rounding_edge_ratio(schedule, x, y, directed) == \
            pytest.approx(want, rel=1e-12)
        want_self = (rounding_expected_revenue(one, [x], schedule)
                     / strategy_revenue(one, MarketingStrategy((0,), (x,))))
        assert _rounding_self_ratio(schedule, x) == \
            pytest.approx(want_self, rel=1e-12)


def test_rounding_certificate_value_is_attained_by_the_library():
    rep = ratio_certificate("rounding_directed")
    x, y = rep.argopt["x"], rep.argopt["y"]
    g = _one_edge(True)
    got = (rounding_expected_revenue(g, [x, y], DIRECTED_ROUNDING)
           / strategy_revenue(g, MarketingStrategy((0, 1), (x, y))))
    assert got == pytest.approx(rep.value, rel=1e-12)


def test_random_ie_ratio_is_library_revenue_ratio():
    rng = np.random.default_rng(8)
    for _ in range(60):
        q, p = rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.0)
        lam = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        # one unit edge, self-weight lam split over both buyers: N / W = lam
        g = _one_edge(False, self_weights=np.array([0.5 * lam, 0.5 * lam]))
        want = random_ie_revenue(g, q, p) / revenue_bounds(g).upper
        assert _random_ie_ratio(q, p, lam, False) == pytest.approx(want, rel=1e-12)
        d = _one_edge(True, w=2.0)
        want = random_ie_revenue(d, q, p) / revenue_bounds(d).upper
        assert _random_ie_ratio(q, p, 0.0, True) == pytest.approx(want, rel=1e-12)


def test_random_ie_certificate_value_is_attained_by_the_library():
    lam = 0.5
    rep = ratio_certificate("random_ie", lam=lam)
    g = _one_edge(False, self_weights=np.array([lam, 0.0]))
    got = (random_ie_revenue(g, rep.argopt["q"], rep.argopt["p"])
           / revenue_bounds(g).upper)
    assert got == pytest.approx(rep.value, rel=1e-12)
