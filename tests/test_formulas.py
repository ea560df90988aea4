"""Closed forms cross-checked against the certified numeric path.

Every formula here has an independent numeric oracle: build the digraph,
run the certified power iteration, compare.  Quadratics and quotients give
a second, purely algebraic route to the same numbers.
"""
import math

import numpy as np
import pytest

from alphaspec import (
    alpha_matrix,
    complete,
    k_nkm,
    knkm_quadratic,
    knkm_quotient_entries,
    lambda_knkm,
    max_vertex_conn_radius,
    quotient_matrix,
    second_max_radius,
    spectral_radius,
)

ALPHAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
PARAMS = [
    (n, k, m)
    for n in range(3, 9)
    for k in range(1, n - 1)
    for m in range(1, n - k)
]


def test_lambda_knkm_frozen_value():
    # K(6,2,1) at alpha 0: largest root of x^2 - 4x - 2, i.e. 2 + sqrt(6)
    assert lambda_knkm(6, 2, 1, 0.0) == pytest.approx(2 + math.sqrt(6), abs=1e-14)


def test_lambda_knkm_matches_power_iteration():
    for n, k, m in PARAMS:
        for alpha in ALPHAS:
            want = spectral_radius(k_nkm(n, k, m), alpha).radius
            assert lambda_knkm(n, k, m, alpha) == pytest.approx(want, abs=1e-9), (
                n,
                k,
                m,
                alpha,
            )


def test_lambda_knkm_validation():
    with pytest.raises(ValueError):
        lambda_knkm(5, 0, 1, 0.0)
    with pytest.raises(ValueError):
        lambda_knkm(5, 2, 3, 0.0)
    with pytest.raises(ValueError):
        lambda_knkm(6, 2, 1, 1.0)


def test_quadratic_annihilates_lambda():
    for n, k, m in PARAMS:
        for alpha in (0.0, 0.4, 0.8):
            lam = lambda_knkm(n, k, m, alpha)
            b, c = knkm_quadratic(n, k, m, alpha)
            # scale by lam so the residual is relative
            assert abs(lam * lam - b * lam + c) / max(lam * lam, 1.0) <= 1e-12


def test_quadratic_root_is_the_larger_one():
    b, c = knkm_quadratic(7, 3, 2, 0.6)
    roots = np.roots([1.0, -b, c])
    assert lambda_knkm(7, 3, 2, 0.6) == pytest.approx(float(roots.real.max()), abs=1e-12)


def test_quotient_entries_match_equitable_quotient():
    for n, k, m in ((6, 2, 1), (7, 2, 3), (8, 3, 2), (5, 1, 2)):
        for alpha in (0.0, 0.35, 0.75):
            mat = alpha_matrix(k_nkm(n, k, m), alpha)
            blocks = [
                tuple(range(0, m)),
                tuple(range(m, m + k)),
                tuple(range(m + k, n)),
            ]
            q = quotient_matrix(mat, blocks)
            assert np.allclose(
                q.entries, knkm_quotient_entries(n, k, m, alpha), atol=1e-12
            )


def test_quotient_radius_is_lambda():
    for n, k, m in ((6, 2, 1), (9, 4, 3), (7, 1, 5)):
        for alpha in (0.0, 0.5, 0.9):
            ent = knkm_quotient_entries(n, k, m, alpha)
            rho = float(np.abs(np.linalg.eigvals(ent)).max())
            assert rho == pytest.approx(lambda_knkm(n, k, m, alpha), abs=1e-10)


# ---------------------------------------------------------------------------
# runner-up radius

def test_second_max_is_complete_minus_one_arc():
    for n in range(3, 10):
        for alpha in ALPHAS:
            g = complete(n).remove_arcs([(0, 1)])
            want = spectral_radius(g, alpha).radius
            assert second_max_radius(n, alpha) == pytest.approx(want, abs=1e-9)


def test_second_max_equals_knkm_specialisation():
    # complete minus an arc is K(n, n-2, 1)
    for n in range(3, 12):
        for alpha in ALPHAS:
            assert second_max_radius(n, alpha) == pytest.approx(
                lambda_knkm(n, n - 2, 1, alpha), abs=1e-11
            )


def test_second_max_below_complete():
    for n in range(3, 10):
        for alpha in ALPHAS:
            assert second_max_radius(n, alpha) < n - 1


def test_second_max_validation():
    with pytest.raises(ValueError):
        second_max_radius(2, 0.0)


# ---------------------------------------------------------------------------
# connectivity-constrained maximum

def test_max_vertex_conn_closed_form_matches_family():
    for n in range(4, 10):
        for k in range(1, n - 1):
            for alpha in ALPHAS:
                want = lambda_knkm(n, k, n - k - 1, alpha)
                assert max_vertex_conn_radius(n, k, alpha) == pytest.approx(
                    want, abs=1e-10
                ), (n, k, alpha)


def test_max_vertex_conn_alpha_zero_tie():
    # at alpha = 0 both m extremes give the same radius
    for n in range(4, 10):
        for k in range(1, n - 1):
            assert lambda_knkm(n, k, 1, 0.0) == pytest.approx(
                lambda_knkm(n, k, n - k - 1, 0.0), abs=1e-11
            )


def test_max_vertex_conn_monotone_in_k():
    for alpha in (0.0, 0.5):
        vals = [max_vertex_conn_radius(9, k, alpha) for k in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_max_vertex_conn_validation():
    with pytest.raises(ValueError):
        max_vertex_conn_radius(5, 0, 0.0)
    with pytest.raises(ValueError):
        max_vertex_conn_radius(5, 4, 0.0)


# ---------------------------------------------------------------------------
# which m wins: the vertex- and arc-connectivity statements state K(n, k, 1)
# and K(n, k, n-k-1) as maximisers at alpha = 0, and only K(n, k, n-k-1) above

def test_compare_m_extremes_tie_at_alpha_zero():
    assert lambda_knkm(8, 3, 1, 0.0) == pytest.approx(lambda_knkm(8, 3, 4, 0.0), abs=1e-11)


def test_compare_m_extremes_strict_for_positive_alpha():
    for n in range(5, 10):
        for k in range(1, n - 3):  # keep m = 1 and m = n-k-1 distinct
            for alpha in (0.1, 0.5, 0.9):
                m_one = lambda_knkm(n, k, 1, alpha)
                m_max = lambda_knkm(n, k, n - k - 1, alpha)
                assert m_max > m_one + 1e-9, (n, k, alpha)


def test_compare_m_extremes_degenerate_equal_m():
    # n - k - 1 == 1 makes both candidates the same digraph
    assert k_nkm(6, 4, 1) == k_nkm(6, 4, 6 - 4 - 1)
    assert lambda_knkm(6, 4, 1, 0.7) == lambda_knkm(6, 4, 6 - 4 - 1, 0.7)
