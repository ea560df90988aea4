"""Certified power iteration checked against dense eigensolves.

numpy.linalg.eigvals is the oracle: it shares no code with the power
iteration and is accurate to ~1e-13 on these tiny matrices, far below the
1e-10 certificates under test.
"""
import pickle

import numpy as np
import pytest

from alphaspec import (
    AlphaMatrix,
    ConvergenceError,
    NotStronglyConnected,
    alpha_matrix,
    b_nd,
    batch_cw_radius,
    c_ng,
    collatz_wielandt_bounds,
    complete,
    cycle,
    from_arcs,
    k_nkm,
    path,
    quotient_matrix,
    spectral_radius,
    spectral_radius_general,
    tournament,
)
from alphaspec.oracle import digraph_from_code

TOL = 1e-10


def eig_radius(entries):
    return float(np.abs(np.linalg.eigvals(entries)).max())


def random_strong(rng, n):
    # a random hamiltonian cycle plus random extra arcs is always strong
    perm = rng.permutation(n)
    arcs = {(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                arcs.add((u, v))
    return from_arcs(n, arcs)


# ---------------------------------------------------------------------------
# alpha matrix

def test_alpha_matrix_entries():
    m = alpha_matrix(cycle(3), 0.25)
    assert isinstance(m, AlphaMatrix)
    assert m.n == 3 and m.alpha == 0.25
    expect = np.array([[0.25, 0.75, 0.0], [0.0, 0.25, 0.75], [0.75, 0.0, 0.25]])
    assert np.array_equal(m.entries, expect)


def test_alpha_matrix_alpha_zero_is_adjacency():
    g = b_nd(5, 3)
    assert np.array_equal(alpha_matrix(g, 0.0).entries, g.adjacency_matrix())


def test_alpha_validation():
    for bad in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            alpha_matrix(cycle(3), bad)


# ---------------------------------------------------------------------------
# Collatz-Wielandt quotients

def test_cw_bounds_all_ones_frozen():
    # row sums of A_alpha(K(6,2,1)) are the out-degrees for every alpha
    m = alpha_matrix(k_nkm(6, 2, 1), 0.0)
    assert collatz_wielandt_bounds(m, np.ones(6)) == (4.0, 5.0)
    m = alpha_matrix(k_nkm(6, 2, 1), 0.5)
    assert collatz_wielandt_bounds(m, np.ones(6)) == (4.0, 5.0)


def test_cw_bounds_enclose_radius():
    rng = np.random.default_rng(7)
    g = k_nkm(7, 3, 2)
    m = alpha_matrix(g, 0.3)
    rho = eig_radius(m.entries)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0, size=7)
        lo, hi = collatz_wielandt_bounds(m, x)
        assert lo <= rho + 1e-12 <= hi + 2e-12


def test_cw_bounds_exact_at_perron_vector():
    g = c_ng(6, 3)
    res = spectral_radius(g, 0.4)
    lo, hi = collatz_wielandt_bounds(alpha_matrix(g, 0.4), res.perron)
    assert hi - lo <= 2 * TOL
    assert lo <= res.radius <= hi


def test_cw_bounds_reject_bad_vectors():
    m = alpha_matrix(cycle(3), 0.0)
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(m, [1.0, 1.0])
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(m, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(m, [1.0, -1.0, 1.0])


def test_cw_bounds_accept_plain_arrays():
    a = cycle(4).adjacency_matrix()
    assert collatz_wielandt_bounds(a, np.ones(4)) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# certified spectral radius

def test_cycle_radius_is_one_for_all_alpha():
    for alpha in (0.0, 0.3, 0.5, 0.9, 0.99):
        res = spectral_radius(cycle(5), alpha)
        assert res.certificate_lo <= 1.0 <= res.certificate_hi
        assert abs(res.radius - 1.0) <= TOL


def test_complete_radius_is_n_minus_one():
    for alpha in (0.0, 0.5, 0.8):
        res = spectral_radius(complete(7), alpha)
        assert abs(res.radius - 6.0) <= TOL
        assert res.iterations >= 1


def test_certificate_encloses_eigenvalue():
    rng = np.random.default_rng(20250819)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        g = random_strong(rng, n)
        alpha = float(rng.uniform(0.0, 0.95))
        res = spectral_radius(g, alpha)
        rho = eig_radius(alpha_matrix(g, alpha).entries)
        assert res.certificate_lo - 1e-12 <= rho <= res.certificate_hi + 1e-12
        assert res.certificate_hi - res.certificate_lo <= TOL
        assert abs(res.radius - rho) <= TOL


def test_perron_vector_properties():
    g = k_nkm(6, 2, 3)
    res = spectral_radius(g, 0.5)
    assert (res.perron > 0.0).all()
    assert abs(res.perron.sum() - 1.0) <= 1e-12
    m = alpha_matrix(g, 0.5).entries
    assert np.abs(m @ res.perron - res.radius * res.perron).max() <= 1e-8


def test_warm_start_converges_faster():
    g = k_nkm(8, 3, 2)
    cold = spectral_radius(g, 0.5)
    warm = spectral_radius(g, 0.5, start=cold.perron)
    assert warm.iterations <= cold.iterations
    assert abs(warm.radius - cold.radius) <= 2 * TOL


def test_not_strong_rejected():
    with pytest.raises(NotStronglyConnected):
        spectral_radius(path(4), 0.0)


def test_convergence_error_carries_state():
    g = k_nkm(6, 2, 1)
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(g, 0.0, max_iters=3)
    assert err.value.iterations == 3
    assert err.value.lo < err.value.hi


def test_tight_tol_still_converges():
    res = spectral_radius(b_nd(7, 3), 0.5, tol=1e-13)
    assert res.certificate_hi - res.certificate_lo <= 1e-13


# ---------------------------------------------------------------------------
# general (possibly reducible) radius

def test_general_matches_certified_on_strong():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_strong(rng, 5)
        for alpha in (0.0, 0.6):
            assert abs(
                spectral_radius_general(g, alpha) - spectral_radius(g, alpha).radius
            ) <= 2 * TOL


def test_general_on_transitive_tournament():
    # acyclic, so the radius comes from the diagonal: alpha * max out-degree
    g = tournament("transitive", 3)
    assert spectral_radius_general(g, 0.75) == pytest.approx(1.5, abs=TOL)
    assert spectral_radius_general(g, 0.0) == pytest.approx(0.0, abs=TOL)


def test_general_matches_eigvals_on_random_codes():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        g = digraph_from_code(n, int(rng.integers(0, 1 << (n * (n - 1)))))
        alpha = float(rng.uniform(0.0, 0.95))
        rho = eig_radius(alpha_matrix(g, alpha).entries)
        assert spectral_radius_general(g, alpha) == pytest.approx(rho, abs=1e-9)


# ---------------------------------------------------------------------------
# quotient matrices

def test_quotient_of_c4_frozen():
    m = alpha_matrix(cycle(4), 0.3)
    q = quotient_matrix(m, [(0, 2), (1, 3)])
    assert np.allclose(q.entries, [[0.3, 0.7], [0.7, 0.3]], atol=1e-15)
    assert q.partition == ((0, 2), (1, 3))
    assert eig_radius(q.entries) == pytest.approx(1.0, abs=1e-12)


def test_quotient_preserves_radius():
    g = k_nkm(7, 2, 3)
    m = alpha_matrix(g, 0.45)
    # orbit partition of the construction: the m sources, the k-cut, the sinks
    q = quotient_matrix(m, [(0, 1, 2), (3, 4), (5, 6)])
    assert eig_radius(q.entries) == pytest.approx(
        spectral_radius(g, 0.45).radius, abs=1e-9
    )


def test_quotient_rejects_non_equitable():
    m = alpha_matrix(b_nd(5, 3), 0.2)
    with pytest.raises(ValueError, match="not equitable"):
        quotient_matrix(m, [(0, 1, 2), (3, 4)])


def test_quotient_rejects_bad_partition():
    m = alpha_matrix(cycle(4), 0.0)
    with pytest.raises(ValueError):
        quotient_matrix(m, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        quotient_matrix(m, [(0, 1), (2,)])


# ---------------------------------------------------------------------------
# batched iteration

def _alpha_stack(graphs, alpha):
    n = graphs[0].n
    stack = np.zeros((len(graphs), n, n))
    for i, g in enumerate(graphs):
        stack[i] = alpha_matrix(g, alpha).entries
    return stack


def test_batch_matches_scalar_path():
    graphs = [cycle(6), complete(6), k_nkm(6, 2, 1), k_nkm(6, 2, 3), b_nd(6, 3)]
    for alpha in (0.0, 0.5):
        rad, lo, hi, its = batch_cw_radius(_alpha_stack(graphs, alpha))
        assert rad.shape == lo.shape == hi.shape == its.shape == (5,)
        for i, g in enumerate(graphs):
            ref = spectral_radius(g, alpha)
            assert abs(rad[i] - ref.radius) <= 2 * TOL
            assert lo[i] <= rad[i] <= hi[i]
            assert hi[i] - lo[i] <= TOL
            assert its[i] >= 1


def test_batch_deterministic_rerun():
    rng = np.random.default_rng(12)
    graphs = [random_strong(rng, 5) for _ in range(200)]
    stack = _alpha_stack(graphs, 0.3)
    first = batch_cw_radius(stack)
    second = batch_cw_radius(stack)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_batch_compaction_freezes_early_entries():
    # many instant-converging cycles around one slow matrix exercises the
    # in-loop compaction of finished systems
    graphs = [cycle(6)] * 150 + [k_nkm(6, 2, 1)] + [cycle(6)] * 150
    rad, _, _, its = batch_cw_radius(_alpha_stack(graphs, 0.0))
    assert np.allclose(rad[:150], 1.0, atol=TOL)
    assert np.allclose(rad[151:], 1.0, atol=TOL)
    ref = spectral_radius(k_nkm(6, 2, 1), 0.0)
    assert abs(rad[150] - ref.radius) <= 2 * TOL
    assert its[150] > its[0]


def test_batch_empty_stack():
    rad, lo, hi, its = batch_cw_radius(np.zeros((0, 4, 4)))
    assert rad.size == lo.size == hi.size == its.size == 0


def test_batch_iteration_cap():
    with pytest.raises(ConvergenceError):
        batch_cw_radius(_alpha_stack([k_nkm(6, 2, 1)], 0.0), max_iters=3)


@pytest.mark.parametrize("max_iters", [1, 3])
def test_batch_iteration_cap_names_input_index(max_iters):
    # 40 regular matrices certify at iteration 1 and are compacted away
    # (max_iters = 1: on the last iteration); the error still names the
    # stalled matrix by its position in the input stack
    stack = _alpha_stack([complete(6)] * 40 + [k_nkm(6, 2, 1)], 0.0)
    with pytest.raises(ConvergenceError) as err:
        batch_cw_radius(stack, max_iters=max_iters)
    assert err.value.index == 40
    assert err.value.iterations == max_iters
    assert err.value.lo < err.value.hi


def test_convergence_error_pickles_with_its_witness():
    err = ConvergenceError(1.0, 2.0, 7, index=3, witness="code 9 at alpha 0.5")
    back = pickle.loads(pickle.dumps(err))
    assert str(back) == str(err) and str(err).startswith("code 9 at alpha 0.5: ")
    assert (back.lo, back.hi, back.iterations, back.index) == (1.0, 2.0, 7, 3)
