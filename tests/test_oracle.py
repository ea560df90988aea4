"""Exhaustive-scan machinery checked against a from-scratch reference scan.

The reference below enumerates all 2^(n(n-1)) codes with python sets, takes
parameters from hand-rolled searches and radii from dense eigensolves, then
rebuilds every per-group extreme.  Nothing of the production path (class
generation, the batched radius kernel, the scan table) is reused.
"""
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from alphaspec import (
    arc_connectivity,
    c_ng,
    circulant,
    clique_number,
    complete,
    cycle,
    from_arcs,
    girth,
    is_isomorphic,
    is_strongly_connected,
    k_nkm,
    vertex_connectivity,
)
from alphaspec.oracle import (
    ATTAIN_TOL,
    ENUM_THEOREMS,
    FORMULA_THEOREMS,
    PUBLIC_PARAMETERS,
    SCAN_PARAMETERS,
    THEOREM_IDS,
    VIOLATION_CAP,
    code_of_digraph,
    digraph_from_code,
    explore_problem_4_1,
    extremal_scan,
    run_scan,
    subdivision_sweep,
    verify_theorem,
)
from alphaspec import digraph, families, oracle, spectral
from alphaspec.digraph import _orbits, canonical_codes
from alphaspec.spectral import DEFAULT_TOL, ConvergenceError


# ---------------------------------------------------------------------------
# reference scan (independent implementation)

def ref_strong(n, arcs):
    adj = {v: set() for v in range(n)}
    for u, v in arcs:
        adj[u].add(v)

    def reach(s):
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    return all(len(reach(s)) == n for s in range(n))


def ref_params(n, arcs):
    g = from_arcs(n, arcs) if arcs else from_arcs(n, [])
    return {
        "girth": girth(g),
        "clique": clique_number(g),
        "vertex_conn": vertex_connectivity(g),
        "arc_conn": arc_connectivity(g),
    }


def ref_radius(n, arcs, alpha):
    a = np.zeros((n, n))
    for u, v in arcs:
        a[u, v] = 1.0
    m = (1 - alpha) * a
    m[np.arange(n), np.arange(n)] += alpha * a.sum(axis=1)
    return float(np.abs(np.linalg.eigvals(m)).max())


def reference_scan(n, alphas):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = []
    for code in range(1 << len(cells)):
        arcs = [cells[p] for p in range(len(cells)) if (code >> p) & 1]
        if not ref_strong(n, arcs):
            continue
        row = {"code": code, "params": ref_params(n, arcs)}
        # delta0 = min over all out- and in-degrees
        delta0 = min(
            min(sum(1 for (u, _v) in arcs if u == w) for w in range(n)),
            min(sum(1 for (_u, v) in arcs if v == w) for w in range(n)),
        )
        row["params"]["arc_conn_tight"] = (
            row["params"]["arc_conn"]
            if delta0 == row["params"]["arc_conn"]
            else None
        )
        row["radius"] = {a: ref_radius(n, arcs, a) for a in alphas}
        rows.append(row)
    return rows


def ref_group_extreme(rows, parameter, value, alpha, mode):
    vals = [
        (r["radius"][alpha], r["code"])
        for r in rows
        if r["params"][parameter] == value
    ]
    if not vals:
        return None
    best = min(v for v, _ in vals) if mode == "min" else max(v for v, _ in vals)
    attain = sorted(c for v, c in vals if abs(v - best) <= ATTAIN_TOL)
    outside = [v for v, _ in vals if abs(v - best) > ATTAIN_TOL]
    if mode == "min":
        runner = min(outside) if outside else None
    else:
        runner = max(outside) if outside else None
    return best, attain, runner


# ---------------------------------------------------------------------------
# code encoding

def test_code_bit_order():
    # bit p toggles the p-th off-diagonal cell in row-major order
    assert digraph_from_code(3, 1).arcs == frozenset({(0, 1)})
    assert digraph_from_code(3, 2).arcs == frozenset({(0, 2)})
    assert digraph_from_code(3, 4).arcs == frozenset({(1, 0)})
    assert digraph_from_code(3, 0b100000).arcs == frozenset({(2, 1)})
    assert digraph_from_code(4, (1 << 12) - 1) == complete(4)


def test_code_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        code = int(rng.integers(0, 1 << 12))
        assert code_of_digraph(digraph_from_code(4, code)) == code
    assert code_of_digraph(cycle(3)) == 0b011001  # bits 0, 3, 4 = arcs (0,1), (1,2), (2,0)


def test_code_range_check():
    with pytest.raises(ValueError):
        digraph_from_code(3, 64)
    with pytest.raises(ValueError):
        digraph_from_code(3, -1)


def test_enumeration_count_n4(scan4):
    assert scan4.strong_count == 1606
    assert scan4.total_codes == 1 << 12


# ---------------------------------------------------------------------------
# the full scan against the reference, n = 3

ALPHAS3 = (0.0, 0.5)


@pytest.fixture(scope="module")
def ref3():
    return reference_scan(3, ALPHAS3)


@pytest.fixture(scope="module")
def stats3():
    return run_scan(3, ALPHAS3)


def test_scan_counts_match_reference(ref3, stats3):
    assert stats3.strong_count == len(ref3) == 18
    assert stats3.total_codes == 64
    assert stats3.alphas == ALPHAS3
    assert stats3.parameters == SCAN_PARAMETERS


def test_scan_groups_match_reference(ref3, stats3):
    for parameter in SCAN_PARAMETERS:
        values = stats3.group_values(parameter)
        ref_values = sorted(
            {
                r["params"][parameter]
                for r in ref3
                if r["params"][parameter] is not None
            }
        )
        assert values == ref_values, parameter
        for value in values:
            for alpha in ALPHAS3:
                for mode in ("min", "max"):
                    got = stats3.group(parameter, value, alpha, mode)
                    want = ref_group_extreme(ref3, parameter, value, alpha, mode)
                    assert want is not None
                    best, attain, runner = want
                    assert got.value == pytest.approx(best, abs=1e-9)
                    assert sorted(got.codes) == attain
                    assert got.count == len(attain)
                    if runner is None:
                        assert got.runner_up is None
                    else:
                        assert got.runner_up == pytest.approx(runner, abs=1e-9)


def test_scan_top_buckets_match_reference(ref3, stats3):
    for alpha in ALPHAS3:
        buckets = stats3.top_buckets(alpha)
        assert len(buckets) >= 3
        vals = sorted({round(r["radius"][alpha], 9) for r in ref3}, reverse=True)
        for bucket, want in zip(buckets, vals):
            assert bucket.value == pytest.approx(want, abs=1e-8)
            ref_codes = sorted(
                r["code"]
                for r in ref3
                if abs(r["radius"][alpha] - bucket.value) <= ATTAIN_TOL
            )
            assert sorted(bucket.codes) == ref_codes
            assert bucket.count == len(ref_codes)
        # the overall maximum is the complete digraph, alone
        assert buckets[0].codes == (63,)
        assert buckets[0].value == pytest.approx(2.0, abs=1e-10)


def test_scan_bounds_clean(ref3, stats3):
    for alpha in ALPHAS3:
        rep = stats3.bound_report(alpha)
        assert rep["checked"] == 18
        assert rep["violations"] == []
    assert stats3.max_certificate_width <= stats3.tol
    assert stats3.max_iterations >= 1


def test_scan_accessors(stats3):
    assert stats3.alpha_index(0.5) == 1
    with pytest.raises(KeyError):
        stats3.alpha_index(0.3)
    assert stats3.group("girth", 5, 0.0, "min") is None
    assert stats3.group_values("girth") == [2, 3]


def test_alpha_lookup_is_exact():
    # 0.1 + 0.2 and 0.3 are two distinct alphas to run_scan, so each reads
    # its own column
    near = 0.1 + 0.2
    stats = run_scan(3, (0.3, near))
    assert stats.alpha_index(0.3) == 0 and stats.alpha_index(near) == 1
    for alpha, ai in ((0.3, 0), (near, 1)):
        assert stats.group("girth", 2, alpha, "min") is stats.groups[("girth", 2)][ai]["min"]
        assert stats.top_buckets(alpha) is stats.top[ai]
        assert stats.bound_report(alpha) is stats.bounds[ai]
    with pytest.raises(KeyError, match=r"alpha 0.30000000000000004 was not part of this scan"):
        run_scan(3, (0.3,)).alpha_index(near)


def test_scan_validation():
    with pytest.raises(ValueError):
        run_scan(3, (0.0, 0.0))
    with pytest.raises(ValueError):
        run_scan(3, (1.0,))
    with pytest.raises(ValueError):
        run_scan(3, (0.0,), parameters=("girth", "treewidth"))
    with pytest.raises(ValueError):
        run_scan(1, (0.0,))
    with pytest.raises(ValueError, match=r"2 <= n <= 6, got 8"):
        run_scan(8, (0.0,))
    # refused outright: n = 7 grows from the 1,540,944 six-vertex classes
    with pytest.raises(ValueError, match=r"1,540,944 six-vertex classes x 4,096 rows"):
        run_scan(7, (0.0, 0.5))
    # the sweep stops one order earlier, at its own reason
    with pytest.raises(ValueError, match=r"16,699,394 \(representative, arc\) pairs"):
        subdivision_sweep(6, (0.0, 0.5))


def test_scan_deterministic_rerun(stats3):
    again = run_scan(3, ALPHAS3)
    assert again.groups.keys() == stats3.groups.keys()
    for key in stats3.groups:
        for ai in range(2):
            for mode in ("min", "max"):
                a = stats3.groups[key][ai][mode]
                b = again.groups[key][ai][mode]
                assert a.value == b.value and a.codes == b.codes
                assert a.runner_up == b.runner_up and a.count == b.count
    for ai in range(2):
        for x, y in zip(stats3.top[ai], again.top[ai]):
            assert x.value == y.value and x.codes == y.codes


def test_scan_runs_in_one_process():
    # workers is kept for callers that pass workers=1; there is no pool
    assert run_scan(3, (0.0,), workers=1) == run_scan(3, (0.0,))
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers must be 1"):
            run_scan(3, (0.0,), workers=workers)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_theorem("L3.1", 5, ()),
        lambda: verify_theorem("T3.1", 5, ()),
        lambda: run_scan(4, ()),
        lambda: explore_problem_4_1(4, alphas=()),
        lambda: subdivision_sweep(4, ()),
    ],
    ids=["L3.1", "T3.1", "run_scan", "explore", "subdivision_sweep"],
)
def test_empty_alpha_grid_is_refused(call):
    # a check over no alpha would confirm nothing
    with pytest.raises(ValueError, match="empty alpha grid"):
        call()


def test_scan_reports_bound_violations(monkeypatch):
    # shifting every certified radius down by 10 breaks the row-sum sandwich,
    # the cycle/complete equalities, the degree checks and, at alpha > 0,
    # the alpha * max-out-degree bound
    real = oracle.batch_cw_radius

    def shifted(mats, tol):
        lam, lo, hi, iters = real(mats, tol=tol)
        return lam - 10.0, lo - 10.0, hi - 10.0, iters

    monkeypatch.setattr(oracle, "batch_cw_radius", shifted)
    stats = run_scan(3, ALPHAS3)
    checks = {
        "radius_below_one", "cycle_radius_not_one", "complete_radius_off",
        "regular_radius_off_degree", "irregular_radius_hits_degree",
        "radius_not_above_alpha_maxdeg",
    }
    for alpha in ALPHAS3:
        rep = stats.bound_report(alpha)
        assert rep["checked"] == 18
        assert 0 < len(rep["violations"]) <= VIOLATION_CAP
        for v in rep["violations"]:
            assert v["check"] in checks
            g = digraph_from_code(3, v["code"])
            assert is_strongly_connected(g)
            want = ref_radius(3, sorted(g.arcs), alpha) - 10.0
            assert v["radius"] == pytest.approx(want, abs=1e-9)
    # alpha = 0: 18 below one, 2 cycles, 1 complete, 18 degree checks
    assert len(stats.bound_report(0.0)["violations"]) == 39
    # alpha = 0.5 adds 18 alpha * max-out-degree violations: capped
    assert len(stats.bound_report(0.5)["violations"]) == VIOLATION_CAP


def test_bound_listing_matches_labelled_listing(monkeypatch):
    # shifting every certified radius down by 0.3 breaks several checks at
    # n = 4; the kernel's shifted radii are kept per class, by canonical code
    real = oracle.batch_cw_radius
    cells = [(i, j) for i in range(4) for j in range(4) if i != j]
    shifted_radius = {}

    def shifted(mats, tol):
        lam, lo, hi, iters = real(mats, tol=tol)
        codes = (mats[:, [i for i, _ in cells], [j for _, j in cells]] > 0) @ (1 << np.arange(12))
        shifted_radius.update(zip(codes.tolist(), (lam - 0.3).tolist()))
        return lam - 0.3, lo - 0.3, hi - 0.3, iters

    monkeypatch.setattr(oracle, "batch_cw_radius", shifted)
    for alpha in (0.0, 0.5):
        stats = run_scan(4, (alpha,))
        # the labelled listing: every strongly connected code, check by check,
        # ascending within a check, cut at the cap
        rows = []
        for code in range(1 << 12):
            g = digraph_from_code(4, code)
            if is_strongly_connected(g):
                lam = shifted_radius[int(canonical_codes(4, [code])[0])]
                outs = [g.out_degree(v) for v in range(4)]
                rows.append((code, lam, min(outs), max(outs)))
        checks = {
            "radius_below_one": lambda lam, dmin, dmax: lam < 1.0 - 1e-9,
            "radius_above_n_minus_one": lambda lam, dmin, dmax: lam > 3.0 + 1e-9,
            "radius_one_but_not_cycle":
                lambda lam, dmin, dmax: abs(lam - 1.0) <= 1e-9 and dmax != 1,
            "cycle_radius_not_one": lambda lam, dmin, dmax: dmax == 1 and abs(lam - 1.0) > 1e-9,
            "top_radius_but_not_complete":
                lambda lam, dmin, dmax: abs(lam - 3.0) <= 1e-9 and dmin != 3,
            "complete_radius_off": lambda lam, dmin, dmax: dmin == 3 and abs(lam - 3.0) > 1e-9,
            "regular_radius_off_degree":
                lambda lam, dmin, dmax: dmin == dmax and abs(lam - dmin) > 1e-9,
            "irregular_radius_hits_degree":
                lambda lam, dmin, dmax: dmin != dmax and not dmin + 1e-9 < lam < dmax - 1e-9,
        }
        if alpha > 0.0:
            checks["radius_not_above_alpha_maxdeg"] = (
                lambda lam, dmin, dmax: lam <= alpha * dmax + 1e-12
            )
        listing = [
            {"check": name, "code": code, "radius": lam}
            for name, bad in checks.items()
            for code, lam, dmin, dmax in rows
            if bad(lam, dmin, dmax)
        ]
        assert len(listing) > VIOLATION_CAP
        assert stats.bound_report(alpha)["violations"] == listing[:VIOLATION_CAP]
    # at alpha = 0.5 the cap falls inside the fourth listed check
    assert [v["check"] for v in listing[:VIOLATION_CAP]][-1] == "regular_radius_off_degree"
    assert len({v["check"] for v in listing[:VIOLATION_CAP]}) == 4


def test_scan_convergence_failure_names_its_witness(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError) as info:
        run_scan(3, (0.5,))
    message = str(info.value)
    code = int(re.search(r"code (\d+) at alpha 0\.5:", message).group(1))
    assert is_strongly_connected(digraph_from_code(3, code))
    assert info.value.iterations == 1


@pytest.mark.parametrize("alpha", [0.99, 0.999])
def test_scan_certifies_near_alpha_one(alpha):
    # as alpha -> 1 the radii of A_alpha crowd towards the degrees and the
    # Perron entries spread over many orders of magnitude
    stats = run_scan(4, (alpha,))
    assert stats.strong_count == 1606
    assert 0.0 < stats.max_certificate_width <= DEFAULT_TOL
    assert stats.max_iterations <= 20


# ---------------------------------------------------------------------------
# extremal reports

def test_extremal_scan_girth_min_n4(scan4):
    rep = extremal_scan(4, 0.0, "girth", mode="min", scan=scan4)
    assert rep.parameter == "girth" and rep.mode == "min"
    assert [e.parameter_value for e in rep.entries] == [2, 3, 4]
    g2 = rep.entries[0]
    # unique minimizer class: the girth-2 cycle-with-tail, in 4!-many labelings
    assert g2.class_count == 1
    assert g2.attaining_count == 24
    assert is_isomorphic(g2.representatives[0], c_ng(4, 2))
    assert g2.radius == pytest.approx(math.sqrt((1 + math.sqrt(5)) / 2), abs=1e-9)
    assert g2.runner_up is not None and g2.runner_up > g2.radius + 1e-9
    g4 = rep.entries[2]
    assert is_isomorphic(g4.representatives[0], cycle(4))
    assert g4.radius == pytest.approx(1.0, abs=1e-10)


def test_extremal_scan_vertex_conn_max_n4(scan4):
    rep = extremal_scan(4, 0.5, "vertex_conn", mode="max", scan=scan4)
    by_value = {e.parameter_value: e for e in rep.entries}
    assert set(by_value) == {1, 2, 3}
    # k = n - 1 is the complete digraph alone
    assert by_value[3].attaining_count == 1
    assert is_isomorphic(by_value[3].representatives[0], complete(4))
    # k <= n - 2 is attained by the one-way split family
    assert is_isomorphic(by_value[2].representatives[0], k_nkm(4, 2, 1))


def test_extremal_scan_classes_match_brute_force(scan4):
    # classes found by trying every relabelling: a class is named by the
    # smallest code of its orbit, and its orbit size is its labelled count
    perms = list(itertools.permutations(range(4)))
    orbits = {}

    def orbit(code):
        if code not in orbits:
            orbits[code] = {code_of_digraph(digraph_from_code(4, code).relabel(p)) for p in perms}
        return orbits[code]

    def check(ext):
        classes = sorted({min(orbit(code)) for code in ext.codes})
        assert list(ext.classes) == classes
        assert ext.count == len(ext.codes) == sum(len(orbit(c)) for c in classes)
        assert set(ext.codes) == set().union(*(orbit(c) for c in classes))

    # every group of every scanned parameter and every top level, at every
    # scanned alpha
    for per_alpha in scan4.groups.values():
        for modes in per_alpha:
            check(modes["min"])
            check(modes["max"])
    for alpha in scan4.alphas:
        for level in scan4.top_buckets(alpha):
            check(level)
    # one representative per class, the first attaining code of each, in
    # code order
    for parameter in PUBLIC_PARAMETERS:
        for mode, alpha in itertools.product(("min", "max"), (0.0, 0.5)):
            for e in extremal_scan(4, alpha, parameter, mode=mode, scan=scan4).entries:
                firsts = []
                for code in scan4.group(parameter, e.parameter_value, alpha, mode).codes:
                    if not orbit(code) & set(firsts):
                        firsts.append(code)
                assert [code_of_digraph(g) for g in e.representatives] == firsts
                assert e.class_count == len(firsts)


def test_extreme_codes_follow_its_classes(scan4):
    # the labelled codes are the orbits of whatever classes an extreme holds,
    # expanded when first read; reading them changes neither equality nor hash
    perms = list(itertools.permutations(range(4)))

    def orbit(code):
        return {code_of_digraph(digraph_from_code(4, code).relabel(p)) for p in perms}

    ext = scan4.group("girth", 3, 0.5, "min")
    # the classes of c_ng(4, 2) and of K4 minus an arc, by canonical code
    moved = dataclasses.replace(ext, classes=(678, 2047))
    assert moved.codes == tuple(sorted(orbit(678) | orbit(2047)))
    assert dataclasses.replace(ext, classes=()).codes == ()
    unread, read = dataclasses.replace(ext), dataclasses.replace(ext)
    assert read.codes == ext.codes
    assert "codes" in vars(read) and "codes" not in vars(unread)
    assert unread == read and hash(unread) == hash(read)
    assert moved != ext


def test_extremal_scan_validation(scan4):
    with pytest.raises(ValueError):
        extremal_scan(4, 0.0, "arc_conn_tight", scan=scan4)
    with pytest.raises(ValueError):
        extremal_scan(4, 0.0, "girth", mode="best", scan=scan4)


def test_extremal_scan_scan_compatibility_checks(scan4):
    # a scan of another order, or without the parameter, is refused rather
    # than read
    with pytest.raises(ValueError, match="built for n=3, need n=4"):
        extremal_scan(4, 0.0, "girth", "min", scan=run_scan(3, (0.0,), ("girth",)))
    girth_only = run_scan(3, (0.0,), parameters=("girth",))
    with pytest.raises(ValueError, match="lacks parameters"):
        extremal_scan(3, 0.0, "clique", "max", scan=girth_only)
    with pytest.raises(KeyError):
        extremal_scan(4, 0.9, "girth", "min", scan=scan4)  # alpha not scanned


def test_extremal_scan_builds_own_scan_when_missing():
    rep = extremal_scan(3, 0.0, "clique", mode="max")
    assert [e.parameter_value for e in rep.entries] == [1, 2, 3]
    assert rep.entries[2].attaining_count == 1


# ---------------------------------------------------------------------------
# theorem verification

def test_theorem_id_table():
    assert set(THEOREM_IDS) == set(ENUM_THEOREMS) | set(FORMULA_THEOREMS)
    with pytest.raises(ValueError):
        verify_theorem("T9.9", 4)


def test_all_theorems_confirmed_n4(scan4):
    for theorem in ENUM_THEOREMS:
        verdict = verify_theorem(theorem, 4, alphas=(0.0, 0.5), scan=scan4)
        assert verdict.status == "confirmed", (theorem, verdict.details)
        assert verdict.witnesses == ()
    for theorem in FORMULA_THEOREMS:
        verdict = verify_theorem(theorem, 4, alphas=(0.0, 0.5))
        assert verdict.status == "confirmed", (theorem, verdict.details)


def test_theorems_confirmed_n3(stats3):
    for theorem in ENUM_THEOREMS:
        verdict = verify_theorem(theorem, 3, alphas=(0.0, 0.5), scan=stats3)
        assert verdict.status == "confirmed", (theorem, verdict.details)


def test_formula_theorem_bounds():
    with pytest.raises(ValueError):
        verify_theorem("L3.1", 2)
    with pytest.raises(ValueError):
        verify_theorem("L4.1", 13)
    verdict = verify_theorem("L3.1", 12, alphas=(0.0, 0.5))
    assert verdict.status == "confirmed"


def test_formula_theorem_refuses_repeated_alphas():
    # as the enumeration statements do, through run_scan
    for theorem in FORMULA_THEOREMS:
        with pytest.raises(ValueError, match="duplicate alpha values"):
            verify_theorem(theorem, 3, alphas=(0.5, 0.5))
    with pytest.raises(ValueError, match="duplicate alpha values"):
        verify_theorem("T3.1", 3, alphas=(0.5, 0.5))


def test_formula_theorem_certifies_tiny_gaps():
    # At n=12 the clique-family primed gaps bottom out near 1.1e-10, far below
    # the default certificate width.  The verdict must still resolve them:
    # strictness is decided on tightened enclosures, not on a blanket margin.
    verdict = verify_theorem("L4.1", 12, alphas=(0.0,))
    assert verdict.status == "confirmed"
    assert verdict.witnesses == ()
    assert any("smallest separation" in line for line in verdict.details)


def test_formula_theorem_refuses_a_scan(scan4):
    for theorem in FORMULA_THEOREMS:
        with pytest.raises(ValueError, match="compares family members and reads no scan"):
            verify_theorem(theorem, 4, scan=scan4)


def test_verify_scan_compatibility_checks(stats3, scan4):
    with pytest.raises(ValueError):
        verify_theorem("T3.1", 4, scan=stats3)  # wrong order
    with pytest.raises(KeyError):
        verify_theorem("T3.1", 4, alphas=(0.9,), scan=scan4)  # alpha not scanned
    girth_only = run_scan(3, (0.0,), parameters=("girth",))
    with pytest.raises(ValueError):
        verify_theorem("T5.3", 3, alphas=(0.0,), scan=girth_only)
    # as without a scan, where run_scan refuses them
    with pytest.raises(ValueError, match="duplicate alpha values"):
        verify_theorem("T3.1", 3, (0.5, 0.5), scan=stats3)


def test_t65_witness_detail(scan5):
    verdict = verify_theorem("T6.5", 5, alphas=(0.0, 0.5), scan=scan5)
    assert verdict.status == "confirmed"
    # the consecutive-steps circulant is among the attaining regular digraphs
    ext = scan5.group("vertex_conn", 2, 0.0, "min")
    assert code_of_digraph(circulant(5, [1, 2])) in ext.codes


def _tampered(scan, read, value, alpha, mode, change):
    """A copy of scan whose extreme at (read, value, alpha, mode) is
    change(extreme); read "level" changes top radius level value (1 = top)."""
    ai = scan.alpha_index(alpha)
    if read == "level":
        top = dict(scan.top)
        top[ai] = list(top[ai])
        top[ai][value - 1] = change(top[ai][value - 1])
        return dataclasses.replace(scan, top=top)
    groups = dict(scan.groups)
    groups[(read, value)] = [dict(ext) for ext in groups[(read, value)]]
    old = groups[(read, value)][ai][mode]
    groups[(read, value)][ai][mode] = change(old)
    return dataclasses.replace(scan, groups=groups)


def _add_attainer(G, canonical):
    """Add G's class, named by its canonical code, to an extreme; its
    labelled codes follow from the classes."""
    perms = itertools.permutations(range(G.n))
    assert canonical == min(code_of_digraph(G.relabel(p)) for p in perms)
    return lambda ext: dataclasses.replace(
        ext, classes=tuple(sorted(ext.classes + (canonical,)))
    )


# A witness of a foreign attaining class is the class in its canonical
# labelling: c_ng(4, 2) (code 793) as code 678, k_nkm(4, 2, 1) (code 3583) as
# code 2047.  complete(4) has one labelling, code 4095.
@pytest.mark.parametrize(
    "theorem, where, change, witness",
    [
        # the complete digraph has girth 2 but is not the stated minimiser
        (
            "T3.1", ("girth", 2, 0.0, "min"), _add_attainer(complete(4), 4095),
            lambda ext: complete(4),
        ),
        # a maximum above the closed form: the first attaining code beats it
        (
            "T5.3", ("vertex_conn", 1, 0.5, "max"),
            lambda ext: dataclasses.replace(ext, value=ext.value + 0.5),
            lambda ext: digraph_from_code(4, ext.codes[0]),
        ),
        # the cycle with a tail is not 1-regular
        (
            "T6.5", ("vertex_conn", 1, 0.0, "min"), _add_attainer(c_ng(4, 2), 678),
            lambda ext: digraph_from_code(4, 678),
        ),
        # K4 minus an arc in the top radius level, beside K4
        (
            "R5.1", ("level", 1, 0.5, "max"), _add_attainer(k_nkm(4, 2, 1), 2047),
            lambda ext: digraph_from_code(4, 2047),
        ),
        # the stated minimiser's class dropped from the attaining set: the
        # witness is the stated digraph, as stated
        (
            "T3.1", ("girth", 3, 0.5, "min"),
            lambda ext: dataclasses.replace(ext, classes=(), count=0),
            lambda ext: c_ng(4, 3),
        ),
    ],
    ids=["foreign-attainer", "shifted-extreme", "irregular-attainer", "wrong-top-level",
         "stated-not-attaining"],
)
def test_tampered_scan_violates(scan4, theorem, where, change, witness):
    read, value, alpha, mode = where
    assert verify_theorem(theorem, 4, (alpha,), scan=scan4).status == "confirmed"
    verdict = verify_theorem(theorem, 4, (alpha,), scan=_tampered(scan4, *where, change))
    assert verdict.status == "violated"
    bad = [d for d in verdict.details if d.startswith(f"alpha={alpha}, {read}={value}: ")]
    assert len(bad) == 1 and "all as stated" not in bad[0]
    if read == "level":
        ext = scan4.top_buckets(alpha)[value - 1]
    else:
        ext = scan4.group(read, value, alpha, mode)
    assert verdict.witnesses == (witness(ext),)


def test_every_statement_vacuous_at_n2(scan2):
    # K2 is the only strong digraph on two vertices: no statement has a
    # parameter value to check there, R5.1 included (no second maximum)
    for theorem in ENUM_THEOREMS:
        verdict = verify_theorem(theorem, 2, alphas=(0.0, 0.5), scan=scan2)
        assert verdict.status == "vacuous", (theorem, verdict.details)
        assert verdict.witnesses == ()
    assert verify_theorem("R5.1", 2).status == "vacuous"


# Near alpha = 1 the true gaps fall below the fixed float tolerances that
# verdicts and the bound suite still compare midpoints against, so true
# statements read wrongly.  Deciding on the enclosures mends each of these;
# the change that does drops its marker.
_NEAR_ONE = "a fixed float tolerance reads a true statement wrongly near alpha = 1"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_NEAR_ONE)
@pytest.mark.parametrize(
    "theorem, n, alphas",
    [
        ("T3.1", 5, (0.995, 0.999, 0.9999)),
        ("T4.1", 5, (0.995, 0.999, 0.9999)),
        ("L3.1", 12, (0.9, 0.95, 0.99)),
        ("L4.1", 12, (0.9, 0.95, 0.99)),
    ],
)
def test_true_statement_confirmed_near_alpha_one(theorem, n, alphas):
    verdict = verify_theorem(theorem, n, alphas)
    assert verdict.status == "confirmed", verdict.details


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_NEAR_ONE)
def test_scan_near_alpha_one_lists_no_bound_violation():
    assert run_scan(5, (0.999,)).bound_report(0.999)["violations"] == []


# ---------------------------------------------------------------------------
# isomorphism classes

def test_class_enumeration_counts():
    # every growth step yields the classes of all digraphs on m vertices
    # (OEIS A000273), ascending canonical codes
    classes = np.zeros(1, dtype=np.int64)
    counts = [classes.size]
    for m in range(2, 6):
        classes, _ = oracle._grow(m, classes)
        assert np.all(np.diff(classes) > 0)
        assert np.array_equal(canonical_codes(m, classes), classes)
        counts.append(classes.size)
    assert counts == [1, 3, 16, 218, 9608]
    # classes of strongly connected digraphs (OEIS A035512) and their weight
    # sums, the strongly connected labelled digraphs (OEIS A003030)
    for n, want, labelled in ((2, 1, 1), (3, 5, 18), (4, 83, 1606), (5, 5048, 565080)):
        reps, weights = oracle._classes(n)
        assert reps.size == weights.size == want
        assert int(weights.sum()) == labelled
        assert np.all(np.diff(reps) > 0)


def test_six_vertex_classes():
    # the whole n = 6 growth, about 10 s: the strongly connected classes
    # (OEIS A035512) and their labelled digraphs (OEIS A003030)
    reps, weights = oracle._classes(6)
    assert reps.size == weights.size == 1_047_008
    assert int(weights.sum()) == 734_774_776
    assert np.all(np.diff(reps) > 0)


def test_blocked_classes_and_table_equal_one_block(monkeypatch):
    # n = 5 in 3 growth blocks (218 parents) and 3 table blocks (5,048
    # classes), against one block of each; the kernel's solve block shrinks
    # to 500 matrices so that a table block can hold a whole number of them
    n, alphas = 5, (0.0, 0.5)
    monkeypatch.setattr(spectral, "_SOLVE_BLOCK", 500 * n * n)
    reps, weights = oracle._classes(n)
    table, width, iterations = oracle._scan_table(
        n, reps, weights, alphas, SCAN_PARAMETERS, DEFAULT_TOL
    )
    grown, kernel = [], []
    real_canonical, real_kernel = digraph._canonical, oracle.batch_cw_radius

    def canonical(m, codes):
        grown.append(m)
        return real_canonical(m, codes)

    def counted(mats, tol):
        kernel.append(len(mats))
        return real_kernel(mats, tol=tol)

    monkeypatch.setattr(digraph, "_canonical", canonical)
    monkeypatch.setattr(oracle, "batch_cw_radius", counted)
    monkeypatch.setattr(digraph, "_GROW_BLOCK", 80)
    monkeypatch.setattr(oracle, "_TABLE_BLOCK", 2000)
    blocked_reps, blocked_weights = oracle._classes(n)
    blocked = oracle._scan_table(n, reps, weights, alphas, SCAN_PARAMETERS, DEFAULT_TOL)
    assert grown.count(n) == 3
    assert kernel == [2000, 2000, 2000, 2000, 1048, 1048]
    assert np.array_equal(blocked_reps, reps) and np.array_equal(blocked_weights, weights)
    assert blocked[0].tobytes() == table.tobytes()
    assert blocked[1:] == (width, iterations)
    # a failure in the third table block names its class, not the block's first

    def stalls_in_the_last_block(mats, tol):
        if len(mats) == 1048:
            raise ConvergenceError(0.0, 1.0, 1, index=5)
        return real_kernel(mats, tol=tol)

    monkeypatch.setattr(oracle, "batch_cw_radius", stalls_in_the_last_block)
    with pytest.raises(ConvergenceError, match=rf"^code {reps[4005]} at alpha 0\.0: "):
        oracle._scan_table(n, reps, weights, alphas, (), DEFAULT_TOL)


def test_class_weights_are_orbit_sizes():
    # the labelled enumeration, kept here as the reference: every strongly
    # connected code, grouped by canonical code
    for n in (2, 3, 4):
        strong = np.array([
            code for code in range(1 << (n * (n - 1)))
            if is_strongly_connected(digraph_from_code(n, code))
        ])
        canon = canonical_codes(n, strong)
        want_reps, want_weights = np.unique(canon, return_counts=True)
        reps, weights = oracle._classes(n)
        assert np.array_equal(reps, want_reps)
        assert np.array_equal(weights, want_weights)
        # each class's labelled codes are the distinct relabellings of its
        # representative
        for rep in reps.tolist():
            assert np.array_equal(_orbits(n, [rep])[0], strong[canon == rep])


def test_weighing_relabels_nothing(monkeypatch):
    # the weights come from the |Aut| counted while the last growth step
    # takes its canonical codes, not from relabelling the classes again
    def refuse(*args):
        raise AssertionError("_classes relabelled its classes")

    monkeypatch.setattr(oracle, "_orbits", refuse)
    _, weights = oracle._classes(5)
    assert int(weights.sum()) == 565080


def test_scan_runs_the_kernel_once_per_class(monkeypatch):
    sizes = []
    real = oracle.batch_cw_radius

    def counted(mats, tol):
        sizes.append(len(mats))
        return real(mats, tol=tol)

    monkeypatch.setattr(oracle, "batch_cw_radius", counted)
    stats = run_scan(4, (0.0, 0.5))
    assert sizes == [83, 83]
    assert stats.strong_count == 1606
    assert stats.bound_report(0.5)["checked"] == 1606


@pytest.mark.parametrize("n", [4, 5])
def test_scan_invariant_columns_match_the_public_functions(n):
    # the table's four columns come from one pass over vertex subsets; the
    # public functions (BFS, Bron-Kerbosch, unit max-flow) are the reference
    reps, weights = oracle._classes(n)
    table, _, _ = oracle._scan_table(n, reps, weights, (), PUBLIC_PARAMETERS, DEFAULT_TOL)
    want = []
    for code in reps.tolist():
        g = digraph_from_code(n, code)
        want.append((girth(g), clique_number(g), vertex_connectivity(g), arc_connectivity(g)))
    got = list(zip(*(table[p].tolist() for p in PUBLIC_PARAMETERS)))
    assert got == want


# ---------------------------------------------------------------------------
# subdivision sweep

def test_subdivision_sweep_n3_exhaustive():
    out = subdivision_sweep(3, alphas=(0.0, 0.5))
    assert out["n"] == 3
    assert out["alphas"] == (0.0, 0.5)
    assert out["checked"] == 144
    assert out["violations"] == []
    assert out["max_excess"] < 0.0


def test_subdivision_sweep_matches_labelled_eigvals_sweep():
    # every labelled (digraph, arc) pair at n = 4, radii by dense eigvals
    cells = [(i, j) for i in range(4) for j in range(4) if i != j]
    base, subdivided = [], []
    for code in range(1 << 12):
        arcs = [cells[p] for p in range(12) if (code >> p) & 1]
        if len(arcs) == 4 or not ref_strong(4, arcs):
            continue  # a strong digraph with 4 arcs on 4 vertices is a cycle
        adj = np.zeros((4, 4))
        adj[tuple(zip(*arcs))] = 1.0
        for u, v in arcs:
            sub = np.zeros((5, 5))
            sub[:4, :4] = adj
            sub[u, v] = 0.0
            sub[u, 4] = sub[4, v] = 1.0
            base.append(adj)
            subdivided.append(sub)
    base, subdivided = np.array(base), np.array(subdivided)

    def radii(mats, alpha):
        m = (1 - alpha) * mats
        idx = np.arange(mats.shape[-1])
        m[:, idx, idx] += alpha * mats.sum(axis=2)
        return np.abs(np.linalg.eigvals(m)).max(axis=1)

    out = subdivision_sweep(4, (0.0, 0.5))
    excess = max(float((radii(subdivided, a) - radii(base, a)).max()) for a in (0.0, 0.5))
    assert out["checked"] == 2 * len(subdivided) == 2 * 11808
    assert out["violations"] == []
    assert abs(out["max_excess"] - excess) <= 2 * DEFAULT_TOL


def test_subdivision_sweep_caps_violations_per_alpha(monkeypatch):
    checked = subdivision_sweep(4, (0.0, 0.5))["checked"]
    # raising every subdivided radius by 1 makes every (digraph, arc) pair a
    # violation
    real = oracle.batch_cw_radius

    def raised_when_subdivided(mats, tol):
        lam, lo, hi, iters = real(mats, tol=tol)
        return (lam + 1.0 if mats.shape[-1] == 5 else lam), lo, hi, iters

    monkeypatch.setattr(oracle, "batch_cw_radius", raised_when_subdivided)
    out = subdivision_sweep(4, (0.0, 0.5))
    assert out["checked"] == checked
    for alpha in (0.0, 0.5):
        listed = [v for v in out["violations"] if v["alpha"] == alpha]
        assert len(listed) == VIOLATION_CAP
        assert all(v["subdivided"] > v["base"] + 0.5 for v in listed)


def test_subdivision_sweep_range_check():
    # the sweep accepts what run_scan accepts up to n = 5, and refuses the
    # rest with run_scan's message, but n = 6, which run_scan accepts; a
    # repeated alpha would be swept and counted twice
    cases = [(1, (0.0,)), (7, (0.0,)), (8, (0.0,)), (3, (0.0, 0.0))]
    cases += [(3, (alpha,)) for alpha in (-0.5, 1.0, 1.5)]
    for n, alphas in cases:
        with pytest.raises(ValueError) as scan_err:
            run_scan(n, alphas)
        with pytest.raises(ValueError) as sweep_err:
            subdivision_sweep(n, alphas)
        assert str(sweep_err.value) == str(scan_err.value)
    with pytest.raises(ValueError, match="n = 6 cannot be swept"):
        subdivision_sweep(6)
    with pytest.raises(ValueError, match="duplicate alpha values"):
        subdivision_sweep(3, (0.0, 0.0))


@pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}])
def test_scan_and_sweep_reject_kernel_input_they_cannot_certify(bad):
    match = "tol must be positive"
    with pytest.raises(ValueError, match=match):
        run_scan(3, (0.5,), **bad)
    with pytest.raises(ValueError, match=match):
        subdivision_sweep(3, (0.5,), **bad)


def test_sweep_reads_base_radii_from_the_scan_table(monkeypatch):
    # one kernel call per alpha over all 83 strong classes at n = 4, the
    # cycle included, then one per alpha over the subdivided stack: one
    # matrix per (non-cycle class, arc)
    reps, _ = oracle._classes(4)
    arcs = [bin(rep).count("1") for rep in reps.tolist()]
    pairs = sum(a for a in arcs if a > 4)  # a strong digraph with 4 arcs is the 4-cycle
    sizes = []
    real = oracle.batch_cw_radius

    def counted(mats, tol):
        sizes.append(mats.shape)
        return real(mats, tol=tol)

    monkeypatch.setattr(oracle, "batch_cw_radius", counted)
    out = subdivision_sweep(4, (0.0, 0.5))
    assert sizes == [(83, 4, 4), (83, 4, 4), (pairs, 5, 5), (pairs, 5, 5)]
    assert out["checked"] == 2 * 11808


def test_subdivision_sweep_convergence_failure_names_its_witness(monkeypatch):
    # unsubdivided radii come first and stall on an irregular digraph
    with monkeypatch.context() as patch, pytest.raises(
        ConvergenceError, match=r"^code \d+ at alpha 0\.5: "
    ):
        patch.setattr(spectral, "_MAX_ITERS", 1)
        subdivision_sweep(3, (0.5,))
    # a stalled subdivided matrix is named by its digraph and arc
    real = oracle.batch_cw_radius

    def stalls_when_subdivided(mats, tol):
        if mats.shape[-1] == 4:
            raise ConvergenceError(0.0, 1.0, 1, index=0)
        return real(mats, tol=tol)

    monkeypatch.setattr(oracle, "batch_cw_radius", stalls_when_subdivided)
    first = next(
        g for g in (digraph_from_code(3, code) for code in range(1 << 6))
        if g.num_arcs > 3 and is_strongly_connected(g)
    )
    want = f"code {code_of_digraph(first)} subdivided at arc {min(first.arcs)} at alpha 0.5: "
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        subdivision_sweep(3, (0.5,))


def _stalls(*args, **kwargs):
    raise ConvergenceError(0.0, 1.0, 1)


def test_primed_comparison_failure_names_the_member_and_alpha():
    # below the rounding floor the kernel stops at once; the message names
    # the b_nd member it was certifying, as a scan names its code
    want = r"^b_nd\(12, \d+(, primed=True)?\) at alpha 0\.5: tol 3e-15 is below the rounding floor"
    with pytest.raises(ConvergenceError, match=want):
        verify_theorem("L4.1", 12, (0.5,), tol=3e-15)


def test_stated_radius_failure_names_the_member_and_alpha(monkeypatch, scan4):
    # T3.1 states the minimum as the certified radius of c_ng(n, g)
    monkeypatch.setattr(oracle, "spectral_radius", _stalls)
    with pytest.raises(ConvergenceError, match=r"^c_ng\(4, 2\) at alpha 0\.5: no certificate"):
        verify_theorem("T3.1", 4, (0.5,), scan=scan4)


def test_stated_digraphs_are_labelled_in_one_call(monkeypatch, scan5):
    # one canonical_codes call per verify_theorem and per explore, for
    # every checked point's stated digraphs at once
    calls = []
    real = oracle.canonical_codes

    def counted(n, codes):
        calls.append(len(codes))
        return real(n, codes)

    monkeypatch.setattr(oracle, "canonical_codes", counted)
    verdict = verify_theorem("T5.3", 5, (0.0, 0.5), scan=scan5)
    assert verdict.status == "confirmed" and calls == [9]  # K(5, k, m) per point
    report = explore_problem_4_1(5, alphas=(0.0, 0.5), scan=scan5)
    assert len(report.rows) == 8 and calls == [9, 8]


def test_explore_failure_names_the_construction_and_alpha(monkeypatch, scan4):
    monkeypatch.setattr(oracle, "spectral_radius_general", _stalls)
    with pytest.raises(ConvergenceError, match=r"^g0\(4, 2\) at alpha 0\.25: no certificate"):
        explore_problem_4_1(4, d=2, alphas=(0.25,), scan=scan4)


# ---------------------------------------------------------------------------
# open-problem exploration

def test_explore_rows_structure(scan4):
    report = explore_problem_4_1(4, alphas=(0.0, 0.5), scan=scan4)
    assert report.n == 4
    assert "assert" in report.note  # flags itself as non-binding
    assert len(report.rows) == 3 * 2  # d in 1..3, two alphas
    for row in report.rows:
        assert set(row) == {
            "n", "d", "alpha", "g0_radius", "scan_max", "gap",
            "classes_match", "status",
        }
        assert row["status"] in ("agrees", "differs", "not strong", "empty")
        if row["status"] != "empty":
            assert row["gap"] == pytest.approx(
                row["scan_max"] - row["g0_radius"], abs=1e-12
            )


def test_explore_alpha_zero_agrees(scan4):
    # at alpha = 0 the block construction hits the scanned maximum exactly
    report = explore_problem_4_1(4, alphas=(0.0,), scan=scan4)
    for row in report.rows:
        assert row["status"] == "agrees", row


@pytest.mark.parametrize("n", [4, 5])
def test_explore_labels_a_construction_that_is_not_strong(request, n):
    # at d = 1 and alpha >= 1/2, g0 is the transitive tournament, while the
    # scan maximum ranges over strong digraphs only; the row keeps its numbers
    scan = request.getfixturevalue(f"scan{n}")
    report = explore_problem_4_1(n, d=1, alphas=(0.0, 0.5, 0.75), scan=scan)
    strong, half, above = report.rows
    assert strong["status"] == "agrees", strong
    for row in (half, above):
        assert row["status"] == "not strong", row
        assert row["classes_match"] is False
        assert row["gap"] == row["scan_max"] - row["g0_radius"]
    # the transitive tournament's radius is its largest diagonal entry
    assert above["g0_radius"] == pytest.approx(0.75 * (n - 1), abs=DEFAULT_TOL)
    assert above["gap"] < -0.5
    assert abs(half["gap"]) <= ATTAIN_TOL


def test_explore_reads_a_tie_with_other_classes_as_agreeing(scan5, monkeypatch):
    # at n = 5, d = 2, alpha = 0.5 g0's class ties with one other class of
    # clique number 2 (both at 2 + sqrt(6)/2): g0 attains, but is not the
    # only attaining class
    [row] = explore_problem_4_1(5, d=2, alphas=(0.5,), scan=scan5).rows
    assert len(scan5.group("clique", 2, 0.5, "max").classes) == 2
    assert row["status"] == "agrees" and row["classes_match"] is False, row
    assert row["gap"] == pytest.approx(0.0, abs=ATTAIN_TOL)
    # a strong g0 of the same clique number that does not attain still differs
    low = cycle(5).add_arcs([(1, 0)])
    assert clique_number(low) == 2 and is_strongly_connected(low)
    monkeypatch.setattr(families, "g0", lambda n, d, alpha: low)
    [row] = explore_problem_4_1(5, d=2, alphas=(0.5,), scan=scan5).rows
    assert row["status"] == "differs" and row["classes_match"] is False, row
    assert row["gap"] > ATTAIN_TOL


def test_explore_with_a_scan_refuses_repeated_alphas(stats3):
    # without the check each repeated alpha would add its rows twice
    with pytest.raises(ValueError, match="duplicate alpha values"):
        explore_problem_4_1(3, alphas=(0.5, 0.5), scan=stats3)
    assert len(explore_problem_4_1(3, alphas=(0.5,), scan=stats3).rows) == 2


def test_explore_single_d(scan4):
    report = explore_problem_4_1(4, d=2, alphas=(0.0, 0.5), scan=scan4)
    assert {row["d"] for row in report.rows} == {2}
    with pytest.raises(ValueError):
        explore_problem_4_1(4, d=4, alphas=(0.0,), scan=scan4)
