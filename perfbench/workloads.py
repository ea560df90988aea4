"""The three benchmark workloads.

Each workload makes its seeded inputs in ``prepare`` (untimed), runs one
round of program calls in ``round`` (timed), and checks a round's outputs in
``check`` against checks.py.  Every round of a workload makes the same calls,
so ``attempted`` and ``cases`` are fixed per round, and the outputs of later
rounds must equal those of the first.

Program functions are called through their modules (``oracle.run_scan``,
``spectral.spectral_radius``), so that tracing.py sees every call.
"""
from __future__ import annotations

import csv
import os
from itertools import combinations
from pathlib import Path

import numpy as np

import checks

ALPHAS_VERIFY = (0.0, 0.5)  # the verify CLI's default grid
GRID4 = (0.0, 0.3, 0.5, 0.7)  # the primed-lemma grid
GRID5 = GRID4 + (0.9,)  # the family sweeps
STRICT_TOL = 1e-13


def warm_up(workdir: Path) -> None:
    """One small call into every layer, so first-call costs land in set-up."""
    from alphaspec import cli, families, formulas, oracle, spectral, transforms

    scan = oracle.run_scan(3, (0.5,))
    oracle.verify_theorem("T3.1", 3, (0.5,), scan=scan)
    oracle.extremal_scan(3, 0.5, "girth", "max", scan=scan)
    oracle.explore_problem_4_1(3, alphas=(0.5,), scan=scan)
    oracle.subdivision_sweep(3, (0.5,))
    g = families.k_nkm(4, 1, 1)
    spectral.spectral_radius(g, 0.5)
    spectral.spectral_radius_general(families.path(3), 0.5)
    spectral.quotient_matrix(spectral.alpha_matrix(g, 0.5), [(0,), (1,), (2, 3)])
    formulas.lambda_knkm(4, 1, 1, 0.5)
    families.tournament("extremal_bruteforce", 3, 0.5)
    transforms.subdivide_arc(g, (0, 1))
    out = workdir / f"warmup_{os.getpid()}.txt"
    cli.main(["formula", "--n", "4", "--k", "1", "--m", "1", "--alpha", "0.5", "--out", str(out)])
    out.unlink()


class Workload:
    name = ""
    attempted = 0  # program operations per round
    cases = 0  # labelled problem cases per round

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def round(self):
        raise NotImplementedError

    def check(self, out) -> tuple[list[str], list[str]]:
        """(failed checks, failed operations) for one round's outputs."""
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Scan5Verify(Workload):
    """``alphaspec verify --n 5`` for every statement, on one shared scan."""

    name = "scan5-verify"
    cases = checks.STRONG_5 * len(ALPHAS_VERIFY)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from alphaspec import oracle

        self.grid = [
            (p, mode, a)
            for p in oracle.PUBLIC_PARAMETERS
            for mode in ("min", "max")
            for a in ALPHAS_VERIFY
        ]
        self.attempted = 1 + len(oracle.ENUM_THEOREMS) + len(self.grid) + 1

    def round(self):
        from alphaspec import oracle

        scan = oracle.run_scan(5, ALPHAS_VERIFY, oracle.SCAN_PARAMETERS, workers=1)
        verdicts = [oracle.verify_theorem(t, 5, ALPHAS_VERIFY, scan=scan)
                    for t in oracle.ENUM_THEOREMS]
        reports = [oracle.extremal_scan(5, a, p, mode, scan=scan) for p, mode, a in self.grid]
        explore = oracle.explore_problem_4_1(5, alphas=ALPHAS_VERIFY, scan=scan)
        return scan, verdicts, reports, explore

    def check(self, out):
        scan, verdicts, reports, explore = out
        fails = checks.check_scan(scan, scan.tol)
        strong, _pairs = checks.strong_census(5)
        if strong != checks.STRONG_5:
            fails.append(f"own strong census {strong} != {checks.STRONG_5}")
        fails += checks.check_verdicts(verdicts)
        for parameter, value in scan.groups:
            for alpha in scan.alphas:
                for mode in ("min", "max"):
                    ext = scan.group(parameter, value, alpha, mode)
                    # the first attaining code, and one more drawn by the seed
                    picks = {ext.codes[0], ext.codes[int(self.rng.integers(len(ext.codes)))]}
                    for code in sorted(picks):
                        fails += checks.check_extreme(5, parameter, value, alpha, ext, code)
        for rep in reports:
            for entry in rep.entries:
                ext = scan.group(rep.parameter, entry.parameter_value, rep.alpha, rep.mode)
                if entry.radius != ext.value or entry.class_count != len(entry.representatives):
                    fails.append(f"extremal_scan {rep.parameter}={entry.parameter_value}: "
                                 "report disagrees with the scan")
                for g in entry.representatives:
                    rad = checks.eig_radius(checks.arcs_to_adj(5, g.arcs), rep.alpha)
                    if abs(rad - entry.radius) > checks.ATTAIN:
                        fails.append(f"extremal_scan {rep.parameter}={entry.parameter_value} "
                                     f"alpha={rep.alpha}: representative radius {rad!r}")
        if len(explore.rows) != 4 * len(ALPHAS_VERIFY):
            fails.append(f"explore: {len(explore.rows)} rows")
        for row in explore.rows:
            ext = scan.group("clique", row["d"], row["alpha"], "max")
            if row["scan_max"] != ext.value:
                fails.append(f"explore d={row['d']}: scan_max {row['scan_max']!r} != {ext.value!r}")
        return fails, []

    def fingerprint(self, out):
        scan, verdicts, reports, explore = out
        return (
            scan.strong_count, scan.max_certificate_width, scan.max_iterations,
            tuple((k, v[ai][m].value, v[ai][m].codes) for k, v in scan.groups.items()
                  for ai in range(len(scan.alphas)) for m in ("min", "max")),
            tuple((v.theorem, v.status, v.details) for v in verdicts),
            tuple((e.radius, e.class_count) for r in reports for e in r.entries),
            tuple(tuple(sorted(r.items())) for r in explore.rows),
        )


# ---------------------------------------------------------------------------


class Subdiv5(Workload):
    """The exhaustive n = 5 subdivision sweep at alpha = 0."""

    name = "subdiv5"
    alpha = 0.0
    attempted = 1
    cases = 6_326_240  # (digraph, arc) pairs over strong non-cycle digraphs, n = 5
    sample_size = 200

    def round(self):
        from alphaspec import oracle

        return oracle.subdivision_sweep(5, (self.alpha,))

    def check(self, out):
        from alphaspec.spectral import DEFAULT_TOL

        fails = []
        _strong, pairs = checks.strong_census(5)
        if pairs != self.cases:
            fails.append(f"own (digraph, arc) census {pairs} != {self.cases}")
        # drawn here, after the sweep, so that the sweep starts from the same
        # heap for every seed
        sample = []
        while len(sample) < self.sample_size:
            code = int(self.rng.integers(checks.CODES_5))
            adj = checks.decode(5, code)
            if not checks.is_strong(adj) or (adj.sum() == 5 and adj.sum(axis=1).max() == 1):
                continue
            arcs = np.argwhere(adj)
            arc = tuple(int(t) for t in arcs[int(self.rng.integers(len(arcs)))])
            sample.append((code, arc, checks.eig_radius(adj, self.alpha),
                           checks.eig_radius(checks.subdivided(adj, arc), self.alpha)))
        for code, arc, base, sub in sample:
            if sub > base + 1e-9:
                fails.append(f"sample code {code} arc {arc}: subdivided {sub!r} > base {base!r}")
        sample_max = max(sub - base for _c, _a, base, sub in sample)
        fails += checks.check_subdivision(out, self.cases, sample_max, DEFAULT_TOL)
        return fails, []

    def fingerprint(self, out):
        return out["checked"], out["max_excess"], len(out["violations"])


# ---------------------------------------------------------------------------


def own_c_ng(n, g, primed):
    arcs = [(i, i + 1) for i in range(g - 1)] + [(g - 1, 0)]
    arcs += [(i, i + 1) for i in range(g - 1, n - 1)] + [(n - 1, g - 1 if primed else 0)]
    return checks.arcs_to_adj(n, arcs)


def own_b_nd(n, d, primed):
    arcs = [(u, v) for u in range(n - d, n) for v in range(n - d, n) if u != v]
    walk = [n - d] + list(range(n - d)) + [n - d if primed else n - 1]
    arcs += list(zip(walk, walk[1:]))
    return checks.arcs_to_adj(n, arcs)


def circulant_steps(n_max):
    for n in range(3, n_max + 1):
        for extra in range(n - 1):
            for chosen in combinations(range(2, n), extra):
                yield n, (1,) + chosen


class FamilySweeps(Workload):
    """Many small single-digraph calls: the family grids, the CLI, surgeries."""

    name = "family-sweeps"
    surgeries = 24  # of each kind

    def prepare(self):
        from alphaspec.digraph import from_arcs

        # (a) the primed grid of verify L3.1|L4.1 and criterion 8
        self.primed_grid = [
            (fam, n, p, primed)
            for fam in ("c_ng", "b_nd") for n in range(3, 13)
            for p in range(2, n) for primed in (False, True)
        ]
        # (b) alpha sweeps over whole families
        self.knkm = [(n, k, m) for n in range(3, 11) for k in range(1, n - 1)
                     for m in range(1, n - k)]
        self.paths = [(fam, n, p, primed) for fam in ("c_ng", "b_nd") for n in range(3, 11)
                      for p in range(2, n) for primed in (False, True)]
        self.circulants = list(circulant_steps(7))
        self.h4 = [(n, k, a) for n in range(6, 11) for k in range(1, n)
                   for a in range(k + 2, n - k - 1)]
        self.cli_runs = [
            ["sweep", "formula", "--n", "3..8"],
            ["sweep", "alpha", "--family", "cng", "--n", "10", "--g", "3"],
            ["sweep", "alpha", "--family", "bnd", "--n", "10", "--d", "4", "--primed"],
            ["sweep", "alpha", "--family", "h4", "--n", "10", "--k", "2", "--a", "5"],
            ["sweep", "alpha", "--family", "circulant", "--n", "7", "--steps", "1,3"],
        ]
        for run in self.cli_runs:
            run += ["--alpha", ",".join(str(a) for a in GRID5)]
        self.lemmas = ("L3.1", "L4.1")
        self.tournament_alphas = (0.0, 0.5)
        # (e) seeded surgeries on random strong digraphs of order 5..8
        self.redirects = []
        self.subdivisions = []
        i = 0
        while len(self.redirects) < self.surgeries or len(self.subdivisions) < self.surgeries:
            n = 5 + i % 4
            alpha = GRID4[i % 4]
            adj = self._random_strong(n)
            g = from_arcs(n, [tuple(map(int, a)) for a in np.argwhere(adj)])
            if len(self.redirects) < self.surgeries:
                move = self._redirect_move(adj, alpha)
                if move is not None:
                    self.redirects.append((g, adj, alpha) + move)
                    i += 1
                    continue
            if len(self.subdivisions) < self.surgeries and adj.sum() > n:
                arcs = np.argwhere(adj)
                u, v = (int(t) for t in arcs[int(self.rng.integers(len(arcs)))])
                self.subdivisions.append((g, adj, alpha, (u, v)))
                i += 1
        radii = len(self.primed_grid) * len(GRID4) + len(GRID5) * (
            len(self.knkm) + len(self.paths) + len(self.circulants) + len(self.h4))
        surgeries = len(self.redirects) + len(self.subdivisions)
        self.attempted = (radii + len(self.cli_runs) + len(self.lemmas)
                          + len(self.tournament_alphas) + surgeries)
        formula_rows = sum(1 for n, _k, _m in self.knkm if n <= 8)
        cli_rows = len(GRID5) * (formula_rows + len(self.cli_runs) - 1)
        # at n = 12: 10 parameters, base and primed, per alpha of the verifier
        verify_radii = len(self.lemmas) * 10 * 2 * len(ALPHAS_VERIFY)
        self.cases = (radii + cli_rows + verify_radii
                      + (1 << 15) * len(self.tournament_alphas) + 2 * surgeries)

    def _random_strong(self, n):
        perm = self.rng.permutation(n)
        adj = (self.rng.random((n, n)) < 0.3).astype(np.int64)
        np.fill_diagonal(adj, 0)
        adj[perm, np.roll(perm, -1)] = 1
        return adj

    def _redirect_move(self, adj, alpha):
        """(p, q, sources) with the Perron entry of q above that of p."""
        vals, vecs = np.linalg.eig(checks.alpha_mat(adj, alpha))
        x = np.abs(vecs[:, int(np.argmax(vals.real))].real)
        n = adj.shape[0]
        moves = []
        for p in range(n):
            for q in range(n):
                if p == q or x[q] <= x[p] * (1 + 1e-6):
                    continue
                src = [t for t in range(n) if adj[t, p] and not adj[t, q] and t != q]
                if src:
                    moves.append((p, q, src))
        if not moves:
            return None
        p, q, src = moves[int(self.rng.integers(len(moves)))]
        k = int(self.rng.integers(1, len(src) + 1))
        return p, q, tuple(sorted(int(t) for t in self.rng.choice(src, size=k, replace=False)))

    def round(self):
        from alphaspec import cli, families, formulas, oracle, spectral, transforms

        out = {"primed": [], "knkm": [], "paths": [], "circulants": [], "h4": []}
        for fam, n, p, primed in self.primed_grid:
            g = getattr(families, fam)(n, p, primed=primed)
            out["primed"].append((g, [spectral.spectral_radius(g, a, tol=STRICT_TOL)
                                      for a in GRID4]))
        for n, k, m in self.knkm:
            g = families.k_nkm(n, k, m)
            blocks = [range(0, m), range(m, m + k), range(m + k, n)]
            rows = []
            for a in GRID5:
                q = spectral.quotient_matrix(spectral.alpha_matrix(g, a), blocks)
                rows.append((
                    spectral.spectral_radius(g, a),
                    formulas.lambda_knkm(n, k, m, a),
                    q.spectral_radius(),
                    q.entries,
                    formulas.knkm_quotient_entries(n, k, m, a),
                    formulas.second_max_radius(n, a) if (k, m) == (n - 2, 1) else None,
                    formulas.max_vertex_conn_radius(n, k, a)
                    if m == n - k - 1 or (m == 1 and a == 0.0) else None,
                ))
            out["knkm"].append((g, rows))
        for fam, n, p, primed in self.paths:
            g = getattr(families, fam)(n, p, primed=primed)
            out["paths"].append((g, [spectral.spectral_radius(g, a) for a in GRID5]))
        for n, steps in self.circulants:
            g = families.circulant(n, steps)
            out["circulants"].append((g, [spectral.spectral_radius(g, a) for a in GRID5]))
        for n, k, a_size in self.h4:
            g = families.h4(n, k, a_size)
            blocks = [range(0, k), range(k, a_size), range(a_size, a_size + k),
                      range(a_size + k, n)]
            out["h4"].append((g, [
                (spectral.spectral_radius(g, a),
                 spectral.quotient_matrix(spectral.alpha_matrix(g, a), blocks).spectral_radius())
                for a in GRID5
            ]))
        out["cli"] = []
        for i, args in enumerate(self.cli_runs):
            path = self.workdir / f"sweep_{os.getpid()}_{i}.csv"
            code = cli.main(args + ["--out", str(path)])
            out["cli"].append((code, path.read_text(encoding="utf-8")))
            path.unlink()
        out["verify"] = [oracle.verify_theorem(t, 12) for t in self.lemmas]
        out["tournaments"] = [families.tournament("extremal_bruteforce", 6, a)
                              for a in self.tournament_alphas]
        out["redirects"] = []
        for g, _adj, a, p, q, src in self.redirects:
            t = transforms.redirect_in_arcs(g, p, q, src)
            out["redirects"].append((t, spectral.spectral_radius_general(t.before, a),
                                     spectral.spectral_radius_general(t.after, a)))
        out["subdivisions"] = []
        for g, _adj, a, arc in self.subdivisions:
            t = transforms.subdivide_arc(g, arc)
            out["subdivisions"].append((t, spectral.spectral_radius_general(t.before, a),
                                        spectral.spectral_radius_general(t.after, a)))
        return out

    def check(self, out):
        from alphaspec.spectral import DEFAULT_TOL

        fails: list[str] = []
        missed: list[str] = []
        own = {"c_ng": own_c_ng, "b_nd": own_b_nd}

        def radius(tag, adj, a, res, tol):
            f, miss, exact = checks.check_radius(tag, adj, a, res, tol)
            fails.extend(f)
            if miss:
                missed.append(f"{tag}: [{res.certificate_lo!r}, {res.certificate_hi!r}] "
                              f"misses the exact [{float(exact[0])!r}, {float(exact[1])!r}]")
            return exact

        # (a) exact enclosures, and the primed radius provably above the base
        exact = {}
        for (fam, n, p, primed), (g, results) in zip(self.primed_grid, out["primed"]):
            adj = own[fam](n, p, primed)
            if not np.array_equal(adj, checks.arcs_to_adj(n, g.arcs)):
                fails.append(f"{fam}({n}, {p}, primed={primed}): wrong arc set")
            for a, res in zip(GRID4, results):
                tag = f"{fam}({n}, {p}, primed={primed}) alpha={a} tol={STRICT_TOL}"
                exact[fam, n, p, primed, a] = radius(tag, adj, a, res, STRICT_TOL)
        for (fam, n, p, primed, a), (lo, _hi) in exact.items():
            if primed and not lo > exact[fam, n, p, False, a][1]:
                fails.append(f"{fam}({n}, {p}) alpha={a}: primed radius not provably larger")

        # (b) the family sweeps against eigvals, closed forms and quotients
        direct = {}
        for (n, k, m), (g, rows) in zip(self.knkm, out["knkm"]):
            adj = checks.arcs_to_adj(n, g.arcs)
            for a, (res, lam, qrad, qent, qform, second, vc) in zip(GRID5, rows):
                tag = f"k_nkm({n}, {k}, {m}) alpha={a}"
                radius(tag, adj, a, res, DEFAULT_TOL)
                direct["knkm", n, k, m, a] = res.radius
                for what, value in (("lambda_knkm", lam), ("quotient", qrad),
                                    ("second_max_radius", second),
                                    ("max_vertex_conn_radius", vc)):
                    if value is not None and abs(value - res.radius) > 1e-9:
                        fails.append(f"{tag}: {what} {value!r} != radius {res.radius!r}")
                if np.abs(qent - qform).max() > 1e-12:
                    fails.append(f"{tag}: quotient entries differ from the closed form")
        for (fam, n, p, primed), (g, results) in zip(self.paths, out["paths"]):
            adj = own[fam](n, p, primed)
            if not np.array_equal(adj, checks.arcs_to_adj(n, g.arcs)):
                fails.append(f"{fam}({n}, {p}, primed={primed}): wrong arc set")
            for a, res in zip(GRID5, results):
                radius(f"{fam}({n}, {p}, primed={primed}) alpha={a}", adj, a, res, DEFAULT_TOL)
                direct[fam, n, p, primed, a] = res.radius
        for (n, steps), (g, results) in zip(self.circulants, out["circulants"]):
            adj = checks.arcs_to_adj(n, [(i, (i + s) % n) for i in range(n) for s in steps])
            if not np.array_equal(adj, checks.arcs_to_adj(n, g.arcs)):
                fails.append(f"circulant({n}, {steps}): wrong arc set")
            for a, res in zip(GRID5, results):
                tag = f"circulant({n}, {steps}) alpha={a}"
                radius(tag, adj, a, res, DEFAULT_TOL)
                direct["circulant", n, steps, a] = res.radius
                if abs(res.radius - len(steps)) > 1e-9:  # out-regular: radius = degree
                    fails.append(f"{tag}: radius {res.radius!r} != degree {len(steps)}")
        for (n, k, a_size), (g, rows) in zip(self.h4, out["h4"]):
            adj = checks.arcs_to_adj(n, g.arcs)
            for a, (res, qrad) in zip(GRID5, rows):
                tag = f"h4({n}, {k}, {a_size}) alpha={a}"
                radius(tag, adj, a, res, DEFAULT_TOL)
                direct["h4", n, k, a_size, a] = res.radius
                if abs(qrad - res.radius) > 1e-9:
                    fails.append(f"{tag}: quotient radius {qrad!r} != radius {res.radius!r}")
        fails += self._check_cli(out["cli"], direct)

        # (c) the primed lemmas through the verifier
        fails += checks.check_verdicts(out["verify"])
        # (d) the tournament search against an exhaustive eigvals maximum
        for a, t in zip(self.tournament_alphas, out["tournaments"]):
            fails += checks.check_tournament(6, a, t.arcs)
        # (e) surgeries: arc sets, radii and the direction of the change
        for (g, adj, a, p, q, src), (t, before, after) in zip(self.redirects, out["redirects"]):
            moved = adj.copy()
            moved[list(src), p] = 0
            moved[list(src), q] = 1
            tag = f"redirect p={p} q={q} sources={src} alpha={a} on {sorted(g.arcs)}"
            fails += checks.check_surgery(tag, adj, moved, t, a, before, after, "up")
        for (g, adj, a, arc), (t, before, after) in zip(self.subdivisions, out["subdivisions"]):
            tag = f"subdivide {arc} alpha={a} on {sorted(g.arcs)}"
            fails += checks.check_surgery(tag, adj, checks.subdivided(adj, arc), t, a,
                                          before, after, "down")
        return fails, missed

    def _check_cli(self, runs, direct) -> list[str]:
        fails = []
        for args, (code, text) in zip(self.cli_runs, runs):
            rows = list(csv.DictReader(text.splitlines()))
            if code != 0:
                fails.append(f"cli {' '.join(args)}: exit code {code}")
                continue
            if args[1] == "formula":
                want = sum(1 for n, _k, _m in self.knkm if n <= 8) * len(GRID5)
                keys = [("knkm", int(r["n"]), int(r["k"]), int(r["m"]), float(r["alpha"]))
                        for r in rows]
                values = [float(r["numeric"]) for r in rows]
                fails += [f"cli formula row {r}: abs_err above 1e-9"
                          for r in rows if float(r["abs_err"]) > 1e-9]
            else:
                want = len(GRID5)
                flags = dict(zip(args[2::2], args[3::2]))
                n = int(flags["--n"])
                if flags["--family"] == "circulant":
                    key = ("circulant", n, tuple(int(s) for s in flags["--steps"].split(",")))
                elif flags["--family"] == "h4":
                    key = ("h4", n, int(flags["--k"]), int(flags["--a"]))
                else:
                    fam = {"cng": "c_ng", "bnd": "b_nd"}[flags["--family"]]
                    key = (fam, n, int(flags.get("--g", flags.get("--d"))), "--primed" in args)
                keys = [key + (float(r["alpha"]),) for r in rows]
                values = [float(r["radius"]) for r in rows]
                fails += [f"cli alpha row {r}: radius outside [lo, hi]" for r in rows
                          if not float(r["lo"]) <= float(r["radius"]) <= float(r["hi"])]
            if len(rows) != want:
                fails.append(f"cli {' '.join(args)}: {len(rows)} rows, expected {want}")
            for key, value in zip(keys, values):
                if key not in direct or abs(direct[key] - value) > 1e-9:
                    fails.append(f"cli {' '.join(args)}: {key} reads {value!r}, "
                                 f"direct call {direct.get(key)!r}")
        return fails

    def fingerprint(self, out):
        radii = []
        for part in ("primed", "paths", "circulants"):
            for _g, results in out[part]:
                radii += [(r.radius, r.certificate_lo, r.certificate_hi, r.iterations)
                          for r in results]
        for _g, rows in out["knkm"]:
            radii += [(r[0].radius, r[0].certificate_lo, r[0].certificate_hi, r[1], r[2])
                      for r in rows]
        for _g, rows in out["h4"]:
            radii += [(r.radius, r.certificate_lo, r.certificate_hi, q) for r, q in rows]
        return (
            tuple(radii),
            tuple(out["cli"]),
            tuple((v.status, v.details) for v in out["verify"]),
            tuple(t.arcs for t in out["tournaments"]),
            tuple((t.after.arcs, b, a) for t, b, a in out["redirects"] + out["subdivisions"]),
        )


WORKLOADS = {w.name: w for w in (Scan5Verify, Subdiv5, FamilySweeps)}
