"""Command line surface for the toolkit.

Subcommands: radius, formula, family, sweep (kinds formula and alpha), verify,
scan, explore.  Each registers only the flags it reads; a family flag that the
family's generator does not take, and a repeated grid value, exit 2 too.
Two settings tune a run, tol and output, each a flag of the subcommands that
read it; there is no config file.  The kernel's iteration cap is a constant and
a scan runs in one process, so neither is a setting.  Each report subcommand
states its report once and writes it through _report, which --output and --out
steer.
Exit codes are a stable contract: 0 ok, 2 usage or invalid input, 3 failed
precondition (non-strong digraph, certification not reached), 4 a verified
statement was violated.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import families, formulas, oracle
from .digraph import (
    Digraph,
    NotStronglyConnected,
    degree_profile,
    from_text,
    to_text,
)
from .spectral import DEFAULT_TOL, ConvergenceError, _witnessed, spectral_radius

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4

OUTPUT_FORMATS = ("text", "json", "csv")
VERIFY_OUTPUTS = ("text", "json")


# ---------------------------------------------------------------------------
# small parsers and formatters

def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _distinct(values: list, what: str) -> list:
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate {what}")
    return values


# Spans, ellipses and ranges expand to at most this many values, counted first:
# each costs a certified radius (0.1-0.4 ms at n <= 6), so 10^6 are minutes.
_MAX_VALUES = 10**6


def _lattice(text: str, head: list[str], step_text: str | None, end_text: str) -> list[float]:
    """head[:-1], then from head[-1] on the lattice of 1e-12 (texts read exactly,
    rounded half to even): a span by step_text to the last point at or below
    end_text, an ellipsis by its last two head values exactly to end_text."""
    texts = (*head, end_text, step_text or "0")
    # float() refuses junk and inf; below 1e-13 is 0 units (Fraction spends minutes on 1e-99999999)
    floats = [float(t) for t in texts]
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"grid {text!r} has a value that is not finite")
    *before, start, end, step = (
        round(Fraction(t) * 10**12) if abs(x) >= 1e-13 else 0 for t, x in zip(texts, floats))
    step = start - before[-1] if step_text is None else step
    if step < 1:
        raise ValueError(f"grid step must be at least 1e-12, the grid's resolution: {text!r}")
    count, offset = divmod(end - start, step)
    if offset and step_text is None:
        raise ValueError(f"grid end {end_text} is not on the step lattice of {text!r}")
    if not 0 <= count < _MAX_VALUES:
        raise ValueError(f"grid {text!r} has {max(count + 1, 0)} values, not 1 to {_MAX_VALUES}")
    return [u / 10**12 for u in before] + [(start + i * step) / 10**12 for i in range(count + 1)]


def parse_float_grid(text: str) -> list[float]:
    """Grids '0.5', '0,0.3,0.7', '0..0.9/0.05' or '0,0.1,...,0.9' (_lattice); no value twice."""
    text = text.strip()
    if not text:
        raise ValueError("empty value grid")
    tokens = [t.strip() for t in text.split(",")]
    if "/" in text:
        span, _, step_text = text.partition("/")
        start_text, sep, end_text = span.partition("..")
        if not sep:
            raise ValueError(f"range grid must look like start..end/step, got {text!r}")
        return _distinct(_lattice(text, [start_text], step_text, end_text), "alpha values")
    if "..." in tokens:
        cut = tokens.index("...")
        head, tail = tokens[:cut], tokens[cut + 1 :]
        if len(head) < 2 or len(tail) != 1 or tail[0] == "...":
            raise ValueError(
                "an ellipsis grid needs two leading values and one final value, "
                "like 0,0.1,...,0.9"
            )
        return _distinct(_lattice(text, head, None, tail[0]), "alpha values")
    return _distinct([float(t) for t in tokens], "alpha values")


def parse_int_range(text: str) -> list[int]:
    """Ranges: '5', '4..10', or '3,5,7'; no value twice, at most _MAX_VALUES."""
    text = text.strip()
    if ".." in text:
        start_text, _, end_text = text.partition("..")
        start, end = int(start_text), int(end_text)
        if not 0 <= end - start < _MAX_VALUES:
            raise ValueError(f"range {text!r} has {max(end - start + 1, 0)} values, not 1 to {_MAX_VALUES}")
        return list(range(start, end + 1))
    return _distinct([int(t.strip()) for t in text.split(",")], "orders")


def parse_steps(text: str) -> list[int]:
    return [int(t.strip()) for t in text.split(",")]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report(args: argparse.Namespace, payload: dict, lines: list[str],
            header: list[str] | None = None, rows: list[list] | None = None) -> None:
    """Write one report in the form --output picks: payload as indented JSON,
    header and rows as CSV, or lines as text; to --out, or to stdout."""
    if args.output == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.output == "csv":
        text = _csv_text(header, rows)
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# family construction from flags

_FAMILY_ALIASES = {"knkm": "k_nkm", "cng": "c_ng", "bnd": "b_nd"}

# family -> its generator's parameters, the one list of the flags it takes:
# each is filled from the flag of its name (None when absent, --primed too),
# alpha from the subcommand's alpha.  A parameter without a default makes its
# flag required; a family flag the generator does not take exits 2.
_FAMILY_FLAGS = {
    name: inspect.signature(getattr(families, name)).parameters for name in families.FAMILIES
}
_FAMILY_PARAMS = tuple(
    dict.fromkeys(p for params in _FAMILY_FLAGS.values() for p in params if p != "alpha")
)


def _input_digraph(args: argparse.Namespace, alpha: float | None,
                   alpha_flag: str | None = None) -> Digraph:
    """The digraph of --file or of --family and its flags.  alpha feeds the
    searched families; alpha_flag names its flag where only they read it, and
    that flag, like any family flag the input does not take, exits 2."""
    has_file = getattr(args, "file", None) is not None
    if has_file == (args.family is not None):
        raise ValueError("provide exactly one of --file and --family" if "file" in args
                         else "family requires --family")
    name = _FAMILY_ALIASES.get(args.family, args.family)
    if not has_file and name not in _FAMILY_FLAGS:
        raise ValueError(
            f"unknown family {args.family!r}; expected one of "
            f"{sorted(set(_FAMILY_FLAGS) | set(_FAMILY_ALIASES))}"
        )
    taken = {} if has_file else _FAMILY_FLAGS[name]
    unread = [f"--{p}" for p in _FAMILY_PARAMS
              if p not in taken and getattr(args, p, None) is not None]
    # of the tournaments, families.tournament reads alpha for the search only
    reads_alpha = "alpha" in taken and (
        name != "tournament" or args.kind in (None, "extremal_bruteforce")
    )
    if alpha_flag and alpha is not None and not reads_alpha:
        unread.append(alpha_flag)
    if unread:
        reader = "a digraph read with --file" if has_file else f"family {name}"
        if name == "tournament" and args.kind is not None:
            reader += f" --kind {args.kind}"
        raise ValueError(f"{reader} takes no {', '.join(unread)}")
    if has_file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return from_text(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc}") from exc
    kwargs: dict = {}
    for flag, param in taken.items():
        value = getattr(args, flag, None)
        if flag == "alpha":
            kwargs[flag] = alpha if alpha is not None else 0.0
        elif value is not None:
            kwargs[flag] = parse_steps(value) if flag == "steps" else value
        elif param.default is param.empty:
            raise ValueError(f"family {name} requires --{flag}")
    return families.build_family(name, **kwargs)


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", help="family name (path, cycle, complete, c_ng, b_nd, knkm, tournament, g0, h4, circulant)")
    sub.add_argument("--n", type=int, help="order")
    sub.add_argument("--g", type=int, help="girth parameter (c_ng)")
    sub.add_argument("--d", type=int, help="clique parameter (b_nd, g0)")
    sub.add_argument("--k", type=int, help="cut size (knkm, h4)")
    sub.add_argument("--m", type=int, help="source block size (knkm)")
    sub.add_argument("--a", type=int, help="first block size (h4)")
    sub.add_argument("--primed", action="store_true", default=None,
                     help="primed variant (c_ng, b_nd)")
    sub.add_argument("--kind", choices=families.TOURNAMENT_KINDS, help="tournament kind")
    sub.add_argument("--steps", help="comma separated circulant steps, e.g. 1,2")


def _add_settings(sub: argparse.ArgumentParser, *, tol: bool = False,
                  outputs: tuple[str, ...] = ()) -> None:
    """The flags of the settings the subcommand reads, if any, and --out."""
    if tol:
        sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                         help="certificate width target (default 1e-10)")
    if outputs:
        sub.add_argument("--output", choices=outputs, default="text", help="report format")
    sub.add_argument("--out", help="write the report to this file instead of stdout")


# ---------------------------------------------------------------------------
# subcommands

def cmd_radius(args: argparse.Namespace) -> int:
    G = _input_digraph(args, args.alpha)
    result = spectral_radius(G, args.alpha, tol=args.tol)
    prof = degree_profile(G)
    lam, lo, hi = result.radius, result.certificate_lo, result.certificate_hi
    checks = [
        # strict for n >= 2 only: at n = 1, rho = alpha * maxdeg = 0
        ("alpha_maxdeg_strict_lower", bool(G.n < 2 or args.alpha * prof.max_out < lam)),
        ("at_most_n_minus_one", bool(lam <= G.n - 1 + 1e-9)),
        ("at_least_min_outdeg", bool(lam >= prof.min_out - 1e-9)),
        ("at_most_max_outdeg", bool(lam <= prof.max_out + 1e-9)),
    ]
    perron = [float(x) for x in result.perron]
    payload = {
        "radius": lam,
        "lo": lo,
        "hi": hi,
        "width": hi - lo,
        "iterations": result.iterations,
        "perron": perron,
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
    }
    lines = [
        f"radius {_fmt(lam)}",
        f"certificate [{_fmt(lo)}, {_fmt(hi)}] width {_fmt(hi - lo)}",
        f"iterations {result.iterations}",
        "perron " + " ".join(_fmt(x) for x in perron),
        *(f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks),
    ]
    header = ["radius", "lo", "hi", *(f"perron_{i}" for i in range(len(perron))),
              *(name for name, _ in checks)]
    row = [_fmt(lam), _fmt(lo), _fmt(hi), *map(_fmt, perron),
           *(str(ok).lower() for _, ok in checks)]
    _report(args, payload, lines, header, [row])
    return EXIT_OK


def cmd_formula(args: argparse.Namespace) -> int:
    value = formulas.lambda_knkm(args.n, args.k, args.m, args.alpha)
    b, c = formulas.knkm_quadratic(args.n, args.k, args.m, args.alpha)
    payload = {
        "n": args.n, "k": args.k, "m": args.m, "alpha": args.alpha,
        "value": value, "quadratic": {"b": b, "c": c},
    }
    lines = [f"value {_fmt(value)}", f"largest root of x^2 - {_fmt(b)} x + {_fmt(c)}"]
    row = [args.n, args.k, args.m, _fmt(args.alpha), _fmt(value), _fmt(b), _fmt(c)]
    _report(args, payload, lines, ["n", "k", "m", "alpha", "value", "b", "c"], [row])
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    G = _input_digraph(args, args.alpha, "--alpha")
    _emit(to_text(G), args.out)
    return EXIT_OK


def cmd_sweep_formula(args: argparse.Namespace) -> int:
    alphas = parse_float_grid(args.alpha)
    if args.n is None:
        raise ValueError("sweep formula requires --n (a value or a range like 4..10)")
    rows = []
    for n in parse_int_range(args.n):
        if n < 3:
            raise ValueError(f"sweep formula needs n >= 3, got {n}")
        for k in range(1, n - 1):
            for m in range(1, n - k):
                G = families.k_nkm(n, k, m)
                for alpha in alphas:
                    formula = formulas.lambda_knkm(n, k, m, alpha)
                    with _witnessed(f"k_nkm({n}, {k}, {m})", alpha):
                        numeric = spectral_radius(G, alpha, tol=args.tol).radius
                    rows.append(
                        [
                            n, k, m, _fmt(alpha), _fmt(formula), _fmt(numeric),
                            _fmt(abs(formula - numeric)),
                        ]
                    )
    _emit(_csv_text(["n", "k", "m", "alpha", "formula", "numeric", "abs_err"], rows), args.out)
    return EXIT_OK


def cmd_sweep_alpha(args: argparse.Namespace) -> int:
    """One fixed digraph, its radius tabulated over the grid."""
    alphas = parse_float_grid(args.alpha)
    G = _input_digraph(args, args.family_alpha, "--family-alpha")
    given = [p for p in _FAMILY_PARAMS if getattr(args, p, None) is not None]
    name = args.file or f"{args.family}({', '.join(f'{p}={getattr(args, p)}' for p in given)})"
    rows = []
    for alpha in alphas:
        with _witnessed(name, alpha):
            res = spectral_radius(G, alpha, tol=args.tol)
        rows.append(
            [_fmt(alpha), _fmt(res.radius), _fmt(res.certificate_lo), _fmt(res.certificate_hi)]
        )
    _emit(_csv_text(["alpha", "radius", "lo", "hi"], rows), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    alphas = parse_float_grid(args.alpha)
    if not os.path.isdir(args.witness_dir):
        raise ValueError(f"witness directory {args.witness_dir!r} is not an existing directory")
    verdict = oracle.verify_theorem(args.theorem, args.n, alphas, tol=args.tol)
    witness_paths = []
    if verdict.status == "violated":
        stem = args.theorem.replace(".", "_")
        for i, G in enumerate(verdict.witnesses):
            path = os.path.join(args.witness_dir, f"violation_{stem}_{i}.dg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_text(G))
            witness_paths.append(path)
    payload = {
        "theorem": verdict.theorem,
        "n": verdict.n,
        "alphas": list(verdict.alphas),
        "status": verdict.status,
        "details": list(verdict.details),
        "witness_files": witness_paths,
    }
    lines = [
        f"{verdict.theorem} at n={verdict.n}, alphas={list(verdict.alphas)}: {verdict.status}",
        *(f"  {d}" for d in verdict.details),
        *(f"  witness written to {p}" for p in witness_paths),
    ]
    _report(args, payload, lines)
    return EXIT_VIOLATION if verdict.status == "violated" else EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    report = oracle.extremal_scan(args.n, args.alpha, args.parameter, mode=args.mode, tol=args.tol)
    payload = {
        "n": report.n,
        "alpha": report.alpha,
        "parameter": report.parameter,
        "mode": report.mode,
        "groups": [
            {
                "value": e.parameter_value,
                "radius": e.radius,
                "attaining_count": e.attaining_count,
                "class_count": e.class_count,
                "representatives": [to_text(g) for g in e.representatives],
                "runner_up": e.runner_up,
            }
            for e in report.entries
        ],
    }
    lines = [
        f"{report.mode} radius per {report.parameter} value, "
        f"n={report.n}, alpha={_fmt(report.alpha)}"
    ]
    rows = []
    for e in report.entries:
        runner_up = "" if e.runner_up is None else _fmt(e.runner_up)
        rows.append(
            [e.parameter_value, _fmt(e.radius), e.attaining_count, e.class_count, runner_up]
        )
        lines.append(
            f"  {report.parameter}={e.parameter_value}: radius {_fmt(e.radius)}, "
            f"{e.attaining_count} attaining in {e.class_count} class(es)"
            + (f", runner-up {runner_up}" if runner_up else "")
        )
        lines.extend(
            "    representative: " + " ".join(f"{u}->{v}" for u, v in g.sorted_arcs)
            for g in e.representatives
        )
    _report(args, payload, lines, ["value", "radius", "attaining", "classes", "runner_up"], rows)
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    alphas = parse_float_grid(args.alpha)
    report = oracle.explore_problem_4_1(args.n, d=args.d, alphas=alphas, tol=args.tol)
    payload = {"n": report.n, "note": report.note, "rows": list(report.rows)}
    lines = [f"block construction vs scanned maximum, n={report.n} ({report.note})"]
    rows = []
    for r in report.rows:
        where = f"  d={r['d']} alpha={_fmt(r['alpha'])}: "
        row = [r["n"], r["d"], _fmt(r["alpha"]), _fmt(r["g0_radius"])]
        if r["scan_max"] is None:
            lines.append(f"{where}class empty, construction radius {_fmt(r['g0_radius'])}")
            rows.append(row + ["", "", "", r["status"]])
            continue
        lines.append(
            f"{where}construction {_fmt(r['g0_radius'])}, scan max {_fmt(r['scan_max'])}, "
            f"gap {_fmt(r['gap'])}, {r['status']}"
        )
        match = str(r["classes_match"]).lower()
        rows.append(row + [_fmt(r["scan_max"]), _fmt(r["gap"]), match, r["status"]])
    header = ["n", "d", "alpha", "g0_radius", "scan_max", "gap", "classes_match", "status"]
    _report(args, payload, lines, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaspec",
        description=(
            "Certified spectral radii of the alpha matrix of strongly connected "
            "digraphs, extremal family constructions, and exhaustive small-order "
            "verification."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_radius = subs.add_parser("radius", help="certified radius of one digraph")
    p_radius.add_argument("--file", help="digraph text file")
    _add_family_flags(p_radius)
    p_radius.add_argument("--alpha", type=float, required=True)
    _add_settings(p_radius, tol=True, outputs=OUTPUT_FORMATS)
    p_radius.set_defaults(func=cmd_radius)

    p_formula = subs.add_parser("formula", help="closed-form radius of the k-cut family")
    p_formula.add_argument("--n", type=int, required=True)
    p_formula.add_argument("--k", type=int, required=True)
    p_formula.add_argument("--m", type=int, required=True)
    p_formula.add_argument("--alpha", type=float, required=True)
    _add_settings(p_formula, outputs=OUTPUT_FORMATS)
    p_formula.set_defaults(func=cmd_formula)

    p_family = subs.add_parser("family", help="emit a family digraph in text format")
    _add_family_flags(p_family)
    p_family.add_argument("--alpha", type=float,
                          help="construction alpha for searched families (g0, extremal tournament)")
    _add_settings(p_family)
    p_family.set_defaults(func=cmd_family)

    p_sweep = subs.add_parser("sweep", help="CSV sweeps (formula agreement or alpha grid)")
    kinds = p_sweep.add_subparsers(dest="sweep_kind", metavar="kind", required=True)
    grid_help = "grid: 0,0.3 or 0..0.9/0.05 or 0,0.1,...,0.9"
    p_sweep_formula = kinds.add_parser("formula", help="formula vs certified radius of K(n,k,m)")
    p_sweep_formula.add_argument("--n", help="order, or a range like 4..10")
    p_sweep_formula.add_argument("--alpha", required=True, help=grid_help)
    _add_settings(p_sweep_formula, tol=True)
    p_sweep_formula.set_defaults(func=cmd_sweep_formula)
    p_sweep_alpha = kinds.add_parser("alpha", help="radius of one digraph over an alpha grid")
    p_sweep_alpha.add_argument("--file", help="digraph text file")
    _add_family_flags(p_sweep_alpha)
    p_sweep_alpha.add_argument("--alpha", required=True, help=grid_help)
    p_sweep_alpha.add_argument("--family-alpha", dest="family_alpha", type=float,
                               help="construction alpha for searched families")
    _add_settings(p_sweep_alpha, tol=True)
    p_sweep_alpha.set_defaults(func=cmd_sweep_alpha)

    p_verify = subs.add_parser("verify", help="verify one extremal statement exhaustively")
    p_verify.add_argument("theorem", choices=oracle.THEOREM_IDS, metavar="ID",
                          help=f"one of {', '.join(oracle.THEOREM_IDS)}")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--alpha", default="0,0.5",
                          help="alpha grid (default 0,0.5)")
    p_verify.add_argument("--witness-dir", dest="witness_dir", default=".",
                          help="directory for violation witness files")
    _add_settings(p_verify, tol=True, outputs=VERIFY_OUTPUTS)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = subs.add_parser("scan", help="extremal radii per parameter value")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--alpha", type=float, required=True)
    p_scan.add_argument("--parameter", choices=oracle.PUBLIC_PARAMETERS, required=True)
    p_scan.add_argument("--mode", choices=("min", "max"), default="max")
    _add_settings(p_scan, tol=True, outputs=OUTPUT_FORMATS)
    p_scan.set_defaults(func=cmd_scan)

    p_explore = subs.add_parser("explore",
                                help="open-problem gap table: block construction vs scan")
    p_explore.add_argument("--n", type=int, required=True)
    p_explore.add_argument("--d", type=int, default=None)
    p_explore.add_argument("--alpha", default="0,0.25,0.5,0.75",
                           help="alpha grid (default 0,0.25,0.5,0.75)")
    _add_settings(p_explore, tol=True, outputs=OUTPUT_FORMATS)
    p_explore.set_defaults(func=cmd_explore)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # tol is outside input: refuse it before any work (NaN is not > 0 either)
        if not getattr(args, "tol", DEFAULT_TOL) > 0:
            raise ValueError(f"tol must be positive, got {args.tol}")
        return args.func(args)
    except NotStronglyConnected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"error: certification not reached: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
