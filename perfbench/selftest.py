"""Shows that every correctness check of the benchmark can fail.

Each case feeds a check one true output, which must pass, and one doctored
output, which must be reported as failed.  Run from the root of a source
checkout; exits with 1 if any case is not told apart:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys
from dataclasses import replace
from types import SimpleNamespace

from run import use_source_tree


def _scan(strong: int) -> SimpleNamespace:
    report = {"checked": strong, "violations": []}
    return SimpleNamespace(total_codes=1 << 20, strong_count=strong, max_certificate_width=5e-11,
                           alphas=(0.0,), bound_report=lambda alpha: report)


def cases():
    import checks
    from alphaspec import families, spectral, transforms

    tol = 1e-10
    yield ("strong count", lambda s: checks.check_scan(_scan(s), tol),
           checks.STRONG_5, checks.STRONG_5 - 1)

    # the complete digraph on 5 vertices: every cell set, clique number 5
    full = (1 << 20) - 1
    yield ("group extreme", lambda v: checks.check_extreme(
               5, "clique", 5, 0.5, SimpleNamespace(value=v), full),
           4.0, 4.0 + 1e-6)
    yield ("group parameter", lambda p: checks.check_extreme(
               5, "clique", p, 0.5, SimpleNamespace(value=4.0), full),
           5, 4)

    sweep = {"violations": [], "max_excess": -0.0103, "checked": 6_326_240}
    yield ("subdivision max_excess", lambda e: checks.check_subdivision(
               dict(sweep, max_excess=e), 6_326_240, -0.02, tol),
           -0.0103, 2e-9)
    yield ("subdivision count", lambda c: checks.check_subdivision(
               dict(sweep, checked=c), 6_326_240, -0.02, tol),
           6_326_240, 6_326_239)

    g = families.c_ng(8, 3, primed=True)
    adj = checks.arcs_to_adj(8, g.arcs)
    res = spectral.spectral_radius(g, 0.3)
    shift = 2 * (res.certificate_hi - res.certificate_lo)
    shifted = replace(res, certificate_lo=res.certificate_lo + shift,
                      certificate_hi=res.certificate_hi + shift)

    def enclosure(r):
        fails, missed, _exact = checks.check_radius("c_ng(8, 3)'", adj, 0.3, r, tol)
        return fails + (["enclosure misses the exact interval"] if missed else [])

    yield ("enclosure", enclosure, res, shifted)

    yield ("verdict", lambda st: checks.check_verdicts(
               [SimpleNamespace(theorem="T3.1", n=5, status=st, details=())]),
           "confirmed", "violated")

    yield ("tournament search", lambda t: checks.check_tournament(5, 0.3, t.arcs),
           families.tournament("extremal_bruteforce", 5, 0.3),
           families.tournament("transitive", 5))

    h = families.complete(4)
    rec = transforms.subdivide_arc(h, (0, 1))
    before = spectral.spectral_radius_general(rec.before, 0.5)
    after = spectral.spectral_radius_general(rec.after, 0.5)
    before_adj = checks.arcs_to_adj(4, h.arcs)
    after_adj = checks.arcs_to_adj(5, rec.after.arcs)
    yield ("surgery direction", lambda d: checks.check_surgery(
               "subdivide", before_adj, after_adj, rec, 0.5, before, after, d),
           "down", "up")


def main() -> int:
    use_source_tree()
    bad = 0
    for name, check, good, doctored in cases():
        passed = not check(good)
        caught = bool(check(doctored))
        ok = passed and caught
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true output "
              f"{'passes' if passed else 'FAILS'}, doctored output "
              f"{'is reported' if caught else 'is NOT reported'}")
    print(f"{bad} of the cases not told apart")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
