"""Self-test of the benchmark's checks: right outputs pass, wrong ones are caught.

Each case feeds a check a genuine output and then a perturbed or tampered
copy; the check must accept the first and reject the second. Run through
`python3 bench/run.py --smoke`.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F
from types import SimpleNamespace

import checks
import workloads


def main(K) -> int:
    failures = []

    def expect(name: str, genuine, tampered) -> None:
        if genuine is not None:
            failures.append(f"{name}: genuine output rejected ({genuine})")
        if tampered is None:
            failures.append(f"{name}: tampered output accepted")

    if [checks.tent_value(3, x) for x in (F(0), F(1, 6), F(1, 3), F(1, 2), F(1))] \
            != [0, F(1, 2), 1, F(1, 2), 1]:
        failures.append("tent_value: wrong closed form")

    # maps: a collinear midpoint, a decreasing x, a value above 1
    pts = list(K.tent(3).points)
    mid = ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2)
    for label, bad in (("collinear", [pts[0], mid] + pts[1:]),
                       ("order", [pts[0], pts[2], pts[1], pts[3]]),
                       ("value", [(x, y * 2) for x, y in pts])):
        expect(f"canonical/{label}", checks.canonical(pts), checks.canonical(bad))

    # a lift with one breakpoint moved: still canonical, no longer a lift
    spec = K.LiftSpec(m=3, n=7, q=1, i=0, f0=K.identity())
    f1 = K.construct_lift(spec)
    report = K.check_conditions(f1, spec)
    moved = list(f1.points)
    x2, y2 = moved[2]
    moved[2] = (x2, y2 + F(1, 97))
    item = (spec, [F(1, 5), F(2, 3)])
    expect("lift-grid/moved breakpoint",
           workloads.lift_grid_check(K, item, (f1, report)),
           workloads.lift_grid_check(K, item, (SimpleNamespace(points=tuple(moved)), report)))

    # certificates: each tampered field is caught by the independent check
    c2 = K.SeqSpec.constant(2)
    n_nth = m_nth = checks.seq_nth("const:2")
    cert = K.make_certificate(c2, c2, F(0), F(1, 2), 4)
    for field, value in (("j", cert.j + 1), ("vs", F(1, 2)), ("q", cert.q + 1),
                         ("vt", F(1, 4)), ("p", cert.p * 2)):
        bad = dataclasses.replace(cert, **{field: value})
        expect(f"certificate/{field}", checks.certificate(cert, n_nth, m_nth),
               checks.certificate(bad, n_nth, m_nth))

    # a verifier that accepted a tampered certificate fails the certify check
    pair = workloads.Pair(K, "const:2", "const:2", 0)
    case = (pair, F(0), F(1, 2), 4, "vt", False)
    expect("certify/verifier accepts tampered copy",
           workloads.certify_check(K, case, (cert, True, True, None, None)),
           workloads.certify_check(K, case, (cert, True, False, None, None)))

    for why in failures:
        print(f"self-test FAIL {why}")
    print(f"self-test: {'ok' if not failures else 'FAIL'}")
    return 1 if failures else 0
