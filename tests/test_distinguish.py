import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import knaster
from knaster import (
    LevelData,
    SeqSpec,
    build_tower,
    eval_level,
    make_certificate,
    pick_level,
    pick_q,
    verify_certificate,
    wave_eval,
)

F = Fraction
c2 = SeqSpec.constant(2)


def test_pick_level_examples():
    assert pick_level(F(0), F(1, 2), 4, c2) == 7
    assert pick_level(F(0), F(1), 1, c2) == 4


def test_pick_level_strictness():
    # 3/6 == 1/2 must not qualify, the inequality is strict
    assert pick_level(F(0), F(1, 2), 1, c2) == 7


def test_pick_level_matches_definition():
    # both inequalities are monotone in j, so j is the least admissible level
    # exactly when it satisfies them and j - 1 does not
    def admissible(t, s, ell, target, j):
        return target.prefix_product(j - 1) > ell and F(3, j) < s - t

    targets = (c2, SeqSpec.constant(3), SeqSpec.periodic([2], [3, 5]))
    for gap in (F(1, 2), F(1, 3), F(2, 7), F(1, 10), F(1, 99), F(1, 1000)):
        for t in (F(0), 1 - gap):
            for ell in (1, 4, 63, 64, 10 ** 6):
                for target in targets:
                    j = pick_level(t, t + gap, ell, target)
                    assert admissible(t, t + gap, ell, target, j)
                    assert j == 1 or not admissible(t, t + gap, ell, target, j - 1)


def test_pick_level_rejects_degenerate():
    with pytest.raises(ValueError):
        pick_level(F(1, 2), F(1, 2), 4, c2)
    with pytest.raises(ValueError):
        pick_level(F(2, 3), F(1, 3), 4, c2)
    with pytest.raises(ValueError):
        pick_level(F(0), F(1), 0, c2)


def test_pick_q_desk():
    lvl = build_tower(c2, c2, F(0), 7).level(7)
    q, witness = pick_q(lvl)
    assert (q, witness) == (3, F(3, 16))
    # witness is an even fold point of tent(n_7)
    assert wave_eval(lvl.n * witness) == 0


def test_pick_q_window():
    for num in range(8):
        t = F(num, 8)
        for lvl in build_tower(c2, c2, t, 9).levels[1:]:
            j, n, slot = lvl.j, lvl.n, lvl.slot
            assert slot == min(math.floor(t * j), j - 1)
            q, witness = pick_q(lvl)
            assert F(slot + 1, j) <= witness <= F(slot + 2, j)
            assert witness == F(2 * q, n)
            # least such q
            if witness > F(slot + 1, j):
                assert F(2 * (q - 1), n) < F(slot + 1, j)


def test_pick_q_clamped_top_slot():
    lvl = build_tower(c2, c2, F(1), 2).level(2)  # n_2 = 16
    q, witness = pick_q(lvl)
    assert witness == 1 and q == 8


def test_pick_q_odd_n_top_slot_fails():
    lvl = build_tower(SeqSpec.constant(3), c2, F(1), 1).level(1)  # n_1 = 9, slot = 0 = j-1
    with pytest.raises(ValueError):
        pick_q(lvl)


def test_pick_q_invariant_failure_has_a_message():
    # a level below the grouped bound (n_3 = 2, not > (m_3+2)*3) puts the
    # witness 2q/n past the window; the failure must say which invariant broke
    lvl = LevelData(j=3, n=2, m=2, slot=0, k=0, b_num=1, b_den=1)
    with pytest.raises(AssertionError, match=r"witness 1 lies past 2/3: n_j = 2 breaks"):
        pick_q(lvl)


def test_certificate_desk_frozen():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    assert cert.j == 7
    assert cert.q == 3
    assert cert.witness == F(3, 16)
    assert cert.p == 64
    assert cert.r == 128
    assert cert.vs == 0
    assert cert.vt >= F(1, 2)
    assert verify_certificate(cert, c2, c2)


def test_certificate_small_ell():
    cert = make_certificate(c2, c2, F(0), F(1), 1)
    assert cert.j == 4 and cert.p == 8
    assert verify_certificate(cert, c2, c2)


def test_certificate_swapped_inputs():
    assert make_certificate(c2, c2, F(1, 2), F(0), 4) == \
        make_certificate(c2, c2, F(0), F(1, 2), 4)


def test_certificate_rejects_equal_parameters():
    with pytest.raises(ValueError):
        make_certificate(c2, c2, F(1, 4), F(1, 4), 4)


def test_exact_zero_chain():
    # the witness maps to 0 under tent(n_j), and the s-tower value is a zero
    # of tent(m_j) pinned into [0, 1/m_j]
    t, s, ell = F(0), F(1, 2), 4
    cert = make_certificate(c2, c2, t, s, ell)
    tower_s = build_tower(c2, c2, s, cert.j)
    lvl = tower_s.level(cert.j)
    assert wave_eval(lvl.n * cert.witness) == 0
    assert eval_level(tower_s, cert.j - 1, wave_eval(lvl.n * cert.witness)) == 0
    assert wave_eval(lvl.m * eval_level(tower_s, cert.j, cert.witness)) == 0


def test_monotone_budget():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    for ell in (1, 2, 3):
        assert verify_certificate(replace(cert, ell=ell), c2, c2)


def test_verify_rejects_tampering():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    assert not verify_certificate(replace(cert, vs=F(1, 128)), c2, c2)
    assert not verify_certificate(replace(cert, ell=cert.p), c2, c2)
    assert not verify_certificate(replace(cert, ell=cert.p + 5), c2, c2)
    assert not verify_certificate(replace(cert, vt=F(1, 3)), c2, c2)
    assert not verify_certificate(replace(cert, witness=F(5, 16)), c2, c2)
    assert not verify_certificate(replace(cert, q=cert.q + 1), c2, c2)
    assert not verify_certificate(replace(cert, p=cert.p * 2), c2, c2)
    assert not verify_certificate(replace(cert, r=cert.r + 1), c2, c2)
    assert not verify_certificate(replace(cert, j=cert.j + 1), c2, c2)
    assert not verify_certificate(replace(cert, s=cert.t), c2, c2)


def test_verify_rejects_gap_and_window():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    n_j = 2 * cert.q / cert.witness
    assert (cert.j, n_j) == (7, 32)
    # s - t must exceed 3/j strictly
    assert not verify_certificate(replace(cert, s=cert.t + F(3, cert.j)), c2, c2)
    # q and witness = 2q/n_j moved together: 1/8 and 5/16 leave the window
    # [(slot+1)/j, (slot+2)/j] = [1/7, 2/7]; 1/4 stays inside and verifies
    for dq, ok in ((-1, False), (2, False), (1, True)):
        q = cert.q + dq
        moved = replace(cert, q=q, witness=F(2 * q, 32))
        assert verify_certificate(moved, c2, c2) is ok, moved.witness


def test_verify_rejects_forged_level_in_bounded_time():
    # p = m_1*...*m_{j-1} >= 2^(j-1), so p's bit length caps j before the
    # verifier multiplies out j-1 terms: j = 10^5 took 0.32 s without the cap
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    forged = replace(cert, j=10 ** 5)
    t0 = time.perf_counter()
    assert not verify_certificate(forged, c2, c2)
    assert time.perf_counter() - t0 < 0.05


def test_verify_wrong_sequences():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    assert not verify_certificate(cert, SeqSpec.constant(3), c2)
    # and a finite source that cannot be regrouped deep enough
    assert not verify_certificate(cert, SeqSpec.from_list([2, 2, 2]), c2)


def test_requested_level_override():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4, level=9)
    assert cert.j == 9
    assert verify_certificate(cert, c2, c2)
    with pytest.raises(ValueError):
        make_certificate(c2, c2, F(0), F(1, 2), 4, level=6)  # 3/6 not < 1/2
    with pytest.raises(ValueError):
        make_certificate(c2, c2, F(0), F(1, 2), 4, level=0)


def test_requested_level_matches_the_inequalities():
    # make_certificate compares a caller's level with pick_level's; the
    # level passes exactly when it satisfies both inequalities itself
    for target in (c2, SeqSpec.constant(3), SeqSpec.periodic([2], [3, 5])):
        for t, s, ell in ((F(0), F(1, 2), 4), (F(1, 3), F(1), 63)):
            for level in range(1, 14):
                ok = target.prefix_product(level - 1) > ell and F(3, level) < s - t
                try:
                    cert = make_certificate(c2, target, t, s, ell, level=level)
                except ValueError as exc:
                    assert not ok and "violates" in str(exc), (target, t, level, exc)
                else:
                    assert ok and cert.j == level


def test_certificates_over_mixed_sequences():
    raw = SeqSpec.periodic([3], [2, 5])
    target = SeqSpec.periodic([2], [3])
    cert = make_certificate(raw, target, F(1, 8), F(3, 4), 2)
    assert verify_certificate(cert, raw, target)
    assert cert.vs == 0


def test_certificate_value_checks_survive_optimized_mode():
    # under python -O an assert statement vanishes; these checks must not
    script = (
        "from fractions import Fraction\n"
        "import knaster.distinguish as d\n"
        "d.eval_level = lambda tower, j, x: Fraction(1, 2)\n"
        "try:\n"
        "    d.make_certificate(d.SeqSpec.constant(2), d.SeqSpec.constant(2), 0, Fraction(1, 2), 4)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('returned a certificate')\n"
    )
    src = str(Path(knaster.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout.strip() == "raised: s-tower value 1/2 at witness 3/16 is not exactly 0"
