"""Finite certificates that two map towers are not homotopic.

For parameters t < s, pick a level j deep enough that (a) the target prefix
product m_1*...*m_{j-1} exceeds the caller's homotopy mesh budget ell and
(b) 3/j < s - t, so the two parameters occupy windows at least two slots
apart. The witness is an even fold point 2q/n_j just right of t's window:
there the t-tower is pinned in the top band [(m_j-1)/m_j, 1] while the
s-tower is exactly 0 (its value is both at most 1/m_j and a zero of
tent(m_j)). With p = m_1*...*m_{j-1} > ell, any level-0 homotopy track
between the towers would have to sweep all of [0, 1] inside a single mesh
cell, which is impossible; so a verified certificate rules out a homotopy
whose track decomposes into ell non-sweeping pieces, for every ell' <= ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .plmap import ONE, ZERO, RatLike, as_rat
from .seqs import SeqSpec, check_int
from .tower import LevelData, build_tower, eval_level


@dataclass(frozen=True)
class Certificate:
    """Separation witness for the towers of t and s (t < s).

    witness = 2q/n_j; vt and vs are the level-j values of the two towers
    there; p = m_1*...*m_{j-1} is the sweep count and r = p*m_j.
    """

    t: Fraction
    s: Fraction
    ell: int
    j: int
    q: int
    witness: Fraction
    vt: Fraction
    vs: Fraction
    p: int
    r: int


def pick_level(t: RatLike, s: RatLike, ell: int, target: SeqSpec) -> int:
    """Least level j with m_1*...*m_{j-1} > ell and 3/j < s - t."""
    t, s = as_rat(t), as_rat(s)
    if not ZERO <= t < s <= ONE:
        raise ValueError(f"need 0 <= t < s <= 1, got t={t}, s={s}")
    if check_int(ell, "ell") < 1:
        raise ValueError("ell must be positive")
    gap = s - t
    j, p = 1, 1  # p = m_1*...*m_{j-1}, kept as a running product
    while not (p > ell and 3 * gap.denominator < j * gap.numerator):  # 3/j < gap
        p *= target.nth(j)
        j += 1
    return j


def pick_q(lvl: LevelData) -> tuple[int, Fraction]:
    """Least q with (slot+1)/j <= 2q/n_j <= (slot+2)/j, and the witness 2q/n_j,
    for the level j of t's tower, whose n and slot are lvl's.

    The grouped bound n_j > (m_j+2)j makes the window longer than one fold
    spacing, so q exists whenever slot < j-1. For slot = j-1 the window is
    clamped at 1; an odd n_j then has no even fold point in range and the
    call fails.
    """
    n, slot, j = lvl.n, lvl.slot, lvl.j
    q = -(-n * (slot + 1) // (2 * j))
    witness = Fraction(2 * q, n)
    if witness > ONE:
        raise ValueError(
            f"no even fold point 2q/{n} inside [{slot + 1}/{j}, 1] (slot = j-1, odd n_j)")
    if witness > Fraction(slot + 2, j):
        raise AssertionError(
            f"witness {witness} lies past {slot + 2}/{j}: n_j = {n} breaks n_j > (m_j+2)j")
    return q, witness


def make_certificate(raw_source: SeqSpec, target: SeqSpec, t: RatLike, s: RatLike,
                     ell: int, level: int | None = None) -> Certificate:
    """Build both towers and extract the separation witness data.

    The unordered pair {t, s} is normalized to t < s. The level defaults to
    pick_level's least admissible j; both of its inequalities only get easier
    as j grows, so a caller-supplied level is admissible exactly when it is at
    least that j. The two value facts (vs = 0 exactly, vt in the top
    band) are guaranteed, so a failure is a bug here: it raises AssertionError,
    also under python -O.
    """
    t, s = as_rat(t), as_rat(s)
    if t == s:
        raise ValueError("parameters must differ")
    if t > s:
        t, s = s, t
    j = pick_level(t, s, ell, target)
    if level is not None:
        if check_int(level, "level") < 1:
            raise ValueError("level must be positive")
        if level < j:
            raise ValueError(f"level {level} violates the certificate inequalities")
        j = level
    tower_t = build_tower(raw_source, target, t, j)
    q, witness = pick_q(tower_t.level(j))
    tower_s = build_tower(raw_source, target, s, j)
    vt = eval_level(tower_t, j, witness)
    vs = eval_level(tower_s, j, witness)
    m_j = target.nth(j)
    if vs != ZERO:
        raise AssertionError(f"s-tower value {vs} at witness {witness} is not exactly 0")
    if vt < Fraction(m_j - 1, m_j):
        raise AssertionError(
            f"t-tower value {vt} at witness {witness} is below {m_j - 1}/{m_j}")
    p = target.prefix_product(j - 1)
    return Certificate(t=t, s=s, ell=ell, j=j, q=q, witness=witness,
                       vt=vt, vs=vs, p=p, r=p * m_j)


def verify_certificate(cert: Certificate, raw_source: SeqSpec, target: SeqSpec) -> bool:
    """Independently rebuild the towers and recheck every certificate invariant.

    The t-tower, built first, gives n_j and t's slot to the witness checks."""
    try:
        t, s, j = cert.t, cert.s, cert.j
        if not (ZERO <= t < s <= ONE) or cert.ell < 1 or j < 1 or cert.q < 1:
            return False
        if not Fraction(3, j) < s - t:
            return False
        if int(cert.p).bit_length() < j:  # every m_i >= 2, so p >= 2^(j-1)
            return False
        p = target.prefix_product(j - 1)
        m_j = target.nth(j)
        if cert.p != p or cert.r != p * m_j or p <= cert.ell:
            return False
        tower_t = build_tower(raw_source, target, t, j)
        lvl = tower_t.level(j)
        if cert.witness != Fraction(2 * cert.q, lvl.n):
            return False
        if not Fraction(lvl.slot + 1, j) <= cert.witness <= Fraction(lvl.slot + 2, j):
            return False
        if not ZERO <= cert.witness <= ONE:
            return False
        tower_s = build_tower(raw_source, target, s, j)
        if eval_level(tower_t, j, cert.witness) != cert.vt:
            return False
        if eval_level(tower_s, j, cert.witness) != cert.vs:
            return False
        if cert.vs != ZERO:
            return False
        if cert.vt < Fraction(m_j - 1, m_j):
            return False
        return True
    except (ValueError, TypeError):
        return False
