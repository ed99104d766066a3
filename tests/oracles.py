"""Reference oracles for the tests, independent of the library's fast paths."""

import itertools
from fractions import Fraction
from typing import Sequence

from totneg import DimensionError, ExactMatrix, s_minus


def det_by_cofactor_expansion(a: ExactMatrix) -> Fraction:
    """Reference determinant by first-row cofactor expansion."""
    if not a.is_square:
        raise DimensionError("determinant needs a square matrix")

    def rec(rows: list[list[Fraction]]) -> Fraction:
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            if rows[0][j] == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * rec(minor)
            total += term if j % 2 == 0 else -term
        return total

    return rec(a.row_list())


def _changes(signs):
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def profile_by_enumeration(x):
    """Brute force over all +/-1 assignments to zero entries: (s_plus, first signs, last signs) at the maximum."""
    n = len(x)
    zero_pos = [i for i, v in enumerate(x) if v == 0]
    best = -1
    firsts, lasts = set(), set()
    for assign in itertools.product((1, -1), repeat=len(zero_pos)):
        signs = []
        it = iter(assign)
        for v in x:
            signs.append(next(it) if v == 0 else (1 if v > 0 else -1))
        c = _changes(signs)
        if c > best:
            best = c
            firsts, lasts = {signs[0]}, {signs[-1]}
        elif c == best:
            firsts.add(signs[0])
            lasts.add(signs[-1])
    splus = n if all(v == 0 for v in x) else best
    return splus, frozenset(firsts), frozenset(lasts)


def check_splus_sminus_duality(x: Sequence[Fraction]) -> bool:
    """The identity s_plus(x) + s_minus(x~) = n - 1 for nonzero x, where x~ flips
    the sign of every even-position coordinate.

    The library computes s_plus by this identity, so s_plus is taken from the
    enumeration here.
    """
    n = len(x)
    if n == 0 or all(v == 0 for v in x):
        raise ValueError("the identity requires a nonzero vector")
    flipped = [v if i % 2 == 0 else -v for i, v in enumerate(x)]
    return profile_by_enumeration(x)[0] + s_minus(flipped) == n - 1
