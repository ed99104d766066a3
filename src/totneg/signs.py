"""Sign-change counters, end-sign analysis, and orthant predicates.

Two counters drive the variation-diminution tests: ``s_minus`` counts sign
changes after dropping zeros, and ``s_plus`` is the maximum count over all
ways of assigning +1/-1 to the zero entries.  The all-zero vector of length n
is special-cased to s_plus = n and s_minus = 0.

``s_plus`` needs no search over assignments.  Let x~ flip the sign of every
other coordinate, x~_i = (-1)^i x_i.  A +/-1 vector of length n and its flip
together change sign exactly n - 1 times, one change at each adjacent pair, so
an assignment maximizing the changes of x minimizes those of x~, whose minimum
is s_minus(x~) (copy a neighbour's sign into each zero).  Hence, for nonzero x,

    s_plus(x) = n - 1 - s_minus(x~).

The same count gives the end signs.  Fixing a zero first coordinate to s adds
one change to x~ unless s equals the sign of the first nonzero coordinate of
x~, so only that s attains the maximum, and likewise at the last coordinate:
for nonzero x both end signs at the maximum are forced, and one pass over x
gives the whole :class:`SignProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class SignProfile:
    """Result of analysing one vector.

    ``first_signs_at_max`` / ``last_signs_at_max`` hold the signs the first /
    last coordinate takes across all zero-assignments achieving the maximal
    sign-change count; a singleton set means that end sign is forced.
    """

    s_minus: int
    s_plus: int
    first_signs_at_max: frozenset[int]
    last_signs_at_max: frozenset[int]
    first_nonzero_sign: int | None
    last_nonzero_sign: int | None


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def s_minus(x: Sequence[Fraction]) -> int:
    """Number of sign changes in x after removing all zero entries."""
    if len(x) == 0:
        raise ValueError("sign-change count needs a nonempty vector")
    signs = [_sign(v) for v in x if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


_FORCED = {1: frozenset({1}), -1: frozenset({-1})}


def sign_profile(x: Sequence[Fraction]) -> SignProfile:
    """Full sign-change analysis of a vector (both counters plus end signs), in one pass."""
    n = len(x)
    if n == 0:
        raise ValueError("sign profile needs a nonempty vector")
    changes = flipped_changes = 0  # in x, and in x~ = (x_0, -x_1, x_2, ...)
    first = last = -1  # positions of the first and last nonzero coordinates
    first_sign = last_sign = 0
    for i, v in enumerate(x):
        if not v:
            continue
        s = 1 if v > 0 else -1
        if last < 0:
            first, first_sign = i, s
        else:
            changed = s != last_sign
            changes += changed
            flipped_changes += changed ^ ((i - last) & 1)  # x~ flips one of the two iff i - last is odd
        last, last_sign = i, s
    if last < 0:
        # conventions for the zero vector; every assignment attains the maximum
        return SignProfile(0, n, frozenset({1, -1}), frozenset({1, -1}), None, None)
    return SignProfile(
        s_minus=changes,
        s_plus=n - 1 - flipped_changes,
        first_signs_at_max=_FORCED[-first_sign if first % 2 else first_sign],
        last_signs_at_max=_FORCED[-last_sign if (n - 1 - last) % 2 else last_sign],
        first_nonzero_sign=first_sign,
        last_nonzero_sign=last_sign,
    )


def s_plus(x: Sequence[Fraction]) -> int:
    """Maximum sign-change count over all +/-1 assignments to zero entries."""
    return sign_profile(x).s_plus


def alternating_signature(n: int) -> tuple[int, ...]:
    """The vector (1, -1, 1, ..., (-1)^(n-1)) as +/-1 integers."""
    if n < 1:
        raise ValueError("length must be at least 1")
    return tuple(1 if i % 2 == 0 else -1 for i in range(n))


def is_alternating_orthant(x: Sequence[Fraction]) -> bool:
    """True iff all coordinates are nonzero with strictly alternating signs."""
    if len(x) == 0:
        raise ValueError("orthant test needs a nonempty vector")
    if any(v == 0 for v in x):
        return False
    return all(a * b < 0 for a, b in zip(x, x[1:]))


def is_mixed_orthant(x: Sequence[Fraction]) -> bool:
    """True iff x has at least one positive and one negative coordinate."""
    if len(x) == 0:
        raise ValueError("orthant test needs a nonempty vector")
    return any(v > 0 for v in x) and any(v < 0 for v in x)
