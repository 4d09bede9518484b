"""Exact rational arithmetic: QQ is `fractions.Fraction`.

Rationals appear where the results are rational: levels, forms, Sugawara
coefficients and the terms of a state as read.  Elimination, the Fock
kernel and the Lie algebra data run on ints.
"""

from __future__ import annotations

from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def qstr(value) -> str:
    """Canonical 'p/q' text of an int or QQ, 'p' when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_qstr(text: str) -> "QQ":
    """The QQ of 'p/q' or 'p' text, surrounding whitespace ignored."""
    p, sep, q = text.strip().partition("/")
    return QQ(int(p), int(q)) if sep else QQ(int(p))
