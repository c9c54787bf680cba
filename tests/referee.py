"""Exact Born terms and Fisher sums of float inputs, to referee fisherlab's.

A complex128 input fixes exact numbers: ``Fraction(float)`` is exact, and
``p_a = sum_r |M_a psi|^2``, ``dp_a = 2 sum_r Re(conj(M_a t) M_a psi)``, the
vanishing-probability limit ``4 sum_r |M_a t|^2`` and ``F = sum_a dp_a^2 / p_a``
are rational in the rows, state and tangent. The referee takes the float
state and tangent as given; ``exp(-i lam h)`` is not rational, so it judges
the Born terms and the Fisher sum, not ``evaluate``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _exact(vector) -> list:
    """Entries of a complex vector as exact ``(re, im)`` pairs of Fractions."""
    return [(Fraction(z.real), Fraction(z.imag)) for z in np.asarray(vector, dtype=complex).tolist()]


def _amplitude(row, vector) -> tuple:
    """The exact ``row . vector`` of two lists of ``(re, im)`` pairs."""
    re = sum((a * c - b * d for (a, b), (c, d) in zip(row, vector)), Fraction(0))
    im = sum((a * d + b * c for (a, b), (c, d) in zip(row, vector)), Fraction(0))
    return re, im


def born_terms(rows, state, tangent) -> list:
    """Exact ``(p, dp, limit)`` per outcome of a ``(K, r, d)`` row stack."""
    psi, tan = _exact(state), _exact(tangent)
    terms = []
    for outcome in np.asarray(rows, dtype=complex):
        p = dp = limit = Fraction(0)
        for row in map(_exact, outcome):
            (ar, ai), (tr, ti) = _amplitude(row, psi), _amplitude(row, tan)
            p += ar * ar + ai * ai
            dp += 2 * (tr * ar + ti * ai)
            limit += 4 * (tr * tr + ti * ti)
        terms.append((p, dp, limit))
    return terms


def fisher(rows, state, tangent) -> Fraction:
    """Exact ``F = sum dp^2 / p``; an outcome with ``p = 0`` exactly adds its limit."""
    return sum(
        (dp * dp / p if p else limit for p, dp, limit in born_terms(rows, state, tangent)),
        Fraction(0),
    )
