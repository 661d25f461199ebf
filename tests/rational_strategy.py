"""A hypothesis strategy for bounded rationals, shared by the property tests.

``rationals(lo, hi, d)`` draws from the same Fractions as
``st.fractions(min_value=lo, max_value=hi, max_denominator=d)``: every
rational in [lo, hi] whose reduced denominator is at most d.  It first
draws a denominator e in [1, d], among those with a multiple of 1/e in
[lo, hi], then a numerator in range, and builds one Fraction; so it draws
the same values as ``st.fractions`` with other weights, at a fraction of
the cost of that strategy's ``limit_denominator`` work.  Equal arguments
share one strategy object, so hypothesis validates each strategy once.
"""
import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st


@lru_cache(maxsize=None)
def rationals(min_value, max_value, max_denominator):
    lo, hi = Fraction(min_value), Fraction(max_value)
    numerators = {}
    for den in range(1, max_denominator + 1):
        first, last = math.ceil(lo * den), math.floor(hi * den)
        if first <= last:
            numerators[den] = (first, last)
    dens = sorted(numerators)

    @st.composite
    def rational(draw):
        den = draw(st.sampled_from(dens))
        return Fraction(draw(st.integers(*numerators[den])), den)

    return rational()
