"""The sequential crossing bisection, one float call per step, kept as a
test oracle for ``spherebell.search._bisect_crossing``, which reads
several levels of midpoints per call.

Given a bracket [lo, hi] and the value ``d_lo`` of f - g at lo (nonzero),
each step evaluates f - g at the midpoint, returns it at once on an exact
zero, and keeps the half whose ends differ in sign.  It stops when the
bracket is no wider than ``tol`` or its ends are adjacent floats, and
returns the final bracket's midpoint and width.
"""


def bisect_crossing(diff, lo, hi, d_lo, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: the bracket is final
            break
        d_mid = diff(mid)
        if d_mid == 0.0:
            return mid, 0.0
        if (d_lo > 0.0) == (d_mid > 0.0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo
