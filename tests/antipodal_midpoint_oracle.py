"""The midpoint antipodality pass of the exact engines, kept as a test
oracle for the flip rule of ``spherebell.correlation._flips_of``.

The colour of an azimuthally symmetric colouring can change only at its
polar edges: a band colouring's band endpoints in (0, pi), read from
``plus_bands`` so that the oracle does not share the flip rule it
checks, and an m = 0 harmonic's ``flips``.  The pass reflects them
(v -> pi - v), merges the edges and reflections with the poles into one
sorted list, collapsing float twins closer than 1e-9 so that no
midpoint lands on an edge, and requires the colour at each midpoint x
of that list to be minus the colour at pi - x.
"""

import math

import numpy as np

from spherebell.colourings import BandColouring, Negated

PI = math.pi


def is_antipodal(c):
    core = c.inner if isinstance(c, Negated) else c
    if isinstance(core, BandColouring):
        edges = [v for band in core.plus_bands for v in band if 0.0 < v < PI]
    else:
        edges = c.flips[1]
    raw = sorted({0.0, PI, *edges, *(PI - e for e in edges)})
    merged = [raw[0]]
    for v in raw[1:]:
        if v - merged[-1] > 1e-9:
            merged.append(v)
    merged = np.array(merged)
    mids = 0.5 * (merged[:-1] + merged[1:])
    return not np.any(c.evaluate_polar(mids) != -c.evaluate_polar(PI - mids))
