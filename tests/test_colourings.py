import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antipodal_midpoint_oracle import is_antipodal as midpoint_is_antipodal
from spherical_harmonic_oracle import real_spherical_harmonic as oracle_harmonic

from spherebell.colourings import (
    BandColouring,
    Colouring,
    ColouringPair,
    HarmonicColouring,
    Negated,
    catalogue_labels,
    circle_colouring_value,
    colouring_from_spec,
    harmonic_rows,
    load_colouring,
    make_catalogue,
    negate,
    real_spherical_harmonic,
)
from spherebell.correlation import _flips_of, check_antipodal
from spherebell.geometry import NumericalError, arccos_clamped_array, unit_vectors

PI = math.pi


class TestCatalogue:
    def test_hemisphere_band(self):
        c = make_catalogue(1)
        assert c.label == "1"
        assert c.plus_bands == ((0.0, PI / 2),)

    def test_hemisphere_alias(self):
        assert make_catalogue("hemisphere").plus_bands == make_catalogue("1").plus_bands

    def test_two_band_colouring(self):
        c = make_catalogue(2)
        assert c.plus_bands == ((0.0, PI / 4), (PI / 2, 3 * PI / 4))

    def test_three_band_colouring(self):
        c = make_catalogue(3)
        assert c.plus_bands == (
            (0.0, PI / 6),
            (PI / 3, PI / 2),
            (2 * PI / 3, 5 * PI / 6),
        )

    def test_four_band_colouring(self):
        # bands [k pi/4, (2k+1) pi/8] for k = 0..3
        c = make_catalogue(4)
        expected = tuple(
            (k * PI / 4, (2 * k + 1) * PI / 8) for k in range(4)
        )
        assert c.plus_bands == expected

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_catalogue("5")

    def test_inline_parameter(self):
        c = make_catalogue("3_delta:-0.038")
        d = -0.038 * PI
        assert c.plus_bands[0][1] == pytest.approx(PI / 6 + d, abs=1e-15)
        assert c.plus_bands[2][1] == pytest.approx(5 * PI / 6 - d, abs=1e-15)

    def test_deformed_three_band_requires_delta(self):
        with pytest.raises(ValueError):
            make_catalogue("3_delta")

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            make_catalogue("3_delta", delta=-PI / 17)
        with pytest.raises(ValueError):
            make_catalogue("3_delta", delta=PI / 23)

    def test_zero_delta_reduces_to_plain_three_band(self):
        a = make_catalogue("3_delta", delta=0.0)
        b = make_catalogue(3)
        eps = np.linspace(0.0, PI, 481)
        assert np.array_equal(a.evaluate_polar(eps), b.evaluate_polar(eps))

    def test_shrunk_cap_bands(self):
        c = make_catalogue("2_Delta:0.05")
        d = 0.05 * PI
        assert c.plus_bands == ((0.0, PI / 4 - d), (PI / 2, 3 * PI / 4 + d))

    def test_cap_parameter_out_of_range(self):
        with pytest.raises(ValueError):
            make_catalogue("2_Delta", Delta=PI / 11)

    def test_parameter_on_plain_label_rejected(self):
        with pytest.raises(ValueError):
            make_catalogue("1:0.3")

    def test_labels_listing(self):
        assert catalogue_labels() == ("1", "2", "3", "4")

    def test_every_catalogue_colouring_is_antipodal(self):
        # _flips_of raises on a colouring that is not antipodal
        for label in catalogue_labels():
            _flips_of(make_catalogue(label))
        _flips_of(make_catalogue("3_delta", delta=-0.04 * PI))
        _flips_of(make_catalogue("2_Delta", Delta=0.03 * PI))


class TestBandColouring:
    def test_hemisphere_value(self):
        c = make_catalogue(1)
        assert c.evaluate_polar(np.array([PI / 4, 3 * PI / 4])).tolist() == [1, -1]

    def test_three_band_values(self):
        c = make_catalogue(3)
        # PI / 4 lies inside the first gap
        assert c.evaluate_polar(np.array([PI / 4, 0.4 * PI, 0.99 * PI])).tolist() == [-1, 1, -1]

    def test_edges_take_plus_one(self):
        c = make_catalogue(3)
        assert c.evaluate_polar(np.array([PI / 6, PI / 3])).tolist() == [1, 1]

    def test_phi_independence(self):
        c = make_catalogue(2)
        eps = np.full(5, 0.6)
        phi = np.linspace(0.0, 2 * PI, 5)
        vals = c.evaluate_many(eps, phi)
        assert np.all(vals == vals[0])

    def test_edges_property(self):
        c = make_catalogue(2)
        assert c.flips == (1, (PI / 4, PI / 2, 3 * PI / 4))
        assert BandColouring(((0.3, 0.5 * PI),)).flips == (-1, (0.3, 0.5 * PI))

    def test_touching_bands_share_no_flip(self):
        # both sides of a shared endpoint are +1, so it is no flip
        c = BandColouring(((0.0, 0.2 * PI), (0.2 * PI, 0.3 * PI), (0.5 * PI, PI)))
        assert c.flips == (1, (0.3 * PI, 0.5 * PI))

    def test_negated_record(self):
        c = make_catalogue(3)
        north, flips = c.flips
        assert Negated(c).flips == (-north, flips)
        h = HarmonicColouring(((3, 0, 1.0), (1, 0, 0.4)))
        assert Negated(h).flips == (-h.flips[0], h.flips[1])

    def test_non_azimuthal_harmonic_has_no_record(self):
        h = HarmonicColouring(((1, 1, 1.0),))
        with pytest.raises(ValueError, match="not azimuthally symmetric"):
            h.flips
        with pytest.raises(ValueError, match="not azimuthally symmetric"):
            Negated(h).flips
        # flips is no member of the runtime-checkable protocol
        assert isinstance(h, Colouring) and isinstance(Negated(h), Colouring)

    def test_rejects_empty_and_bad_bands(self):
        with pytest.raises(ValueError):
            BandColouring(())
        with pytest.raises(ValueError):
            BandColouring(((0.5, 0.2),))
        with pytest.raises(ValueError):
            BandColouring(((0.0, 0.6), (0.5, 0.9)))

    def test_non_antipodal_detected(self):
        with pytest.raises(ValueError, match="not antipodal"):
            _flips_of(BandColouring(((0.0, 0.6 * PI),)))


def _edge_probes(c):
    """cos(polar) values at and around every band edge, the poles and
    beyond them: the samples the comparison step must hand on."""
    cosines = [-1.0, 1.0, *(math.cos(v) for band in c.plus_bands for v in band)]
    offsets = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9)
    return np.array([x + d for x in cosines for d in offsets])


def _antipodal_flips(north_flips):
    """The given flips in (0, pi/2), a flip at the equator and the
    antipodal reflection below."""
    north = sorted(north_flips)
    return north + [PI / 2] + [PI - e for e in reversed(north)]


def _antipodal_bands(north_flips, north_value, split):
    """The band colouring with the flips of :func:`_antipodal_flips`;
    with ``split``, its first plus band is cut in two touching bands at
    its midpoint."""
    return _bands_from_flips(_antipodal_flips(north_flips), north_value, split)


def _bands_from_flips(flips, north_value, split=False):
    """The band colouring whose colour is ``north_value`` at the north
    pole and flips at each of the sorted polar angles ``flips``."""
    bounds = [0.0, *flips, PI]
    plus = [(lo, hi) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if (north_value > 0) == (k % 2 == 0)]
    if split:
        lo, hi = plus[0]
        plus[:1] = [(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)]
    return BandColouring(tuple(plus))


class TestEvaluateCos:
    """Band values read from cos(polar) by comparison, against the
    arccos path they must reproduce bit for bit."""

    COLOURINGS = [
        make_catalogue(1),
        make_catalogue(2),
        make_catalogue(3),
        make_catalogue(4),
        make_catalogue("3_delta", delta=-0.03 * PI),
        make_catalogue("2_Delta", Delta=0.05 * PI),
        # touching bands and a flip at pi/2
        BandColouring(((0.0, PI / 6), (PI / 6, PI / 2))),
        # not antipodal, no band at a pole
        BandColouring(((0.2, 0.6 * PI), (0.7 * PI, 0.8 * PI))),
        # a sliver band narrower than the edge window
        BandColouring(((0.0, 0.3), (0.5, 0.5 + 1e-10), (2.0, PI))),
    ]

    @staticmethod
    def assert_matches_arccos_path(c, x):
        for colouring in (c, Negated(c)):
            expected = colouring.evaluate_polar(arccos_clamped_array(x))
            assert np.array_equal(colouring.evaluate_cos(x), expected)

    def test_nan_takes_the_arccos_path(self):
        # a band reaching the south pole used to read nan as +1
        c = BandColouring(((0.2, PI),))
        self.assert_matches_arccos_path(c, np.array([math.nan, 0.5]))

    @pytest.mark.parametrize("c", COLOURINGS)
    def test_edge_cosines_and_their_neighbours(self, c):
        self.assert_matches_arccos_path(c, _edge_probes(c))

    @pytest.mark.parametrize("c", COLOURINGS)
    def test_uniform_samples(self, c):
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 20_000)
        self.assert_matches_arccos_path(c, x)

    @pytest.mark.parametrize("label, x", [(1, 1.0), (3, math.cos(PI / 6))])
    def test_0d_cosine_on_a_pole_or_a_flip(self, label, x):
        # took the arccos path into a numpy scalar, which raised TypeError
        c = make_catalogue(label)
        value = c.evaluate_cos(x)
        assert value.shape == () and value.dtype == np.int64
        assert value == c.evaluate_cos(np.array([x]))[0]

    def test_drift_beyond_rounding_is_a_numerical_error(self):
        c = make_catalogue(2)
        self.assert_matches_arccos_path(c, np.array([1.0 + 1e-7, -1.0 - 1e-7]))
        for colouring in (c, Negated(c)):
            with pytest.raises(NumericalError):
                colouring.evaluate_cos(np.array([0.3, 1.5]))

    @given(
        north_flips=st.lists(
            st.floats(0.01, 1.56), max_size=4, unique_by=lambda x: round(x, 2)
        ),
        north_value=st.sampled_from([1, -1]),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_antipodal_band_sets(self, north_flips, north_value, split, seed):
        c = _antipodal_bands(north_flips, north_value, split)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, 2000)
        self.assert_matches_arccos_path(c, np.concatenate([x, _edge_probes(c)]))


def test_sign_readers_give_int64_arrays_of_the_input_shape():
    eps = np.linspace(0.0, PI, 9)
    all_m = HarmonicColouring(((1, 0, 1.0), (3, 0, -0.7), (3, 2, 0.4)))
    azimuthal = HarmonicColouring(((1, 0, 1.0), (3, 0, -0.7)))
    cases = [
        (make_catalogue(3).evaluate_polar, eps),
        (all_m.evaluate_vectors, unit_vectors(eps, 0.3 * eps)),
        (azimuthal.evaluate_cos, np.cos(eps)),
    ]
    for read, points in cases:
        values = read(points)
        assert values.dtype == np.int64 and values.shape == eps.shape
        assert set(values.tolist()) <= {-1, 1}
        # a 0-d input gives a 0-d array
        one = read(points[..., 4])
        assert isinstance(one, np.ndarray) and one.shape == () and one == values[4]


class TestHarmonicColouring:
    def test_degree_one_is_the_hemisphere(self):
        h = HarmonicColouring(((1, 0, 1.0),))
        band = make_catalogue(1)
        eps = np.linspace(0.01, PI - 0.01, 211)
        phi = np.linspace(0.0, 2 * PI, 211)
        assert np.array_equal(h.evaluate_many(eps, phi), band.evaluate_many(eps, phi))

    def test_nodal_tie_goes_to_plus(self):
        h = HarmonicColouring(((1, 0, 1.0),))
        assert h.evaluate_many(np.array([PI / 2]), np.array([0.3])).tolist() == [1]

    @given(scale=st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_sign_is_scale_invariant(self, scale):
        terms = ((1, 0, 0.4), (3, 2, -0.7), (5, -3, 0.2))
        a = HarmonicColouring(terms)
        b = HarmonicColouring(tuple((l, m, scale * c) for l, m, c in terms))
        rng = np.random.default_rng(23)
        eps = np.arccos(rng.uniform(-1, 1, 500))
        phi = rng.uniform(0, 2 * PI, 500)
        assert np.array_equal(a.evaluate_many(eps, phi), b.evaluate_many(eps, phi))

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            HarmonicColouring(((2, 0, 1.0),))

    def test_order_beyond_degree_rejected(self):
        with pytest.raises(ValueError):
            HarmonicColouring(((3, 4, 1.0),))

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            HarmonicColouring(((1, 0, 0.0), (3, 1, 0.0)))

    def test_azimuthal_flag(self):
        assert HarmonicColouring(((3, 0, 1.0),)).is_azimuthal
        assert not HarmonicColouring(((3, 1, 1.0),)).is_azimuthal

    def test_polar_evaluation_requires_azimuthal(self):
        with pytest.raises(ValueError):
            HarmonicColouring(((3, 1, 1.0),)).evaluate_polar(np.array([0.3]))


def test_real_harmonic_normalization():
    # squared integral over the sphere must be 1 for each basis function
    n_eps, n_phi = 256, 512
    eps = (np.arange(n_eps) + 0.5) * PI / n_eps
    phi = (np.arange(n_phi) + 0.5) * 2 * PI / n_phi
    de, dp = PI / n_eps, 2 * PI / n_phi
    eps_g, phi_g = np.meshgrid(eps, phi, indexing="ij")
    v = unit_vectors(eps_g, phi_g)
    for l, m in ((1, 0), (3, 2), (5, -4)):
        y = real_spherical_harmonic(l, m, v[2], v[:2])
        total = np.sum(y * y * np.sin(eps_g)) * de * dp
        assert total == pytest.approx(1.0, abs=1e-3)


def test_degree_one_harmonics_match_cartesian_forms():
    # Y_10, Y_11 and Y_1-1 are sqrt(3 / 4 pi) times z, x and y
    v = unit_vectors(np.array([0.7]), np.array([1.3]))
    norm = math.sqrt(3.0 / (4.0 * PI))
    for m, coordinate in ((0, 2), (1, 0), (-1, 1)):
        assert real_spherical_harmonic(1, m, v[2], v[:2]) == pytest.approx(
            norm * v[coordinate], rel=1e-15
        )
    assert real_spherical_harmonic(1, 0, v[2]) == pytest.approx(norm * math.cos(0.7))


def _oracle_points():
    """cos(polar) x and azimuth phi, and the points' (x, y) coordinates."""
    rng = np.random.default_rng(8)
    x = np.concatenate(
        (rng.uniform(-1.0, 1.0, 400), [1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12)])
    )
    phi = rng.uniform(0.0, 2 * PI, x.size)
    rho = np.sqrt((1.0 - x) * (1.0 + x))
    return x, phi, (rho * np.cos(phi), rho * np.sin(phi))


def test_rows_match_the_per_term_formula():
    # every (l, m) with l <= 15 from one recurrence, against lpmv term by
    # term at random points, both poles and next to them
    x, phi, xy = _oracle_points()
    modes = [(l, m) for l in range(16) for m in range(-l, l + 1)]
    rows = list(harmonic_rows(modes, x, xy))
    assert [(l, m) for l, m, _ in rows] == modes
    for l, m, row in rows:
        assert np.max(np.abs(row - oracle_harmonic(l, m, x, phi))) <= 1e-13, (l, m)


def test_rows_come_degree_by_degree_for_any_request_order():
    x, phi, xy = _oracle_points()
    asked = [(5, -2), (1, 1), (3, 0), (1, 1), (1, -1)]
    got = list(harmonic_rows(asked, x, xy))
    assert [(l, m) for l, m, _ in got] == [(1, -1), (1, 1), (3, 0), (5, -2)]
    with pytest.raises(ValueError):
        list(harmonic_rows([(3, 4)], x, xy))
    with pytest.raises(ValueError):
        list(harmonic_rows([(3, 1)], x))  # m != 0 needs x and y
    ((_, _, row),) = harmonic_rows([(3, 0)], x)
    assert np.array_equal(row, got[2][2])
    assert real_spherical_harmonic(3, -2, x, xy) == pytest.approx(
        oracle_harmonic(3, -2, x, phi), abs=1e-13
    )


def test_amplitude_sums_the_terms_in_any_order():
    # out of degree order, a repeated mode and a zero coefficient: the
    # rows that arrive early wait for their term
    terms = ((5, -3, 0.2), (1, 0, 0.4), (3, 2, -0.7), (1, 0, 0.25), (3, -1, 0.0))
    h = HarmonicColouring(terms)
    x, phi, xy = _oracle_points()
    eps = np.arccos(x)
    expected = sum(c * oracle_harmonic(l, m, np.cos(eps), phi) for l, m, c in terms)
    amplitude = h.amplitude_vectors(unit_vectors(eps, phi))
    assert np.max(np.abs(amplitude - expected)) <= 1e-13
    with pytest.raises(ValueError):
        h.amplitude_from_rows(harmonic_rows([(1, 0), (3, 2)], x, xy))


def test_harmonic_values_from_vectors_and_cosines():
    h = HarmonicColouring(((3, 2, 1.0), (1, 0, 0.5), (5, -1, -0.3)))
    rng = np.random.default_rng(12)
    eps = np.arccos(rng.uniform(-1.0, 1.0, 2000))
    phi = rng.uniform(0.0, 2 * PI, 2000)
    v = unit_vectors(eps, phi)
    signs = np.where(h.amplitude_vectors(v) >= 0.0, 1, -1)
    assert np.array_equal(h.evaluate_vectors(v), signs)
    assert np.array_equal(Negated(h).evaluate_vectors(v), -signs)
    with pytest.raises(ValueError):
        h.evaluate_cos(v[2])
    # an m = 0 colouring reads cos(polar) alone, with the drift check
    z = HarmonicColouring(((3, 0, 1.0), (1, 0, 0.4)))
    for c in (z, Negated(z)):
        assert np.array_equal(c.evaluate_cos(v[2]), c.evaluate_vectors(v))
        assert np.array_equal(c.evaluate_cos(np.cos(eps)), c.evaluate_polar(eps))
        assert np.array_equal(
            c.evaluate_cos(np.array([1.0 + 1e-9])), c.evaluate_polar(np.array([0.0]))
        )
        with pytest.raises(NumericalError):
            c.evaluate_cos(np.array([0.3, 1.5]))


class TestNegation:
    def test_label_and_values(self):
        c = make_catalogue(3)
        n = negate(c)
        assert n.label == "-3"
        eps = np.linspace(0, PI, 50)
        assert np.array_equal(n.evaluate_cos(np.cos(eps)), -c.evaluate_cos(np.cos(eps)))
        v = unit_vectors(eps, np.zeros(50))
        assert np.array_equal(n.evaluate_vectors(v), -c.evaluate_vectors(v))

    def test_double_negation_unwraps(self):
        c = make_catalogue(3)
        assert negate(negate(c)) is c

    def test_pair_anticorrelated(self):
        pair = ColouringPair.anticorrelated(make_catalogue(2))
        assert isinstance(pair.bob, Negated)


class TestCheckAntipodal:
    def test_catalogue_families_pass(self):
        rng = np.random.default_rng(31)
        for label in catalogue_labels():
            report = check_antipodal(make_catalogue(label), 2000, rng)
            assert report.n_violations == 0

    def test_negated_colouring_passes(self):
        rng = np.random.default_rng(31)
        report = check_antipodal(negate(make_catalogue(3)), 2000, rng)
        assert report.n_violations == 0

    def test_harmonic_colouring_passes(self):
        rng = np.random.default_rng(37)
        h = HarmonicColouring(((3, 2, 1.0), (1, 0, 0.5), (5, -1, -0.3)))
        report = check_antipodal(h, 2000, rng)
        assert report.n_violations == 0

    def test_broken_colouring_fails_everywhere(self):
        rng = np.random.default_rng(41)
        whole_sphere_plus = BandColouring(((0.0, PI / 2), (PI / 2, PI)))
        report = check_antipodal(whole_sphere_plus, 2000, rng)
        assert report.violation_fraction == 1.0

    def test_moved_flip_fails_on_the_mismatched_strips(self):
        # moving the flip pi/6 to pi/6 + w leaves the strips (pi/6, pi/6 + w)
        # and their antipodes both plus: together a fraction cos(pi/6) -
        # cos(pi/6 + w) of the sphere
        w = 1e-3
        moved = BandColouring(((0.0, PI / 6 + w), (PI / 3, PI / 2), (2 * PI / 3, 5 * PI / 6)))
        n = 400_000
        report = check_antipodal(moved, n, np.random.default_rng(43))
        p = math.cos(PI / 6) - math.cos(PI / 6 + w)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(report.violation_fraction - p) <= 4.0 * sigma

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            check_antipodal(make_catalogue(1), 0, np.random.default_rng(1))


def _flip_rule_accepts(c):
    try:
        _flips_of(c)
    except ValueError as exc:
        assert "not antipodal" in str(exc)
        return False
    return True


class TestAntipodalFlipRule:
    """``_flips_of`` checks antipodality on the flip record: an odd
    number of flips, each pair f_i + f_(K-1-i) within 1e-9 of pi.  It
    must accept and reject exactly as the midpoint pass it replaced."""

    @staticmethod
    def assert_agrees(c):
        for colouring in (c, Negated(c)):
            assert _flip_rule_accepts(colouring) == midpoint_is_antipodal(colouring)

    @given(
        gaps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=7),
        north_value=st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_band_sets(self, gaps, north_value):
        # edges at least 1e-6 apart: a sliver band narrower than 1e-9 is
        # where the two rules part (see test_sliver_band_is_rejected)
        flips = [e for e in np.cumsum(gaps).tolist() if e < PI - 1e-3]
        if flips:
            self.assert_agrees(_bands_from_flips(flips, north_value))

    @given(
        north_flips=st.lists(
            st.floats(0.01, 1.56), max_size=4, unique_by=lambda x: round(x, 2)
        ),
        north_value=st.sampled_from([1, -1]),
        split=st.booleans(),
        moved=st.integers(0, 7),
        shift=st.sampled_from([0.0, 1e-12, 5e-10, 2e-9, 1e-6]),
        sign=st.sampled_from([1, -1]),
        equator=st.booleans(),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_perturbed_antipodal_band_sets(
        self, north_flips, north_value, split, moved, shift, sign, equator
    ):
        flips = _antipodal_flips(north_flips)
        if not equator:
            # an even number of symmetric flips: c(pi - x) = c(x)
            flips.remove(PI / 2)
        assume(flips or north_value > 0)
        # one flip moves, never the equator's: it pairs with itself, so
        # a shift of 5e-10 would put both rules at their 1e-9 tolerance
        off_equator = [k for k, v in enumerate(flips) if v != PI / 2]
        if off_equator:
            k = off_equator[moved % len(off_equator)]
            flips[k] += sign * shift
        self.assert_agrees(_bands_from_flips(flips, north_value, split))

    @given(
        coefficients=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4).filter(any)
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_azimuthal_harmonics(self, coefficients):
        terms = tuple((2 * k + 1, 0, c) for k, c in enumerate(coefficients))
        self.assert_agrees(HarmonicColouring(terms))

    def test_subnormal_top_coefficient(self):
        # its ratio to the dipole's overflowed the companion matrix of
        # legroots, which raised LinAlgError
        h = HarmonicColouring(((1, 0, 1.0), (3, 0, 2.225073858507e-311)))
        assert h.flips == (1, (PI / 2,))
        assert _flip_rule_accepts(h)

    def test_sliver_band_is_rejected(self):
        # a plus band of width 5e-10 in the south has no mirror: the
        # midpoint pass merged its edges and stepped over it, the flip
        # rule sees three flips that are not symmetric about pi/2
        sliver = BandColouring(((0.0, PI / 2), (2.0, 2.0 + 5e-10)))
        assert midpoint_is_antipodal(sliver)
        assert not _flip_rule_accepts(sliver)


class TestCircleColouring:
    def test_half_circle_values(self):
        assert circle_colouring_value(1, PI / 2) == 1
        assert circle_colouring_value(1, 3 * PI / 2) == -1

    def test_three_arc_value(self):
        assert circle_colouring_value(3, 0.4 * PI) == -1

    def test_even_arc_count_rejected(self):
        with pytest.raises(ValueError):
            circle_colouring_value(2, 0.1)
        with pytest.raises(ValueError):
            circle_colouring_value(-3, 0.1)

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            circle_colouring_value(3, 2 * PI + 0.2)

    @given(
        n=st.sampled_from([1, 3, 5, 7, 9]),
        eps=st.floats(1e-6, PI - 1e-6),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_dimensional_antipodality(self, n, eps):
        # stay away from the arc boundaries where the colour convention flips
        if min(abs(n * eps / PI - round(n * eps / PI)), 1.0) < 1e-9:
            return
        assert circle_colouring_value(n, eps + PI) == -circle_colouring_value(n, eps)


class TestSerialization:
    def test_catalogue_spec(self):
        c = colouring_from_spec({"kind": "catalogue", "label": "3_delta", "delta": -0.04})
        assert isinstance(c, BandColouring)
        assert c.plus_bands[0][1] == pytest.approx(PI / 6 - 0.04 * PI)

    def test_band_spec_in_pi_units(self):
        c = colouring_from_spec(
            {"kind": "bands", "bands": [[0.0, 0.25], [0.5, 0.75]], "label": "steps"}
        )
        assert c.label == "steps"
        assert c.plus_bands == ((0.0, PI / 4), (PI / 2, 3 * PI / 4))

    def test_harmonic_spec(self):
        c = colouring_from_spec({"kind": "harmonic", "terms": [[3, -2, 0.5]]})
        assert isinstance(c, HarmonicColouring)
        assert c.terms == ((3, -2, 0.5),)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            colouring_from_spec({"kind": "stripes"})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "catalogue", "label": "2"}))
        c = load_colouring(str(path))
        assert c.label == "2"
