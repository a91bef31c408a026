"""Profiles: construction, hypothesis validation, arc-chord, ellipsoid constants."""

import numpy as np
import pytest
from scipy import integrate

import qg3d as q
from qg3d.errors import DomainError, GeometryError

PHI = np.linspace(0.0, np.pi, 1001)


class TestMakeProfile:
    def test_sphere_radius(self, sphere):
        assert sphere.r0(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(sphere.r0(PHI), np.sin(PHI))  # the series g = (1,), bitwise

    def test_spheroid_radius(self, spheroid2):
        assert spheroid2.r0(np.pi / 6) == pytest.approx(1.0, rel=1e-14)
        assert np.array_equal(spheroid2.r0(PHI), 2.0 * np.sin(PHI))  # g = (2,)

    def test_tabulated_matches_sphere(self, sphere):
        phi = np.linspace(0.0, np.pi, 201)
        tab = q.make_profile("tabulated", phi=phi, r0=np.sin(phi))
        x = np.linspace(0.05, np.pi - 0.05, 77)
        assert np.max(np.abs(tab.r0(x) - np.sin(x))) < 5e-6

    @pytest.mark.parametrize("g", [[0.5], [1.15, 0.0, -0.15], [1.0, 0.1]])
    def test_series_is_polynomial_in_cos(self, g):
        assert np.array_equal(q.make_profile("series", g=g).r0(PHI), np.sin(PHI) * np.polynomial.Polynomial(g)(np.cos(PHI)))

    @pytest.mark.parametrize("g", [[], [float("nan")], [1.0, float("inf")], [[1.0, 0.1]], None])
    def test_series_coefficients_must_be_finite(self, g):
        with pytest.raises(DomainError, match="finite coefficients"):
            q.make_profile("series", g=g)

    def test_tabulated_bad_endpoints(self):
        phi = np.linspace(0.0, np.pi, 50)
        with pytest.raises(GeometryError):
            q.make_profile("tabulated", phi=phi, r0=np.sin(phi) + 0.1)

    def test_bad_spheroid(self):
        with pytest.raises(DomainError):
            q.make_profile("spheroid", a=-1.0)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_spheroid_semi_axis_must_be_finite_and_positive(self, a):
        with pytest.raises(DomainError, match="finite and > 0"):
            q.make_profile("spheroid", a=a)

    @pytest.mark.parametrize("column", ["phi", "r0"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_tabulated_samples_must_be_finite(self, column, bad):
        # a NaN phi also passes the test np.diff(phi) <= 0 for increasing samples
        samples = {"phi": np.linspace(0.0, np.pi, 50)}
        samples["r0"] = np.sin(samples["phi"])
        samples[column][20] = bad
        with pytest.raises(DomainError, match="finite"):
            q.make_profile("tabulated", **samples)


class TestValidateProfile:
    def test_sphere_passes_any_grid(self, sphere):
        for gs in (16, 64, 333):
            rep = q.validate_profile(sphere, gs)
            assert rep.passed
            assert rep.h2_lo == pytest.approx(1.0, abs=1e-12)
            assert rep.h2_hi == pytest.approx(1.0, abs=1e-12)
            assert rep.sym_defect < 1e-12

    def test_spheroid_ratio(self):
        p = q.make_profile("spheroid", a=3.0)
        rep = q.validate_profile(p, 128)
        assert rep.passed
        assert rep.h2_lo == pytest.approx(3.0, abs=1e-12)
        assert rep.h2_hi == pytest.approx(3.0, abs=1e-12)

    def test_asymmetric_tabulated_fails_h3(self):
        phi = np.linspace(0.0, np.pi, 201)
        r0 = np.sin(phi) * (1.0 + 0.2 * np.cos(phi))
        rep = q.validate_profile(q.make_profile("tabulated", phi=phi, r0=r0), 128)
        assert not rep.h3_ok
        assert not rep.passed

    def test_grid_size_domain(self, sphere):
        with pytest.raises(DomainError):
            q.validate_profile(sphere, 8)


class TestArcChord:
    def test_sphere_bracket(self, sphere):
        c_lo, c_hi = q.arc_chord_constants(sphere, 192)
        # chord ratio of the unit sphere is sinc^2((phi-vphi)/2): range ((2/pi)^2, 1)
        assert 0.40 < c_lo < 0.41
        assert 0.99 < c_hi <= 1.0 + 1e-12

    def test_brute_force_refinement_stable(self, sphere):
        a = q.arc_chord_constants(sphere, 96)
        b = q.arc_chord_constants(sphere, 192)
        assert a[0] == pytest.approx(b[0], rel=0.02)
        assert a[1] == pytest.approx(b[1], rel=0.02)

    def test_spheroid_a1_equals_sphere(self, sphere):
        p1 = q.make_profile("spheroid", a=1.0)
        assert q.arc_chord_constants(p1, 64) == pytest.approx(q.arc_chord_constants(sphere, 64))

    def test_no_nan(self, spheroid2):
        c_lo, c_hi = q.arc_chord_constants(spheroid2, 100)
        assert np.isfinite(c_lo) and np.isfinite(c_hi)


class TestEllipsoidAlphas:
    def test_unit_sphere_values(self):
        al = q.ellipsoid_alphas(1.0)
        assert al.alpha1 == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert al.alpha2 == pytest.approx(1.0 / 6.0, abs=1e-13)
        # constant term of the interior potential (1/6)(|x|^2 - 3)
        assert al.alpha3 == pytest.approx(-0.5, abs=1e-12)

    def test_adaptive_quadrature_oracle(self):
        a = 2.0
        ref1 = integrate.quad(lambda s: 1 / ((a * a + s) ** 2 * np.sqrt(1 + s)), 0, np.inf)[0]
        ref2 = integrate.quad(lambda s: 1 / ((a * a + s) * (1 + s) ** 1.5), 0, np.inf)[0]
        ref3 = -integrate.quad(lambda s: 1 / ((a * a + s) * np.sqrt(1 + s)), 0, np.inf)[0]
        al = q.ellipsoid_alphas(a)
        pref = a * a / 4.0
        assert al.alpha1 == pytest.approx(pref * ref1, rel=1e-9)
        assert al.alpha2 == pytest.approx(pref * ref2, rel=1e-9)
        assert al.alpha3 == pytest.approx(pref * ref3, rel=1e-9)

    def test_closed_form_a2(self):
        assert q.ellipsoid_alphas(2.0).alpha1 == pytest.approx(np.pi / (9 * np.sqrt(3.0)) - 1.0 / 12.0, rel=1e-12)

    def test_kappa_tie_in(self):
        # 2 alpha1(1) = 1/3, the sphere threshold
        assert 2 * q.ellipsoid_alphas(1.0).alpha1 == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            q.ellipsoid_alphas(0.0)


class TestCSV:
    def test_round_trip(self, tmp_path, sphere):
        phi = np.linspace(0.0, np.pi, 101)
        path = tmp_path / "prof.csv"
        lines = ["phi,r0"] + [f"{p:.17g},{np.sin(p):.17g}" for p in phi]
        path.write_text("\n".join(lines) + "\n")
        prof = q.profile_from_csv(path)
        x = np.linspace(0.1, np.pi - 0.1, 31)
        assert np.max(np.abs(prof.r0(x) - np.sin(x))) < 5e-5

    def test_strict_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("angle,radius\n0,0\n")
        with pytest.raises(DomainError):
            q.profile_from_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("phi,r0\n0,0\n1,abc\n")
        with pytest.raises(DomainError):
            q.profile_from_csv(path)
