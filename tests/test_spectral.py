"""Tests for the periodic grid, FFT operators, and Sobolev norms."""

import numpy as np
import pytest
from helpers import (
    dealiased_product,
    helmholtz_inverse,
    homogeneous_hs_norm,
    slobodeckij_seminorm,
)

from bfamily.errors import GridError
from bfamily.spectral import Field, derivative, hs_norm, make_grid


def gaussian(amp, width, center=0.0):
    return lambda x: amp * np.exp(-(((x - center) / width) ** 2))


def mollifier(radius, center=0.0):
    def fn(x):
        t = (x - center) / radius
        out = np.zeros_like(x)
        inside = np.abs(t) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out

    return fn


def mollifier_derivative(radius, center=0.0):
    # compactly supported with zero mean: the k = 0 mode carries no weight,
    # so the dilation law is clean of the |xi|^{2s} quadrature kink at 0
    def fn(x):
        t = (x - center) / radius
        out = np.zeros_like(x)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = (
            np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2) / radius
        )
        return out

    return fn


class TestMakeGrid:
    def test_spacing_small(self):
        g = make_grid(np.pi, 16)
        assert g.spacing == pytest.approx(2 * np.pi / 16, rel=1e-15)
        assert g.x[0] == pytest.approx(-np.pi)
        assert g.x[-1] == pytest.approx(np.pi - g.spacing)

    def test_spacing_default_scale(self):
        g = make_grid(20, 1024)
        assert g.spacing == pytest.approx(40 / 1024, rel=1e-15)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            make_grid(20, 1000)

    def test_rejects_small_or_bad_inputs(self):
        with pytest.raises(GridError):
            make_grid(20, 8)
        with pytest.raises(GridError):
            make_grid(-1.0, 64)
        with pytest.raises(GridError):
            make_grid(0.0, 64)


class TestDerivative:
    def test_single_mode_exact(self):
        g = make_grid(np.pi, 16)
        f = Field(g, np.sin(g.x))
        df = derivative(f, 1)
        assert np.max(np.abs(df.values - np.cos(g.x))) < 1e-12

    def test_constant_all_orders(self):
        g = make_grid(20, 64)
        f = Field(g, np.full(64, 3.7))
        for k in (1, 2, 3):
            assert np.max(np.abs(derivative(f, k).values)) < 1e-12

    def test_gaussian_second_derivative_fd_oracle(self):
        # centered finite differences converge at O(h^2) to the spectral value
        errs = []
        for n in (256, 512):
            g = make_grid(20, n)
            f = Field(g, gaussian(1.0, 2.0)(g.x))
            spec = derivative(f, 2).values
            v = f.values
            fd = (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / g.spacing**2
            errs.append(np.max(np.abs(spec - fd)))
        ratio = errs[0] / errs[1]
        assert 3.3 < ratio < 4.7

    def test_composition_matches_second_order(self):
        g = make_grid(20, 256)
        f = Field(g, gaussian(1.0, 2.0)(g.x))
        twice = derivative(derivative(f, 1), 1)
        direct = derivative(f, 2)
        denom = np.max(np.abs(direct.values))
        assert np.max(np.abs(twice.values - direct.values)) <= 1e-10 * denom

    def test_rejects_bad_order(self):
        g = make_grid(20, 64)
        f = Field.zeros(g)
        with pytest.raises(ValueError):
            derivative(f, 4)
        with pytest.raises(ValueError):
            derivative(f, 0)


def helmholtz_quadrature_oracle(grid, fn, images=6, order=240):
    """Convolution with the periodized Green's function (1/2)exp(-|x|).

    Gauss-Legendre quadrature on the two pieces of [-L, L] separated by the
    kernel kink at y = x; completely independent of the FFT pipeline.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    L = grid.half_length

    def kernel(d):
        acc = np.zeros_like(d)
        for m in range(-images, images + 1):
            acc += 0.5 * np.exp(-np.abs(d - 2 * L * m))
        return acc

    out = np.empty(grid.n_points)
    for j, xj in enumerate(grid.x):
        acc = 0.0
        for a, b in ((-L, xj), (xj, L)):
            if b - a <= 0:
                continue
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights
            acc += float(np.sum(w * kernel(xj - y) * fn(y)))
        out[j] = acc
    return out


class TestHelmholtzInverse:
    def test_cosine_eigenfunction(self):
        g = make_grid(np.pi, 32)
        for k in (1, 2, 5):
            f = Field(g, np.cos(k * g.x))
            got = helmholtz_inverse(f)
            want = np.cos(k * g.x) / (1 + k**2)
            assert np.max(np.abs(got.values - want)) < 1e-12

    def test_zero(self):
        g = make_grid(20, 64)
        assert np.max(np.abs(helmholtz_inverse(Field.zeros(g)).values)) == 0.0

    def test_gaussian_quadrature_convolution_oracle(self):
        g = make_grid(20, 512)
        fn = gaussian(1.0, 2.0)
        got = helmholtz_inverse(Field(g, fn(g.x))).values
        want = helmholtz_quadrature_oracle(g, fn)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_exact_inverse_of_helmholtz(self):
        g = make_grid(20, 256)
        rng = np.random.RandomState(3)
        f = Field(g, rng.randn(256))
        u = helmholtz_inverse(f)
        resid = u.values - derivative(u, 2).values - f.values
        assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(f.values))


class TestMultiply:
    def test_dealias_zeroes_top_third(self):
        g = make_grid(np.pi, 64)
        rng = np.random.RandomState(5)
        f = Field(g, rng.randn(64))
        h = Field(g, rng.randn(64))
        prod = dealiased_product(f, h)
        spec = np.fft.fft(prod.values)
        k = np.fft.fftfreq(64, d=1.0 / 64)
        assert np.max(np.abs(spec[np.abs(k) > 64 // 3])) < 1e-10

    def test_grid_mismatch(self):
        f = Field.zeros(make_grid(20, 64))
        h = Field.zeros(make_grid(20, 128))
        with pytest.raises(GridError):
            f + h


class TestHsNorm:
    def test_zero_field(self):
        g = make_grid(20, 64)
        for s in (-1.0, 0.0, 2.0):
            assert hs_norm(Field.zeros(g), s) == 0.0

    def test_single_mode_closed_form(self):
        L = np.pi
        g = make_grid(L, 64)
        for k in (1, 3):
            f = Field(g, np.sin(k * g.x))
            for s in (-0.4, 0.0, 0.5, 2.0):
                want = np.sqrt(L * (1 + k**2) ** s)
                assert hs_norm(f, s) == pytest.approx(want, rel=1e-12)

    def test_parseval(self):
        g = make_grid(20, 256)
        rng = np.random.RandomState(1)
        f = Field(g, rng.randn(256))
        l2 = np.sqrt(g.spacing * np.sum(f.values**2))
        assert hs_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_monotone_in_s(self):
        g = make_grid(20, 256)
        rng = np.random.RandomState(2)
        f = Field(g, rng.randn(256))
        values = [hs_norm(f, s) for s in (-1.0, -0.4, 0.0, 0.5, 1.7, 2.0)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(values, values[1:]))


class TestHomogeneousNorm:
    def test_constant_vanishes(self):
        g = make_grid(20, 64)
        f = Field(g, np.full(64, 2.5))
        assert homogeneous_hs_norm(f, 0.7) < 1e-14

    def test_single_mode_closed_form(self):
        L = np.pi
        g = make_grid(L, 64)
        k = 2
        f = Field(g, np.sin(k * g.x))
        for s in (0.5, 1.7):
            assert homogeneous_hs_norm(f, s) == pytest.approx(
                np.sqrt(L * k ** (2 * s)), rel=1e-12
            )

    @pytest.mark.parametrize("s", [0.5, 1.7])
    def test_dilation_scaling_law(self, s):
        # ||f(./lam)||^2 / ||f||^2 = lam^(1-2s) for compact support, lam = 2
        g = make_grid(20, 1024)
        lam = 2.0
        f = Field(g, mollifier_derivative(3.0)(g.x))
        f_lam = Field(g, mollifier_derivative(3.0)(g.x / lam))
        ratio = homogeneous_hs_norm(f_lam, s) ** 2 / homogeneous_hs_norm(f, s) ** 2
        assert ratio == pytest.approx(lam ** (1 - 2 * s), rel=0.01)


class TestFullSpectrumOracle:
    """The real-FFT kernel against a full complex-FFT reference built here."""

    def test_operators_match_full_fft(self):
        n = 256
        g = make_grid(20, n)
        rng = np.random.RandomState(17)
        a, b = rng.randn(n), rng.randn(n)
        k = np.fft.fftfreq(n, d=1.0 / n)  # -N/2..N/2-1 in numpy order
        xi = np.pi * k / g.half_length

        def apply(symbol, v):
            return np.fft.ifft(symbol * np.fft.fft(v)).real

        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        d = 1j * xi
        d[n // 2] = 0.0  # the unpaired Nyquist mode, zeroed at every order
        for order in (1, 2, 3):
            assert rel(derivative(Field(g, a), order).values, apply(d**order, a)) <= 1e-12
        want = apply(1.0 / (1.0 - d**2), a)  # 1 at the Nyquist mode
        assert rel(helmholtz_inverse(Field(g, a)).values, want) <= 1e-12
        mask = (np.abs(k) <= n // 3).astype(float)
        want = apply(mask, apply(mask, a) * apply(mask, b))
        got = dealiased_product(Field(g, a), Field(g, b)).values
        assert rel(got, want) <= 1e-12
        c = np.fft.fft(a) * g.spacing / np.sqrt(2.0 * g.half_length)
        for s in (-0.4, 0.0, 2.0):
            want = np.sqrt(np.sum((1.0 + xi**2) ** s * np.abs(c) ** 2))
            assert hs_norm(Field(g, a), s) == pytest.approx(want, rel=1e-12)


class TestSlobodeckijSeminorm:
    def test_constant_vanishes(self):
        g = make_grid(20, 64)
        f = Field(g, np.full(64, 1.0))
        assert slobodeckij_seminorm(f, 0.5) == 0.0

    def test_ratio_to_homogeneous_norm_stable_under_refinement(self):
        # the two fractional-smoothness measures agree up to a constant
        ratios = []
        for n in (512, 1024, 2048):
            g = make_grid(20, n)
            f = Field(g, gaussian(1.0, 1.0)(g.x))
            ratios.append(slobodeckij_seminorm(f, 0.5) / homogeneous_hs_norm(f, 0.5))
        spread = max(ratios) / min(ratios)
        assert spread < 1.05

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_dilation_scaling_matches_homogeneous_law(self, lam):
        # narrow bump: the slowly decaying pair kernel must not feel the
        # finite cell, which would bias the ratio independently of N
        g = make_grid(20, 1024)
        scale = 2.0
        f = Field(g, mollifier(1.0)(g.x))
        f_scaled = Field(g, mollifier(1.0)(g.x / scale))
        got = slobodeckij_seminorm(f_scaled, lam) / slobodeckij_seminorm(f, lam)
        want = scale ** ((1 - 2 * lam) / 2)
        assert got == pytest.approx(want, rel=0.05)
