"""Tests for composition and inversion of diffeomorphisms."""

import numpy as np
import pytest

from bfamily.diffeo import (
    Diffeomorphism,
    compose_field,
    evaluate_field,
    from_displacement,
    identity,
    invert,
)
from bfamily.errors import InversionError, PositivityError
from bfamily.spectral import Field, hs_norm, make_grid


def random_smooth_field(grid, rng, n_modes=6, scale=1.0):
    """Band-limited random field with decaying mode amplitudes."""
    v = np.zeros(grid.n_points)
    for k in range(1, n_modes + 1):
        xi = np.pi * k / grid.half_length
        v += rng.randn() / k**2 * np.cos(xi * grid.x + rng.uniform(0, 2 * np.pi))
    return Field(grid, scale * v)


def random_small_diffeo(grid, rng, scale=0.08):
    return from_displacement(random_smooth_field(grid, rng, scale=scale))

class TestConstruction:
    def test_positivity_enforced(self):
        g = make_grid(np.pi, 64)
        steep = Field(g, -1.2 * np.sin(g.x))  # phi_x dips to -0.2
        with pytest.raises(PositivityError):
            from_displacement(steep)

    def test_periodicity_identity(self):
        g = make_grid(np.pi, 64)
        phi = from_displacement(Field(g, 0.3 * np.sin(g.x)))
        pts = np.array([0.3, -1.1, 2.0])
        assert np.allclose(phi(pts + 2 * np.pi), phi(pts) + 2 * np.pi, atol=1e-12)


class TestComposeField:
    def test_identity_leaves_field(self):
        g = make_grid(20, 128)
        rng = np.random.RandomState(0)
        f = random_smooth_field(g, rng)
        got = compose_field(f, identity(g))
        assert np.max(np.abs(got.values - f.values)) < 1e-12

    def test_grid_aligned_shift_is_circular(self):
        g = make_grid(20, 128)
        rng = np.random.RandomState(1)
        f = random_smooth_field(g, rng)
        c = 5 * g.spacing
        got = compose_field(f, from_displacement(Field(g, np.full(128, c))))
        want = np.roll(f.values, -5)  # g(x + 5h) shifts samples left
        assert np.max(np.abs(got.values - want)) < 5e-12

    def test_direct_pointwise_oracle(self):
        g = make_grid(np.pi, 64)
        f = Field.from_function(g, np.sin)
        phi = from_displacement(Field(g, 0.3 * np.sin(g.x)))
        got = compose_field(f, phi)
        want = np.sin(g.x + 0.3 * np.sin(g.x))
        assert np.max(np.abs(got.values - want)) < 1e-8


class TestInvert:
    def test_identity(self):
        g = make_grid(20, 64)
        inv = invert(identity(g))
        assert np.max(np.abs(inv.displacement.values)) < 1e-12

    def test_shift(self):
        g = make_grid(20, 64)
        # +-100.37 is 2.5 periods: the roots lie in other periods
        cases = [(g, c) for c in (0.37, -0.37, 100.37, -100.37)]
        # whole-cell shifts put every target on a sample; for these, some
        # targets moved by whole periods round just below phi(x_0) or onto
        # the wrap value phi(x_0) + 2L
        g_pi = make_grid(np.pi, 64)
        cases += [(g_pi, m * g_pi.spacing) for m in (1, -4, -7, 68, 83, 94)]
        for grid, c in cases:
            inv = invert(from_displacement(Field(grid, np.full(64, c))))
            assert np.allclose(inv.displacement.values, -c, atol=1e-11)

    def test_defining_equation_residual(self):
        g = make_grid(20, 256)
        rng = np.random.RandomState(5)
        for _ in range(4):
            phi = random_small_diffeo(g, rng)
            inv = invert(phi)
            resid = phi(inv.positions()) - g.x
            assert np.max(np.abs(resid)) <= 1e-10
        # steep maps: min phi_x is 1 - d, i.e. 0.5 and 0.05
        g = make_grid(20, 2048)
        xi = 3 * np.pi / g.half_length
        for d in (0.5, 0.95):
            phi = from_displacement(Field(g, 0.3 + d / xi * np.sin(xi * g.x)))
            inv = invert(phi)
            resid = phi(inv.positions()) - g.x
            assert np.max(np.abs(resid)) <= 1e-10

    def test_non_increasing_samples_rejected(self):
        # the Nyquist sawtooth has spectral phi_x = 1, yet its samples decrease
        g = make_grid(20, 64)
        phi = from_displacement(Field(g, g.spacing * (-1.0) ** np.arange(64)))
        assert np.min(phi.phi_x) > 0.5
        with pytest.raises(InversionError, match="not increasing"):
            invert(phi)

    def test_unresolved_inverse_rejected(self):
        # min phi_x 0.001: Newton converges pointwise, but the inverse is too
        # steep for the grid and its spectral derivative goes negative
        g = make_grid(20, 2048)
        xi = 3 * np.pi / g.half_length
        phi = from_displacement(Field(g, 0.3 + 0.999 / xi * np.sin(xi * g.x)))
        with pytest.raises(InversionError) as err:
            invert(phi)
        assert "inverse is not resolved on the grid" in str(err.value)
        assert "-3.314e+00" in str(err.value)

    def test_margin_violation(self):
        g = make_grid(np.pi, 128)
        # phi_x reaches ~1e-9 at the trough: constructible but not invertible
        phi = from_displacement(Field(g, -(1.0 - 1e-9) * np.sin(g.x)))
        with pytest.raises(PositivityError):
            invert(phi)


class TestEmpiricalLipschitzConstants:
    """Appendix-style ratio protocols: constants are reported, not pinned."""

    def test_composition_lipschitz_ratio_bounded(self):
        s = 2.0
        g = make_grid(20, 256)
        rng = np.random.RandomState(8)
        ratios = []
        for _ in range(100):
            f = random_smooth_field(g, rng)
            phi1 = random_small_diffeo(g, rng, scale=0.05)
            phi2 = random_small_diffeo(g, rng, scale=0.05)
            num = hs_norm(compose_field(f, phi1) - compose_field(f, phi2), s - 2)
            den = hs_norm(f, s - 1) * hs_norm(
                phi1.displacement - phi2.displacement, s - 1
            )
            if den > 1e-12:
                ratios.append(num / den)
        top = max(ratios)
        print(f"\ncomposition Lipschitz ratio: max {top:.4f} over {len(ratios)} triples")
        assert np.isfinite(top) and top < 1e2

    def test_inversion_lipschitz_ratio_bounded(self):
        s = 2.0
        g = make_grid(20, 256)
        rng = np.random.RandomState(9)
        ratios = []
        for _ in range(100):
            phi1 = random_small_diffeo(g, rng, scale=0.05)
            phi2 = random_small_diffeo(g, rng, scale=0.05)
            num = hs_norm(
                invert(phi1).displacement - invert(phi2).displacement, s - 1
            )
            den = hs_norm(phi1.displacement - phi2.displacement, s)
            if den > 1e-12:
                ratios.append(num / den)
        top = max(ratios)
        print(f"\ninversion Lipschitz ratio: max {top:.4f} over {len(ratios)} pairs")
        assert np.isfinite(top) and top < 1e2

    def test_pushforward_norm_equivalence(self):
        s, b = 2.0, 2.0
        g = make_grid(20, 256)
        rng = np.random.RandomState(10)
        phi = random_small_diffeo(g, rng, scale=0.05)
        inv = invert(phi)
        ratios = []
        for _ in range(100):
            y = random_smooth_field(g, rng, n_modes=10)
            pushed = compose_field(
                Field(g, y.values / phi.phi_x**b), inv
            )
            ratios.append(hs_norm(pushed, s - 2) / hs_norm(y, s - 2))
        c = max(max(ratios), 1.0 / min(ratios))
        print(f"\npushforward norm equivalence constant: {c:.4f}")
        assert np.isfinite(c) and c < 1e2
