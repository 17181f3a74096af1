import cmath
import math

import numpy as np
import pytest

import oracles
from vvlf import forms, lfunction as lf


def test_functional_equation_fixed_point(delta):
    # s = 6 is the symmetry center: both sides are the same expression
    assert lf.functional_equation_residual(delta, 6.0) < 1e-14


def test_functional_equation_off_center(delta):
    assert lf.functional_equation_residual(delta, 4 + 2j) < 1e-9


def test_functional_equation_grid(delta):
    worst = max(
        lf.functional_equation_residual(delta, complex(sig, t))
        for sig in (4, 5, 6, 7, 8)
        for t in (-2, -1, 0, 1, 2)
    )
    assert worst < 1e-9


def test_functional_equation_all_builtin(scalar_forms):
    # t = 0.4 instead of 0: for k = 2 mod 4 the sign is -1 and L*(k/2) = 0
    # exactly, so the relative residual at the center point is 0/0 noise.
    for k, f in scalar_forms.items():
        for sig in np.linspace(k / 2 - 2, k / 2 + 2, 5):
            for t in (-2.0, -1.0, 0.4, 1.0, 2.0):
                assert lf.functional_equation_residual(f, complex(sig, t)) < 1e-9, (k, sig, t)


def test_dirichlet_series_oracle_large_re(delta):
    val = lf.completed_L(delta, 30.0)
    ours = val.value[0] * (2 * math.pi) ** 30 / math.gamma(30)
    ref = oracles.dirichlet_l(delta.coeffs[0], 30.0)
    assert abs(ours - ref) < 1e-12 * abs(ref)
    assert abs(ours - 0.99999997765) < 1e-9  # three-term magnitude check


def test_derivative_zero_at_center(delta):
    d1 = lf.completed_L(delta, 6.0, order=1)
    l0 = lf.completed_L(delta, 6.0)
    assert abs(d1.value[0]) < 1e-9 * abs(l0.value[0])


def test_derivative_matches_finite_differences(delta):
    rng = np.random.default_rng(13)
    h = 1e-3
    for _ in range(20):
        s = complex(rng.uniform(3, 9), rng.uniform(-2, 2))
        for order in (1, 2):
            lo = lf.completed_L(delta, s - h, order=order - 1).value[0]
            hi = lf.completed_L(delta, s + h, order=order - 1).value[0]
            mid = lf.completed_L(delta, s, order=order - 1).value[0]
            # one Richardson step on the central difference
            fd = (hi - lo) / (2 * h)
            an = lf.completed_L(delta, s, order=order).value[0]
            assert abs(fd - an) < 1e-5 * max(abs(an), 1e-12), (s, order)


def test_linearity(delta, scalar_forms):
    g = delta.scaled(0.5 - 2j)
    combo = forms.linear_combination([(2.0, delta), (1.0, g)])
    s = 5.2 + 0.7j
    lhs = lf.completed_L(combo, s).value[0]
    rhs = 2.0 * lf.completed_L(delta, s).value[0] + lf.completed_L(g, s).value[0]
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_entire_continuation_analyticity(delta):
    # finite values and a clean complex-quartic local fit across the strip
    for sig in (-2.0, 0.0, 3.0, 6.0, 11.0, 14.0):
        center = complex(sig, 0.4)
        hs = 0.1 * np.exp(2j * np.pi * np.arange(12) / 12)
        vals = np.array([lf.completed_L(delta, center + h).value[0] for h in hs])
        assert np.isfinite(vals).all()
        vander = np.vander(hs, 5, increasing=True)
        coef, *_ = np.linalg.lstsq(vander, vals, rcond=None)
        resid = np.abs(vander @ coef - vals).max()
        assert resid < 1e-6 * max(np.abs(vals).max(), 1e-12), sig


def test_rejects_non_cusp_and_high_order(delta):
    th = forms.theta_vector_expansion(1, 100)
    with pytest.raises(ValueError):
        lf.completed_L(th, 2.0)
    with pytest.raises(ValueError):
        lf.completed_L(delta, 5.0, order=6)


def test_tail_bound_reported(delta):
    val = lf.completed_L(delta, 5.0)
    assert 0 <= val.tail_bound < 1e-50


# ----------------------------------------------------------------------
# vector-valued: theta-decomposed fixture at weight 19/2
# ----------------------------------------------------------------------


def test_functional_equation_vector_fixture(jacobi_decomposed):
    k = jacobi_decomposed.weight
    for t in (0.0, 1.0):
        s = complex(k / 2.0, t)
        assert lf.functional_equation_residual(jacobi_decomposed, s) < 1e-7


def test_partial_l_zero_component():
    act = forms.weil_action(1, 10) if hasattr(forms, "weil_action") else None
    from vvlf.modular_group import weil_action

    f = forms.FourierExpansion(weil_action(1, 10), ({}, {1: 7}), 5)
    assert lf.partial_L(f, 1, 3.0) == 0


def test_partial_l_component_range(jacobi_decomposed):
    with pytest.raises(ValueError):
        lf.partial_L(jacobi_decomposed, 3, 5.0)


def test_plus_space_partial_l_scaling(jacobi_decomposed):
    # 4^s L(f, j, s) = L(F, j, s): plus-space integer normalization vs the
    # fractional Jacobi normalization, exact termwise.
    pf = forms.plus_space_map(jacobi_decomposed)
    rng = np.random.default_rng(29)
    k = 10
    for _ in range(10):
        s = complex(rng.uniform(k / 2, k / 2 + 3), rng.uniform(-2, 2))
        for j in (1, 2):
            jac_side = lf.partial_L(jacobi_decomposed, j, s, normalization="fractional")
            plus_side = lf.plus_partial_L(pf, j, s)
            lhs = (4.0 ** s) * plus_side
            assert abs(lhs - jac_side) < 1e-10 * max(abs(jac_side), 1e-30), (s, j)


def test_partial_l_sums_to_full_plus_l(jacobi_decomposed):
    pf = forms.plus_space_map(jacobi_decomposed)
    s = 9 + 1j
    total = lf.plus_partial_L(pf, 1, s) + lf.plus_partial_L(pf, 2, s)
    direct = sum(complex(v) * cmath.exp(-s * math.log(n)) for n, v in pf.coeffs.items() if n > 0)
    assert abs(total - direct) < 1e-12 * abs(direct)


def test_partial_l_normalization_conversion(jacobi_decomposed):
    s = 8.5 - 0.3j
    frac = lf.partial_L(jacobi_decomposed, 2, s, normalization="fractional")
    integer = lf.partial_L(jacobi_decomposed, 2, s, normalization="integer")
    assert abs(integer - frac * 4.0 ** (-s)) < 1e-12 * abs(frac)


# ----------------------------------------------------------------------
# grid route vs the per-point oracle
# ----------------------------------------------------------------------


def _grid_vs_points(f, s_list):
    s = np.array(s_list, dtype=complex)
    for order in range(6):
        grid = lf.completed_L_grid(f, s, order)
        assert grid.values.shape == (len(s), f.dim)
        for q, z in enumerate(s):
            ref = lf.completed_L(f, z, order)
            diff = np.abs(grid.values[q] - ref.value).max()
            assert diff <= 1e-12 * np.abs(ref.value).max(), (z, order)
            assert diff <= grid.error[q] + grid.tail_bound[q], (z, order)
            assert grid.tail_bound[q] == ref.tail_bound


def test_grid_matches_per_point_scalar(delta):
    # strip 1 < sigma < 11; -3, 0.5, 14, 30 and -2 + 3i lie outside it
    _grid_vs_points(delta, [-3.0, 0.5, 4.25, 7.5, 14.0, 30.0, 2.5 + 1.5j, 6.0 + 0.7j, -2.0 + 3.0j, 13.0 - 2.0j])


def test_grid_matches_per_point_weil(jacobi_decomposed):
    # k = 19/2: strip 1 < sigma < 8.5
    _grid_vs_points(jacobi_decomposed, [-3.0, 0.5, 3.5, 6.1, 12.0, 25.0, 2.0 + 1.0j, 4.75 + 0.4j, -1.5 + 2.5j, 11.0 - 1.5j])


def test_grid_raises_when_check_fails(delta, monkeypatch):
    monkeypatch.setattr(lf, "_GRID_TOL", 1e-30)
    with pytest.raises(lf.GridAccuracyError):
        lf.completed_L_grid(delta, [5.0, 6.0 + 1.0j])


def test_grid_rejects_bad_input(delta):
    th = forms.theta_vector_expansion(1, 100)
    with pytest.raises(ValueError):
        lf.completed_L_grid(th, [2.0])
    with pytest.raises(ValueError):
        lf.completed_L_grid(delta, [5.0], order=6)
    with pytest.raises(ValueError):
        lf.completed_L_grid(delta, [])
