import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pheat.constitutive import (DegenerateInput, PLaplaceParams, SingularJacobian,
                                ds_jacobian, equivalence_ratios, phi, phi_change,
                                phi_prime, phi_second, phi_shifted, s_flux, v_transform)

P_VALUES = (1.2, 1.5, 2.0, 3.0, 4.5)
KAPPAS = (0.0, 1e-3, 1.0)

# Frozen from a 6e5-sample pre-build run (per p, over all kappas), 2x margin.
RATIO_BRACKETS = {
    1.2: (0.0574349, 17.411),
    1.5: (0.155452, 6.43285),
    2.0: (0.25, 4.0),
    3.0: (0.0627215, 15.9435),
    4.5: (0.0127753, 78.2762),
}
YOUNG_C = {  # (p, delta) -> frozen C_delta
    (1.2, 0.1): 21.3841, (1.2, 0.5): 3.14317,
    (1.5, 0.1): 9.92756, (1.5, 0.5): 1.48747,
    (2.0, 0.1): 4.99979, (2.0, 0.5): 1.0,
    (3.0, 0.1): 52.5887, (3.0, 0.5): 1.55018,
    (4.5, 0.1): 2883.97, (4.5, 0.5): 6.35395,
}
SHIFT_C = {
    (1.2, 0.1): 5.36665, (1.2, 0.5): 2.76056,
    (1.5, 0.1): 2.91114, (1.5, 0.5): 2.24958,
    (2.0, 0.1): 2.0, (2.0, 0.5): 2.0,
    (3.0, 0.1): 4.58197, (3.0, 0.5): 3.15468,
    (4.5, 0.1): 32.7495, (4.5, 0.5): 12.3937,
}


def sample_vectors(rng, n):
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    v = rng.standard_normal((n, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return scale * v


def test_params_validation():
    with pytest.raises(ValueError):
        PLaplaceParams(p=1.0)
    with pytest.raises(ValueError):
        PLaplaceParams(p=2.0, kappa=-1.0)
    assert PLaplaceParams(p=1.5).p_conjugate == pytest.approx(3.0)


def test_s_flux_examples():
    p2 = PLaplaceParams(p=2.0, kappa=0.0)
    xi = np.array([0.3, -0.7])
    assert np.allclose(s_flux(xi, p2), xi)
    p3 = PLaplaceParams(p=3.0, kappa=0.0)
    assert np.allclose(s_flux(np.array([2.0, 0.0]), p3), [4.0, 0.0])
    p15 = PLaplaceParams(p=1.5, kappa=0.0)
    assert np.allclose(s_flux(np.zeros(2), p15), 0.0)
    assert np.all(np.isfinite(s_flux(np.zeros(2), p15)))


def test_v_transform_examples():
    p3 = PLaplaceParams(p=3.0, kappa=0.0)
    assert np.allclose(v_transform(np.array([4.0, 0.0]), p3), [8.0, 0.0])
    p2 = PLaplaceParams(p=2.0, kappa=0.5)
    xi = np.array([1.0, 2.0])
    assert np.allclose(v_transform(xi, p2), xi)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_p2_flux_and_transform_are_copies_of_the_generic_power(kappa, rng):
    # (kappa + |xi|)^0 is exactly 1, also at 0, inf and nan, so the p = 2
    # shortcut is bitwise the generic (kappa + |xi|)^(p-2) xi
    from pheat.constitutive import _power_factor

    params = PLaplaceParams(p=2.0, kappa=kappa)
    xi = np.vstack([sample_vectors(rng, 20), [[0.0, 0.0], [-0.0, 0.0], [np.inf, 1.0],
                                             [-np.inf, np.inf], [np.nan, 2.0],
                                             [np.nan, np.nan]]])
    generic = _power_factor(np.linalg.norm(xi, axis=-1)[:, None], params, 0.0) * xi
    for fn in (s_flux, v_transform):
        out = fn(xi, params)
        assert np.array_equal(out, generic, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(generic))
        assert not np.shares_memory(out, xi)


def test_v_squared_equals_s_dot_xi(rng):
    xi = sample_vectors(rng, 10_000)
    for p in P_VALUES:
        for kappa in KAPPAS:
            params = PLaplaceParams(p=p, kappa=kappa)
            v2 = np.sum(v_transform(xi, params) ** 2, axis=-1)
            sx = np.sum(s_flux(xi, params) * xi, axis=-1)
            assert np.max(np.abs(v2 - sx) / np.abs(sx)) < 1e-12


@given(x=st.floats(-1e6, 1e6), y=st.floats(-1e6, 1e6),
       p=st.sampled_from(P_VALUES), kappa=st.sampled_from(KAPPAS))
@settings(max_examples=200, deadline=None)
def test_v_identity_property(x, y, p, kappa):
    params = PLaplaceParams(p=p, kappa=kappa)
    xi = np.array([x, y])
    v2 = float(np.sum(v_transform(xi, params) ** 2))
    sx = float(np.sum(s_flux(xi, params) * xi))
    assert v2 == pytest.approx(sx, rel=1e-12, abs=1e-300)


def test_homogeneity_at_zero_shift(rng):
    xi = sample_vectors(rng, 500)
    lams = 10.0 ** rng.uniform(-2, 2, 500)[:, None]
    for p in P_VALUES:
        params = PLaplaceParams(p=p, kappa=0.0)
        s1 = s_flux(lams * xi, params)
        s2 = lams ** (p - 1.0) * s_flux(xi, params)
        assert np.max(np.abs(s1 - s2) / np.maximum(np.abs(s2), 1e-300)) < 1e-12
        v1 = v_transform(lams * xi, params)
        v2 = lams ** (p / 2.0) * v_transform(xi, params)
        assert np.max(np.abs(v1 - v2) / np.maximum(np.abs(v2), 1e-300)) < 1e-12


def test_rotation_equivariance(rng):
    xi = sample_vectors(rng, 200)
    for p in (1.5, 3.0):
        for kappa in KAPPAS:
            params = PLaplaceParams(p=p, kappa=kappa)
            for angle in rng.uniform(0, 2 * np.pi, 5):
                R = np.array([[np.cos(angle), -np.sin(angle)],
                              [np.sin(angle), np.cos(angle)]])
                lhs = s_flux(xi @ R.T, params)
                rhs = s_flux(xi, params) @ R.T
                assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.abs(rhs).max()


def test_ds_jacobian_identity_at_p2(rng):
    params = PLaplaceParams(p=2.0, kappa=0.3)
    for xi in sample_vectors(rng, 10):
        assert np.allclose(ds_jacobian(xi, params), np.eye(2), atol=1e-14)


def test_ds_jacobian_finite_difference(rng):
    delta = 1e-6
    for p in (1.5, 3.0):
        for kappa in (0.0, 1.0):
            params = PLaplaceParams(p=p, kappa=kappa)
            for _ in range(20):
                xi = rng.standard_normal(2)
                xi *= (0.5 + np.abs(xi).max())  # stay away from 0
                J = ds_jacobian(xi, params)
                for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                    fd = (s_flux(xi + delta * e, params)
                          - s_flux(xi - delta * e, params)) / (2 * delta)
                    assert np.max(np.abs(fd - J @ e)) < 1e-4 * max(1.0, np.abs(J @ e).max())


def test_ds_jacobian_eigenvalues_closed_form():
    params = PLaplaceParams(p=1.5, kappa=0.0)
    J = ds_jacobian(np.array([1.0, 0.0]), params)
    eig = np.sort(np.linalg.eigvalsh(J))
    assert np.allclose(eig, [0.5, 1.0], atol=1e-12)


def test_ds_jacobian_spd(rng):
    for p in P_VALUES:
        params = PLaplaceParams(p=p, kappa=0.0)
        for xi in sample_vectors(rng, 50):
            eig = np.linalg.eigvalsh(ds_jacobian(xi, params))
            assert np.all(eig > 0)


def test_ds_jacobian_singular_raise():
    params = PLaplaceParams(p=1.5, kappa=0.0)
    with pytest.raises(SingularJacobian):
        ds_jacobian(np.zeros(2), params, eps_reg=0.0)


def test_ds_jacobian_limit_at_zero_without_regularization():
    # DS(0) = I at p = 2 and 0 for p > 2; no 0/0 between the split's parts
    for p in (2.0, 2.5, 3.0, 4.0):
        J = ds_jacobian(np.zeros(2), PLaplaceParams(p=p), eps_reg=0.0)
        assert np.array_equal(J, np.eye(2) if p == 2.0 else np.zeros((2, 2)))


def test_phi_shifted_closed_forms():
    p2 = PLaplaceParams(p=2.0, kappa=0.7)
    for a in (0.0, 1.3):
        for t in (0.0, 0.4, 2.5):
            assert phi_shifted(a, t, p2) == pytest.approx(t * t / 2, abs=1e-15)
    p3 = PLaplaceParams(p=3.0, kappa=0.0)
    for t in (0.1, 1.0, 4.0):
        assert phi_shifted(0.0, t, p3) == pytest.approx(t ** 3 / 3, rel=1e-14)


def test_phi_direct_path_equals_shifted_at_zero_kappa(rng):
    # kappa = 0 takes t^p / p directly; the shifted form's second term is
    # exactly zero there, so the two agree bitwise, zeros included
    t = np.concatenate([np.zeros(7), 10.0 ** rng.uniform(-8, 3, 5000), [0.0, 1.0]])
    for p in (1.2, 1.5, 3.0, 4.5):
        params = PLaplaceParams(p=p, kappa=0.0)
        assert np.array_equal(phi(t, params), phi_shifted(0.0, t, params))
        assert phi(0.7, params) == phi_shifted(0.0, 0.7, params)
        assert phi(0.0, params) == 0.0


def test_phi_shifted_quadrature_oracle(rng):
    for _ in range(1000):
        p = rng.uniform(1.1, 5.0)
        kappa = rng.choice([0.0, 10.0 ** rng.uniform(-4, 0)])
        a = rng.choice([0.0, 10.0 ** rng.uniform(-3, 2)])
        t = 10.0 ** rng.uniform(-3, 2)
        params = PLaplaceParams(p=p, kappa=kappa)
        exact = phi_shifted(a, t, params)
        num, _ = quad(lambda s: (kappa + a + s) ** (p - 2.0) * s, 0.0, t,
                      limit=200, epsabs=0.0, epsrel=1e-12)
        assert abs(exact - num) < 1e-9 * max(abs(num), 1e-300)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("p", P_VALUES)
def test_phi_change_against_phi(p, kappa, rng):
    params = PLaplaceParams(p=p, kappa=kappa)
    a = np.concatenate([[0.0, 0.0, 1.0], 10.0 ** rng.uniform(-3, 2, 200)])
    change = phi_change(a, params)

    def tolerance(d, ref):
        # for kappa > 0 the two terms of the closed form cancel to about
        # kappa (kappa + a)^(p-2) |d| when a << kappa, as in phi itself
        lo, hi = kappa + np.minimum(a, a + d), kappa + np.maximum(a, a + d)
        second = kappa * np.abs(d) * (lo ** (p - 2.0) + hi ** (p - 2.0)) if kappa else 0.0
        return 1e-13 * (np.abs(ref) + second)

    # d = 0 changes nothing; a + d = 0 and a = 0 (c = 0 at kappa = 0) are
    # the closed form's edge cases
    assert np.array_equal(change(np.zeros_like(a)), np.zeros_like(a))
    assert np.all(np.abs(change(-a) + phi(a, params)) <= tolerance(-a, phi(a, params)))
    d = 10.0 ** rng.uniform(-3, 2, a.shape)
    at_zero = phi_change(np.zeros_like(d), params)(d)
    assert np.all(np.abs(at_zero - phi(d, params)) <= tolerance(d, phi(d, params)))
    # elsewhere the plain difference, with its own cancellation added
    for frac in (-0.999, -0.5, 0.3, 2.0):
        d = frac * a + 1e-3 * (frac > 0)
        plain = phi(a + d, params) - phi(a, params)
        cancel = 1e-14 * (phi(a + d, params) + phi(a, params))
        assert np.all(np.abs(change(d) - plain) <= tolerance(d, plain) + cancel)
    # a change far below phi(a)'s resolution is still resolved: phi'(a) d
    d = 1e-10 * a[2:]
    assert np.allclose(phi_change(a[2:], params)(d), phi_prime(a[2:], params) * d,
                       rtol=1e-8, atol=0.0)


def test_phi_derivative_chain(rng):
    # phi'' is the derivative of phi' (central differences, smooth regime)
    for p in (1.5, 3.0):
        params = PLaplaceParams(p=p, kappa=0.1)
        for t in 10.0 ** rng.uniform(-2, 1, 20):
            h = 1e-6 * max(t, 1.0)
            fd = (phi_prime(t + h, params) - phi_prime(t - h, params)) / (2 * h)
            assert fd == pytest.approx(phi_second(t, params), rel=1e-5)
    # and phi' the derivative of phi
    params = PLaplaceParams(p=2.5, kappa=0.0)
    for t in (0.3, 1.7):
        h = 1e-6
        fd = (phi(t + h, params) - phi(t - h, params)) / (2 * h)
        assert fd == pytest.approx(phi_prime(t, params), rel=1e-8)


def test_equivalence_ratios_p2_closed_form():
    params = PLaplaceParams(p=2.0, kappa=0.0)
    P = np.array([1.0, 2.0])
    Q = np.array([-0.5, 0.3])
    q = equivalence_ratios(P, Q, params)
    d2 = np.sum((P - Q) ** 2)
    assert np.allclose(q, [d2, d2, d2 / 2, d2], rtol=1e-13)


def test_equivalence_degenerate_raises():
    params = PLaplaceParams(p=1.5, kappa=0.0)
    with pytest.raises(DegenerateInput):
        equivalence_ratios(np.array([1.0, 0.0]), np.array([1.0, 0.0]), params)


def test_monotonicity_and_positivity(rng):
    for p in P_VALUES:
        params = PLaplaceParams(p=p, kappa=0.0)
        P = sample_vectors(rng, 10_000)
        Q = sample_vectors(rng, 10_000)
        q = equivalence_ratios(P, Q, params)
        assert np.all(q > 0)


def test_frozen_ratio_brackets():
    rng = np.random.default_rng(12345)
    for p in P_VALUES:
        lo, hi = RATIO_BRACKETS[p]
        for kappa in KAPPAS:
            params = PLaplaceParams(p=p, kappa=kappa)
            P = sample_vectors(rng, 20_000)
            Q = sample_vectors(rng, 20_000)
            q = equivalence_ratios(P, Q, params)
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    r = q[:, i] / q[:, j]
                    assert r.min() >= lo and r.max() <= hi, (p, kappa, i, j)


def test_young_inequality_frozen_constants():
    rng = np.random.default_rng(54321)
    for p in P_VALUES:
        for delta in (0.1, 0.5):
            c_delta = YOUNG_C[(p, delta)]
            for kappa in KAPPAS:
                params = PLaplaceParams(p=p, kappa=kappa)
                P, Q, R = (sample_vectors(rng, 20_000) for _ in range(3))
                lhs = np.sum((s_flux(P, params) - s_flux(Q, params)) * (R - Q), axis=-1)
                vpq = np.sum((v_transform(P, params) - v_transform(Q, params)) ** 2, axis=-1)
                vrq = np.sum((v_transform(R, params) - v_transform(Q, params)) ** 2, axis=-1)
                assert np.all(lhs <= delta * vpq + c_delta * vrq + 1e-14)


def test_shift_change_frozen_constants():
    rng = np.random.default_rng(98765)
    for p in P_VALUES:
        for delta in (0.1, 0.5):
            c_delta = SHIFT_C[(p, delta)]
            for kappa in KAPPAS:
                params = PLaplaceParams(p=p, kappa=kappa)
                A = sample_vectors(rng, 20_000)
                B = sample_vectors(rng, 20_000)
                t = 10.0 ** rng.uniform(-3, 3, 20_000)
                pa = phi_shifted(np.linalg.norm(A, axis=-1), t, params)
                pb = phi_shifted(np.linalg.norm(B, axis=-1), t, params)
                vab = np.sum((v_transform(A, params) - v_transform(B, params)) ** 2, axis=-1)
                assert np.all(pa <= c_delta * pb + delta * vab + 1e-14)
