"""The nonlinear maps of the p-Laplace system and the shifted N-function.

S(xi) = (kappa + |xi|)^(p-2) xi        monotone flux
V(xi) = (kappa + |xi|)^((p-2)/2) xi    quasi-norm transform, |V(xi)|^2 = S(xi).xi

phi(t)   = int_0^t (kappa + s)^(p-2) s ds, the N-function generating S and V;
phi_a(t) = int_0^t (kappa + a + s)^(p-2) s ds, its shift by a >= 0.

All functions are pure and accept arrays with a trailing axis of length 2
(vectors) or scalar arguments for the scalar functions.
"""

from dataclasses import dataclass

import numpy as np


class SingularJacobian(Exception):
    """Flux Jacobian requested at a degenerate point with no regularization."""


class DegenerateInput(Exception):
    """Equivalence quantities need two distinct arguments."""


@dataclass(frozen=True)
class PLaplaceParams:
    """Exponent p in (1, inf) and shift kappa >= 0."""

    p: float
    kappa: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    @property
    def p_conjugate(self):
        return self.p / (self.p - 1.0)


def sq_magnitude(xi):
    """Squared Euclidean length over the trailing axis of length 2.

    Bitwise equal to np.sum(xi * xi, axis=-1), which reduces over the short
    axis several times slower.
    """
    x, y = xi[..., 0], xi[..., 1]
    return x * x + y * y


def magnitude(xi):
    """Euclidean length over the trailing axis of length 2; bitwise equal to
    np.linalg.norm(xi, axis=-1)."""
    return np.sqrt(sq_magnitude(xi))


def _norm(xi):
    return magnitude(xi)[..., None]


def _power_factor(r, params, exponent):
    """(kappa + r)^exponent with a zero-base guard.

    For kappa = 0 and negative exponents the factor is only ever used
    multiplied by xi (magnitude r), and the product has the continuous
    limit 0 at r = 0; the guard keeps the intermediate finite.
    """
    base = params.kappa + r
    out = np.empty_like(base)
    zero = base == 0.0
    np.power(base, exponent, where=~zero, out=out)
    out[zero] = 0.0 if exponent > 0 else 1.0
    return out


def _scaled(xi, params, exponent):
    """(kappa + |xi|)^exponent xi, with the limit 0 at xi = 0 for kappa = 0,
    p < 2; a copy of xi at p = 2, where the factor is pow(kappa + |xi|, 0) = 1
    everywhere, also at 0, inf and nan."""
    if params.p == 2.0:
        return np.array(xi, dtype=float)
    xi = np.asarray(xi, dtype=float)
    r = _norm(xi)
    out = _power_factor(r, params, exponent) * xi
    if params.kappa == 0.0 and params.p < 2.0:
        out = np.where(r == 0.0, 0.0, out)
    return out


def s_flux(xi, params):
    """S(xi) = (kappa + |xi|)^(p-2) xi, continuous at xi = 0 for p > 1."""
    return _scaled(xi, params, params.p - 2.0)


def v_transform(xi, params):
    """V(xi) = (kappa + |xi|)^((p-2)/2) xi; |V(xi)|^2 = S(xi).xi exactly."""
    return _scaled(xi, params, (params.p - 2.0) / 2.0)


def ds_split(xi, params, eps_reg=1e-10):
    """DS(xi) as an isotropic and a rank-one part: DS = iso I + rank (d ox d).

    With a = kappa + max(|xi|, eps_reg):

        iso = a^(p-2),  rank = (p-2) a^(p-3) |xi|,  d = xi / |xi|  (d = 0 at xi = 0).

    Returns (iso (...), rank (...), d (..., 2)) for batched input (..., 2);
    a contraction with these builds no (..., 2, 2) array.
    """
    xi = np.asarray(xi, dtype=float)
    p, kappa = params.p, params.kappa
    r = magnitude(xi)
    if kappa == 0.0 and p < 2.0 and eps_reg == 0.0 and np.any(r == 0.0):
        raise SingularJacobian("DS undefined at xi = 0 for kappa = 0, p < 2 without regularization")
    a = kappa + np.maximum(r, eps_reg)
    iso = a ** (p - 2.0)
    rank = (p - 2.0) * iso * (r / np.where(a == 0.0, 1.0, a))  # a = 0 only at r = 0
    d = xi / np.where(r == 0.0, 1.0, r)[..., None]
    return iso, rank, d


def ds_jacobian(xi, params, eps_reg=1e-10):
    """Derivative of S at xi, regularized near the degenerate point.

    With a = kappa + max(|xi|, eps_reg):

        DS(xi) = a^(p-2) I + (p-2) a^(p-3) |xi| (xi ox xi)/|xi|^2

    (second term zero at xi = 0).  Symmetric positive definite for p > 1
    whenever a > 0.  Works on batched input (..., 2) -> (..., 2, 2); the
    parts come from `ds_split`.
    """
    iso, rank, d = ds_split(xi, params, eps_reg)
    return (iso[..., None, None] * np.eye(2)
            + rank[..., None, None] * d[..., :, None] * d[..., None, :])


def phi(t, params):
    """phi(t) = int_0^t (kappa + s)^(p-2) s ds (t >= 0); t^p / p for kappa = 0,
    bitwise equal to phi_shifted(0, t) there."""
    if params.kappa != 0.0 or params.p == 2.0:
        return phi_shifted(0.0, t, params)
    val = np.asarray(t, dtype=float) ** params.p / params.p
    return val if val.shape else float(val)


def phi_prime(t, params):
    """phi'(t) = (kappa + t)^(p-2) t; phi'(0) = 0 for every p > 1."""
    t = np.asarray(t, dtype=float)
    base = params.kappa + t
    fac = np.ones_like(base)
    zero = base == 0.0
    np.power(base, params.p - 2.0, where=~zero, out=fac)
    fac[zero] = 0.0
    out = fac * t
    return out if out.shape else float(out)


def phi_second(t, params):
    """phi''(t) = (kappa + t)^(p-3) (kappa + (p-1) t).

    At kappa = 0, t = 0 the limit is 0 for p > 2, exactly 1 for p = 2,
    and +inf for p < 2 (the singular case).
    """
    t = np.asarray(t, dtype=float)
    p, kappa = params.p, params.kappa
    base = kappa + t
    zero = base == 0.0
    fac = np.ones_like(base)
    np.power(base, p - 3.0, where=~zero, out=fac)
    out = fac * (kappa + (p - 1.0) * t)
    if np.any(zero):
        limit = 0.0 if p > 2.0 else (1.0 if p == 2.0 else np.inf)
        out = np.where(zero, limit, out)
    return out if out.shape else float(out)


def _pow_diff(c, t, q):
    """(c + t)^q - c^q for c, t >= 0, q > 0, stable for t << c."""
    c, t = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(t, dtype=float))
    shape = c.shape
    c = np.atleast_1d(c)
    t = np.atleast_1d(t)
    out = np.empty(c.shape)
    pos = c > 0.0
    ratio = np.zeros_like(out)
    np.divide(t, c, where=pos, out=ratio)
    out[pos] = c[pos] ** q * np.expm1(q * np.log1p(ratio[pos]))
    out[~pos] = t[~pos] ** q
    return out.reshape(shape)


def phi_shifted(a, t, params):
    """Shifted N-function phi_a(t) = int_0^t (kappa + a + s)^(p-2) s ds.

    Closed two-term power antiderivative, written with expm1/log1p power
    differences so small t against a large shift does not cancel; p = 2
    reduces to t^2/2 exactly.  Nonnegative, convex in t, phi_a(0) = 0.
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    p = params.p
    if p == 2.0:
        shape = np.broadcast_shapes(a.shape, t.shape)
        out = np.broadcast_to(0.5 * t * t, shape)
        return out.copy() if shape else float(out)
    c = params.kappa + a

    # int_c^{c+t} u^(p-2)(u - c) du = D_p/p - c D_(p-1)/(p-1), D_q = (c+t)^q - c^q
    val = _pow_diff(c, t, p) / p - c * _pow_diff(c, t, p - 1.0) / (p - 1.0)
    return val if val.shape else float(val)


def equivalence_ratios(P, Q, params):
    """The four mutually comparable quantities of the equivalence lemma.

    Returns [ (S(P)-S(Q)).(P-Q),
              |V(P)-V(Q)|^2,
              phi_{|P|}(|P-Q|),
              phi''(|P|+|Q|) |P-Q|^2 ]  along the last axis.

    All four are strictly positive for P != Q; their pairwise ratios are
    bounded above and below by constants depending only on p.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = np.linalg.norm(P - Q, axis=-1)
    if np.any(d == 0.0):
        raise DegenerateInput("equivalence quantities need P != Q")
    a1 = np.sum((s_flux(P, params) - s_flux(Q, params)) * (P - Q), axis=-1)
    a2 = np.sum((v_transform(P, params) - v_transform(Q, params)) ** 2, axis=-1)
    nP = np.linalg.norm(P, axis=-1)
    nQ = np.linalg.norm(Q, axis=-1)
    a3 = phi_shifted(nP, d, params)
    a4 = phi_second(nP + nQ, params) * d * d
    return np.stack([a1, a2, a3, a4], axis=-1)
