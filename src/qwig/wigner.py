"""Closed-form squared reduced Wigner coefficients and matrix elements.

Every quantity exists in two computational routes that must agree exactly:
a 'root_product' form built from differences of deformed characteristic
roots, and a 'qnumber_phase' form built from integer q-numbers times a
single power of q.  The lowering side uses the dual roots of the upper
weight, the raising side the adjoint roots; in both cases the shift index
runs over the admissible sets determined by the branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import AdmissibilityError, DegenerateRoots, IndexOutOfRange
from .exactq import ONE, ZERO, QFraction, qnum, qpow
from .superweight import char_roots, deformed_root

__all__ = [
    "CoefficientTable",
    "omega",
    "omega_classical",
    "gamma",
    "mu",
    "omega_coupled",
    "omega_coupled_composite",
    "omega_table",
    "coupled_table",
    "sum_rule_residual",
    "linear_system_residuals",
    "MU_SHIFT_DEFAULT",
]

FORMS = ("root_product", "qnumber_phase")

# Evaluation point of the subalgebra root entering mu.  'shifted' reads it
# at the lower weight moved one step along the shift direction, 'unshifted'
# at the lower weight itself.  The default is fixed by validating the
# squared-matrix-element factorization against the brute-force oracle; the
# unshifted reading is the one that survives (see tests/test_oracle.py).
MU_SHIFT_DEFAULT = "unshifted"


@lru_cache(maxsize=None)
def _root_diff(x, y):
    """The root-product factor deformed(x) - deformed(y)."""
    return deformed_root(x).num - deformed_root(y).num


class _Side:
    """Shared root data for one variant of a branching.

    tau is -1 on the lowering side and +1 on the raising side; the
    deformed-root combination entering every product is
    F_y(x) = deformed(x) - deformed(beta_y), beta_y = alpha0_y - tau s_y,
    equal to q^(-x - beta_y) [x - beta_y]_q.
    Never mutated after construction, so _side shares one per branching.
    """

    def __init__(self, b, variant):
        if variant == "lower":
            self.tau = -1
            self.root_kind = "dual"
            self.K = b.lower_indices()
            self.L = tuple(sorted(b.I0 + b.I1))
            self.even_count = len(b.I0)
        elif variant == "raise":
            self.tau = 1
            self.root_kind = "adjoint"
            self.K = b.raise_indices()
            self.L = tuple(sorted(b.I0bar + b.I1))
            self.even_count = len(b.I0bar)
        else:
            raise ValueError("variant must be 'lower' or 'raise'")
        self.b = b
        self.variant = variant
        sig = b.sig
        self.alpha = dict(
            zip(range(1, sig.d + 1), char_roots(b.lam, self.root_kind))
        )
        self.alpha0 = dict(
            zip(range(1, sig.d), b.sub_roots(self.root_kind))
        )
        self.sign = {i: sig.sign(i) for i in range(1, sig.d + 1)}
        self.n = sig.n
        self.I0_size = len(b.I0)
        vals = [self.alpha[k] for k in self.K]
        self.K_generic = len(set(vals)) == len(vals)

    def F_root(self, x_alpha, ell):
        """F_ell at the deformed root of the exponent x_alpha."""
        return _root_diff(x_alpha, self.beta(ell))

    def F_arg(self, x_alpha, ell):
        """q-number argument of F_ell: x_alpha - alpha0_ell + tau s_ell."""
        return x_alpha - self.alpha0[ell] + self.tau * self.sign[ell]

    def beta(self, ell):
        """Exponent with G(ell) = deformed(beta_ell) absorbing the shift."""
        return self.alpha0[ell] - self.tau * self.sign[ell]

    def require_in_range(self, k):
        d = self.b.sig.d
        if not 1 <= k <= d:
            raise IndexOutOfRange("shift index %d outside 1..%d" % (k, d))

    def require_admissible(self, r):
        if r not in self.L:
            raise AdmissibilityError(
                "index %d not admissible for %s side (need one of %s)"
                % (r, self.variant, self.L)
            )

    def require_K_generic(self):
        if not self.K_generic:
            raise DegenerateRoots(
                "%s roots of %s coincide on the admissible set"
                % (self.root_kind, self.b.lam)
            )

    def require_clear(self, point, r):
        """No beta_l with l != r in L sits at the exponent point."""
        for l in self.L:
            if l != r and self.beta(l) == point:
                raise DegenerateRoots(
                    "subalgebra roots degenerate at %d and %d" % (r, l)
                )

    def sigma(self):
        """Global sign of gamma and mu."""
        return 1 if (self.even_count + self.n - 1) % 2 == 0 else -1


# Callers visit one branching at a time and need both of its variants; 8
# entries leave slack.
_side = lru_cache(maxsize=8)(_Side)


def _check_form(form):
    if form not in FORMS:
        raise ValueError("form must be one of %s" % (FORMS,))


def omega(b, k, variant, form="root_product"):
    """Squared reduced Wigner coefficient for a single shift index k.

    Vanishes (exactly) for admissible-complement indices; on the
    admissible set the root-product and q-number forms are
      prod_{r in L} F_r(a_k) / prod_{l != k in K} (a_k - a_l)
      q^xi_k prod_r [alpha_k - alpha0_r + tau s_r] / prod_{l != k} [alpha_k - alpha_l]
    with xi_k = -(|I0 or I0bar| ... ) collected below.
    """
    _check_form(form)
    side = _side(b, variant)
    side.require_in_range(k)
    if k not in side.K:
        return ZERO
    side.require_K_generic()
    ak = side.alpha[k]
    others = [side.alpha[l] for l in side.K if l != k]
    if form == "root_product":
        nums = [side.F_root(ak, r) for r in side.L]
        dens = [_root_diff(ak, al) for al in others]
    else:
        # q-number/phase form with the closed phase exponent
        xi = -(side.I0_size + ak + b.eta)
        nums = [qpow(xi)] + [qnum(side.F_arg(ak, r)) for r in side.L]
        dens = [qnum(ak - al) for al in others]
    return QFraction.from_factors(nums, dens)


def omega_classical(b, k, variant):
    """Classical (q = 1) value of omega as an exact Fraction.

    Built from the classical root integers directly; the q -> 1 limit of
    omega must reproduce it exactly on every generic branching.
    """
    from fractions import Fraction

    side = _side(b, variant)
    side.require_in_range(k)
    if k not in side.K:
        return Fraction(0)
    side.require_K_generic()
    num = Fraction(1)
    for r in side.L:
        num *= side.F_arg(side.alpha[k], r)
    den = Fraction(1)
    for l in side.K:
        if l != k:
            den *= side.alpha[k] - side.alpha[l]
    return num / den


def _matrix_element(side, r, point, form, phase):
    """The product shared by gamma and mu, read at the subalgebra-root
    exponent point:
      sigma prod_{k in K} (a_k - G) / prod_{l != r in L} (G - G(l))
    with a_k = deformed(alpha_k) and G = deformed(point); the q-number form
    carries q^phase.
    """
    side.require_clear(point, r)
    others = [side.beta(l) for l in side.L if l != r]
    if form == "root_product":
        phase = 0
        nums = [_root_diff(side.alpha[k], point) for k in side.K]
        dens = [_root_diff(point, bl) for bl in others]
    else:
        nums = [qnum(side.alpha[k] - point) for k in side.K]
        dens = [qnum(point - bl) for bl in others]
    return QFraction.from_factors([side.sigma() * qpow(phase)] + nums, dens)


def gamma(b, r, variant, form="root_product", alpha0_override=None):
    """Squared reduced matrix element (q-length) for shift index r.

    alpha0_override, when given, replaces the subalgebra root exponent at
    position r; it implements evaluation at a shifted lower weight without
    requiring the shifted pair to be a genuine branching.
    """
    _check_form(form)
    side = _side(b, variant)
    side.require_admissible(r)
    a0r = side.alpha0[r] if alpha0_override is None else alpha0_override
    point = a0r - side.tau * side.sign[r]
    # q-number phase, collected from every factor
    phase = sum(point + side.beta(l) for l in side.L if l != r)
    phase -= sum(side.alpha[k] + point for k in side.K)
    return _matrix_element(side, r, point, form, phase)


def mu(b, r, variant, form="root_product", convention=None):
    """Squared reduced matrix element entering the projector factorization.

    convention 'unshifted' evaluates the subalgebra root at the lower
    weight itself, 'shifted' at the lower weight moved by the shift
    direction.  Only one convention satisfies the oracle factorization
    identity; the validated default lives in MU_SHIFT_DEFAULT.
    """
    _check_form(form)
    if convention is None:
        convention = MU_SHIFT_DEFAULT
    if convention not in ("shifted", "unshifted"):
        raise ValueError("convention must be 'shifted' or 'unshifted'")
    side = _side(b, variant)
    side.require_admissible(r)
    t = side.tau * side.sign[r]
    shifted = convention == "shifted"
    point = side.alpha0[r] + (t if shifted else 0)
    phase = b.eta + side.I0_size - 3 * point + t * (2 if shifted else 1)
    return _matrix_element(side, r, point, form, phase)


def omega_coupled(b, k, r, variant, form="qnumber_phase"):
    """Coupled squared coefficient for simultaneous shifts k (upper) and
    r (lower).

    The q-number form is the normative one,
      q^(alpha_k - alpha0_r)
      prod_{l != r in L} [alpha_k - alpha0_l + tau s_l]/[alpha0_r - alpha0_l + tau s_l]
      prod_{p != k in K} [alpha_p - alpha0_r]/[alpha_p - alpha_k];
    the root-product form is the same quantity assembled from deformed-root
    differences with no explicit phase: each factor converts to a q-number
    times a power of q and, because the upper admissible set K is one index
    larger than the lower set L, the powers collect to exactly q^(xi_kr).
    An inadmissible r leaves the coefficient undefined (the defining
    operator identity degenerates to 0 = 0); an inadmissible k with
    admissible r forces the coefficient to vanish.
    """
    _check_form(form)
    side = _side(b, variant)
    side.require_in_range(k)
    side.require_admissible(r)
    if k not in side.K:
        return ZERO
    side.require_K_generic()
    ak = side.alpha[k]
    a0r = side.alpha0[r]
    side.require_clear(a0r, r)
    ls = [l for l in side.L if l != r]
    aps = [side.alpha[p] for p in side.K if p != k]
    if form == "qnumber_phase":
        nums = [qpow(ak - a0r)] + [qnum(side.F_arg(ak, l)) for l in ls]
        nums += [qnum(ap - a0r) for ap in aps]
        dens = [qnum(side.F_arg(a0r, l)) for l in ls]
        dens += [qnum(ap - ak) for ap in aps]
    else:
        nums = [side.F_root(ak, l) for l in ls]
        nums += [_root_diff(ap, a0r) for ap in aps]
        dens = [side.F_root(a0r, l) for l in ls]
        dens += [_root_diff(ap, ak) for ap in aps]
    return QFraction.from_factors(nums, dens)


def omega_coupled_composite(b, k, r, variant):
    """Cross-check route: omega_k mu_r / (F_r(a_k) (a_k - a0_r)).

    Uses the unshifted mu.  Undefined (0/0) whenever a correction factor
    vanishes, which happens exactly when r sits in the even admissible
    block; the direct forms remain finite there.  Callers should treat a
    ZeroDivisionError as 'not applicable'.
    """
    side = _side(b, variant)
    side.require_in_range(k)
    side.require_admissible(r)
    if k not in side.K:
        return ZERO
    w = omega(b, k, variant)
    m = mu(b, r, variant)
    corr1 = side.F_root(side.alpha[k], r)
    corr2 = _root_diff(side.alpha[k], side.alpha0[r])
    return QFraction.from_factors([w.num, m.num], [w.den, m.den, corr1, corr2])


# -- tables and identities ---------------------------------------------------


@dataclass
class CoefficientTable:
    """A labelled family of exact coefficients for one branching."""

    kind: str
    branching: object
    form: str
    entries: dict = field(default_factory=dict)

    def to_json(self):
        def key_str(key):
            return ",".join(str(x) for x in key) if isinstance(key, tuple) else str(key)

        return {
            "kind": self.kind,
            "upper": str(self.branching.lam),
            "lower": list(self.branching.lam0),
            "signature": [self.branching.sig.m, self.branching.sig.n],
            "form": self.form,
            "entries": {
                key_str(k): {"value": v.to_json(), "str": str(v)}
                for k, v in sorted(self.entries.items(), key=lambda kv: str(kv[0]))
            },
        }


def omega_table(b, variant, form="root_product"):
    t = CoefficientTable(kind="omega_%s" % variant, branching=b, form=form)
    for k in range(1, b.sig.d + 1):
        t.entries[k] = omega(b, k, variant, form)
    return t


def coupled_table(b, variant, form="qnumber_phase"):
    side = _side(b, variant)
    t = CoefficientTable(kind="coupled_%s" % variant, branching=b, form=form)
    for k in side.K:
        for r in side.L:
            t.entries[(k, r)] = omega_coupled(b, k, r, variant, form)
    return t


def sum_rule_residual(b, variant, form="root_product"):
    """sum_k omega_k - 1, exactly zero when the closed forms are right."""
    total = ZERO
    for k in range(1, b.sig.d + 1):
        total = total + omega(b, k, variant, form)
    return total - ONE


def linear_system_residuals(b, variant, form="root_product"):
    """The defining linear relations sum_k omega_k / F_r(a_k) for r in L.

    When F_r(a_k) = 0 the matching numerator factor of omega_k vanishes
    too, so the term is accumulated with that factor cancelled instead of
    evaluating a 0/0.
    """
    side = _side(b, variant)
    if not side.L:  # no relations, and no omega, even on a degenerate K
        return {}
    omegas = {k: omega(b, k, variant, form) for k in side.K}
    out = {}
    for r in side.L:
        acc = ZERO
        for k in side.K:
            ak = side.alpha[k]
            f = side.F_root(ak, r)
            if f:
                acc = acc + omegas[k] / f
                continue
            acc = acc + QFraction.from_factors(
                [side.F_root(ak, l) for l in side.L if l != r],
                [_root_diff(ak, side.alpha[l]) for l in side.K if l != k],
            )
        out[r] = acc
    return out
