"""Closed-form squared reduced Wigner coefficients and matrix elements.

Every quantity exists in two computational routes that must agree exactly:
a 'root_product' form built from differences of deformed characteristic
roots, and a 'qnumber_phase' form built from integer q-numbers times a
single power of q.  The lowering side uses the dual roots of the upper
weight, the raising side the adjoint roots; in both cases the shift index
runs over the admissible sets determined by the branching.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    AdmissibilityError,
    DegenerateRoots,
    IndexOutOfRange,
    InvalidArgument,
)
from .exactq import ZERO, QFraction, _factor_map, _merged_map, qnum
from .superweight import _root_exponents, deformed_root

__all__ = [
    "CoefficientTable",
    "omega",
    "omega_classical",
    "gamma",
    "mu",
    "omega_coupled",
    "omega_table",
    "coupled_table",
    "sum_rule_residual",
    "linear_system_residuals",
    "MU_SHIFT_DEFAULT",
]

FORMS = ("root_product", "qnumber_phase")

# Evaluation point of the subalgebra root entering mu.  'shifted' reads it
# at the lower weight moved one step along the shift direction, 'unshifted'
# at the lower weight itself.  Where the unshifted reading agrees with
# mu_oracle, both are 0; every nonzero value the oracle reaches disagrees,
# all at r of odd parity, and those cases are pinned in
# MU_ODD_R_DISAGREEMENTS (tests/test_oracle.py).
MU_SHIFT_DEFAULT = "unshifted"


def _root_diff(x, y):
    """The root-product factor deformed(x) - deformed(y)."""
    return deformed_root(x).num - deformed_root(y).num


# Every closed-form factor is a root difference or a q-number of small
# integer arguments, so its cyclotomic map (exactq._factor_map) is kept by
# those integers and no factor polynomial is built per call.  Each map is
# still peeled from the factor's own polynomial, so the two forms stay
# independent.  The bounds keep memory flat over a long run.


@lru_cache(maxsize=4096)
def _root_map(x, y):
    """The factor map of _root_diff(x, y), which is zero iff x == y."""
    return _factor_map(_root_diff(x, y))


@lru_cache(maxsize=1024)
def _qnum_map(n):
    """The factor map of qnum(n), which is zero iff n == 0."""
    return _factor_map(qnum(n))


class _Side:
    """Shared root data for one variant of a branching.

    tau is -1 on the lowering side and +1 on the raising side; the
    deformed-root combination entering every product is
    F_y(x) = deformed(x) - deformed(beta_y), beta_y = alpha0_y - tau s_y,
    equal to q^(-x - beta_y) [x - beta_y]_q.
    Its root data never change after construction, so _side shares one per
    branching.  omega_memo holds, per form, every omega_k's merged map
    (exactq._merged_map, an immutable tuple with the exponents packed in
    one int) and the values omega has returned (_omega_memo), which stay
    factored until read.  It lives as long as the side, so _side's bound
    of 8 sides bounds it too.
    """

    def __init__(self, b, variant):
        if variant == "lower":
            self.tau = -1
            self.root_kind = "dual"
        elif variant == "raise":
            self.tau = 1
            self.root_kind = "adjoint"
        else:
            raise InvalidArgument("variant must be 'lower' or 'raise'")
        self.b = b
        self.variant = variant
        c, lam0 = b.lam.comps, b.lam0
        m, n = b.lam.sig.m, b.lam.sig.n
        lower = variant == "lower"
        # K is the branching's admissible set, L is K without its last
        # position d; I0 and I0bar split 1..m, so |I0| needs no second pass
        # over the components
        self.K = b.lower_indices() if lower else b.raise_indices()
        self.L = self.K[:-1]
        self.even_count = len(self.K) - n
        self.I0_size = self.even_count if lower else m - self.even_count
        self.alpha = dict(enumerate(_root_exponents(c, m, n, self.root_kind), 1))
        self.alpha0 = dict(
            enumerate(_root_exponents(lam0, m, n - 1, self.root_kind), 1)
        )
        self.sign = _signs(m, m + n)
        self.n = n
        vals = [self.alpha[k] for k in self.K]
        self.K_generic = len(set(vals)) == len(vals)
        self.omega_memo = {}

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


@lru_cache(maxsize=None)
def _signs(m, d):
    """The grading signs {i: (i)} of gl(m|d-m), one dict per signature,
    shared by every side of it and never mutated."""
    return {i: 1 if i <= m else -1 for i in range(1, d + 1)}


# Callers visit one branching at a time and need both of its variants; 8
# entries leave slack.
_side = lru_cache(maxsize=8)(_Side)


def _check_form(form):
    if form not in FORMS:
        raise InvalidArgument("form must be one of %s" % (FORMS,))


def _omega_maps(side, k, form, cancel=None):
    """The factor maps (nums, dens) of omega_k in the given form, for k in
    the generic admissible set K; None where a numerator factor vanishes.
    With cancel = r in L, those of omega_k / F_r(a_k), the factor F_r(a_k)
    left out, which stay finite where F_r(a_k) = 0."""
    ak = side.alpha[k]
    ls = [r for r in side.L if r != cancel]
    others = [side.alpha[l] for l in side.K if l != k]
    if form == "root_product":
        betas = [side.beta(r) for r in ls]
        if ak in betas:
            return None
        nums = [_root_map(ak, br) for br in betas]
        dens = [_root_map(ak, al) for al in others]
    else:
        # q-number/phase form with the closed phase exponent; leaving out
        # F_r(a_k) = q^(-a_k - beta_r) [a_k - beta_r] adds a_k + beta_r
        args = [side.F_arg(ak, r) for r in ls]
        if 0 in args:
            return None
        xi = -(side.I0_size + ak + side.b.eta)
        if cancel is not None:
            xi += ak + side.beta(cancel)
        nums = [(1, 2 * xi, 0, 0)] + [_qnum_map(x) for x in args]
        dens = [_qnum_map(ak - al) for al in others]
    return nums, dens


def _omega_memo(side, form):
    """side.omega_memo[form], made on first use: the dict {k: merged map of
    omega_k} over the generic K, None where a numerator factor vanishes,
    and the dict {k: QFraction} that omega fills."""
    memo = side.omega_memo.get(form)
    if memo is None:
        merged = {}
        for k in side.K:
            maps = _omega_maps(side, k, form)
            merged[k] = None if maps is None else _merged_map(*maps)
        memo = side.omega_memo[form] = (merged, {})
    return memo


def omega(b, k, variant, form="root_product"):
    """Squared reduced Wigner coefficient for a single shift index k.

    Vanishes (exactly) for admissible-complement indices; on the
    admissible set the root-product and q-number forms are
      prod_{r in L} F_r(a_k) / prod_{l != k in K} (a_k - a_l)
      q^xi_k prod_r [alpha_k - alpha0_r + tau s_r] / prod_{l != k} [alpha_k - alpha_l]
    with xi_k = -(|I0 or I0bar| + alpha_k + eta), the phase _omega_maps
    gives the q-number form.  The value is kept on the side (_omega_memo),
    so a repeat call returns the same object.
    """
    _check_form(form)
    side = _side(b, variant)
    side.require_in_range(k)
    if k not in side.K:
        return ZERO
    side.require_K_generic()
    merged, values = _omega_memo(side, form)
    value = values.get(k)
    if value is None:
        m = merged[k]
        value = values[k] = ZERO if m is None else QFraction.from_merged(m)
    return value


def omega_classical(b, k, variant):
    """Classical (q = 1) value of omega as an exact Fraction.

    Built from the classical root integers directly; the q -> 1 limit of
    omega must reproduce it exactly on every generic branching.
    """
    side = _side(b, variant)
    side.require_in_range(k)
    if k not in side.K:
        return Fraction(0)
    side.require_K_generic()
    ak = side.alpha[k]
    num = den = 1
    for r in side.L:
        num *= side.F_arg(ak, r)
    for l in side.K:
        if l != k:
            den *= ak - side.alpha[l]
    return Fraction(num, den)


def _matrix_element(side, r, point, form, phase):
    """The product shared by gamma and mu, read at the subalgebra-root
    exponent point:
      sigma prod_{k in K} (a_k - G) / prod_{l != r in L} (G - G(l))
    with a_k = deformed(alpha_k) and G = deformed(point); the q-number form
    carries q^phase.
    """
    side.require_clear(point, r)
    others = [side.beta(l) for l in side.L if l != r]
    roots = [side.alpha[k] for k in side.K]
    if form == "root_product":
        if point in roots:
            return ZERO
        nums = [(side.sigma(), 0, 0, 0)] + [_root_map(a, point) for a in roots]
        dens = [_root_map(point, bl) for bl in others]
    else:
        args = [a - point for a in roots]
        if 0 in args:
            return ZERO
        nums = [(side.sigma(), 2 * phase, 0, 0)] + [_qnum_map(x) for x in args]
        dens = [_qnum_map(point - bl) for bl in others]
    return QFraction.from_maps(nums, dens)


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
    direction.  The default, MU_SHIFT_DEFAULT, meets the oracle
    factorization identity where 'shifted' does not, but on zeros only:
    every agreement measured is 0 = 0, and every nonzero value the oracle
    reaches disagrees, at r of odd parity.
    """
    _check_form(form)
    if convention is None:
        convention = MU_SHIFT_DEFAULT
    if convention not in ("shifted", "unshifted"):
        raise InvalidArgument("convention must be 'shifted' or 'unshifted'")
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
        args = [side.F_arg(ak, l) for l in ls] + [ap - a0r for ap in aps]
        if 0 in args:
            return ZERO
        nums = [(1, 2 * (ak - a0r), 0, 0)] + [_qnum_map(x) for x in args]
        dens = [_qnum_map(side.F_arg(a0r, l)) for l in ls]
        dens += [_qnum_map(ap - ak) for ap in aps]
    else:
        betas = [side.beta(l) for l in ls]
        if ak in betas or a0r in aps:
            return ZERO
        nums = [_root_map(ak, bl) for bl in betas]
        nums += [_root_map(ap, a0r) for ap in aps]
        dens = [_root_map(a0r, bl) for bl in betas]
        dens += [_root_map(ap, ak) for ap in aps]
    return QFraction.from_maps(nums, dens)


# -- tables and identities ---------------------------------------------------


class CoefficientTable:
    """A labelled family of exact coefficients for one branching, which
    omega_table and coupled_table fill into entries."""

    def __init__(self, kind, branching, form):
        self.kind = kind
        self.branching = branching
        self.form = form
        self.entries = {}

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
                key_str(k): v.json_entry()
                for k, v in sorted(self.entries.items(), key=lambda kv: str(kv[0]))
            },
        }


def omega_table(b, variant, form="root_product"):
    t = CoefficientTable(kind="omega_%s" % variant, branching=b, form=form)
    for k in range(1, b.sig.d + 1):
        t.entries[k] = omega(b, k, variant, form)
    return t


def coupled_table(b, variant, form="qnumber_phase"):
    _check_form(form)
    side = _side(b, variant)
    t = CoefficientTable(kind="coupled_%s" % variant, branching=b, form=form)
    for k in side.K:
        for r in side.L:
            t.entries[(k, r)] = omega_coupled(b, k, r, variant, form)
    return t


def sum_rule_residual(b, variant, form="root_product"):
    """sum_k omega_k - 1, exactly zero when the closed forms are right."""
    _check_form(form)
    side = _side(b, variant)
    side.require_K_generic()
    merged, _ = _omega_memo(side, form)
    terms = [m for m in merged.values() if m is not None]
    return QFraction.sum_of_quotients(terms + [(-1, 0, 0, 0)])


def linear_system_residuals(b, variant, form="root_product"):
    """The defining linear relations sum_k omega_k / F_r(a_k) for r in L.

    Each term merges omega_k's merged map with 1/F_r(a_k); in the
    q-number form 1/F_r(a_k) = q^(a_k + beta_r) / [a_k - beta_r], so that
    the two forms stay independent.  When F_r(a_k) = 0 the matching
    numerator factor of omega_k vanishes too, so the term is accumulated
    with that factor cancelled instead of evaluating a 0/0.
    """
    _check_form(form)
    side = _side(b, variant)
    if not side.L:  # no relations, and no omega, even on a degenerate K
        return {}
    side.require_K_generic()
    merged, _ = _omega_memo(side, form)
    out = {}
    for r in side.L:
        br = side.beta(r)
        terms = []
        for k, m in merged.items():
            ak = side.alpha[k]
            if ak != br:
                if m is None:
                    continue
                if form == "root_product":
                    terms.append(_merged_map([m], [_root_map(ak, br)]))
                else:
                    terms.append(_merged_map(
                        [m, (1, 2 * (ak + br), 0, 0)], [_qnum_map(ak - br)]))
                continue
            # F_r(a_k) = 0: omega_k with that factor cancelled, which is
            # zero if another F_l(a_k) vanishes too
            maps = _omega_maps(side, k, form, cancel=r)
            if maps is not None:
                terms.append(_merged_map(*maps))
        out[r] = QFraction.sum_of_quotients(terms)
    return out
