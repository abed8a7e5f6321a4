"""Closed-form eigenvalues of central elements on an irreducible V(lam)."""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidArgument
from .exactq import QFraction, ZERO, qnum, qpow
from .superweight import rho, rho_even_odd

__all__ = ["chi_v", "chi_C1", "casimir_exponent"]


def casimir_exponent(lam):
    """(lam, lam + 2 rho) as an exact Fraction (always an integer here)."""
    sig = lam.sig
    r = rho(sig)
    total = Fraction(0)
    for i in range(1, sig.d + 1):
        total += Fraction(sig.sign(i)) * lam[i] * (lam[i] + 2 * r[i - 1])
    return total


def chi_v(lam, kind="v"):
    """Eigenvalue of the central ribbon-type element on V(lam).

    kind 'v' gives q^-(lam, lam+2rho), kind 'vtilde' the inverse.
    """
    if kind not in ("v", "vtilde"):
        raise InvalidArgument("kind must be 'v' or 'vtilde'")
    e = casimir_exponent(lam)
    return QFraction(qpow(-e if kind == "v" else e))


def chi_C1(lam, kind="dual"):
    """Eigenvalue of the degree-one supertrace invariant on V(lam).

    kind 'dual' (built from the dual-module characteristic matrix):
      sum_i (-1)^[i] q^-(lam+2rho, eps_i) [(lam, eps_i)]_q;
    kind 'adjoint' (built from the adjoint one):
      sum_i (-1)^[i] q^-(lam-2rho0, eps_i) [(lam-2rho1, eps_i)]_q,
    rho0/rho1 the even/odd half-sums of positive roots.
    """
    sig = lam.sig
    if kind == "dual":
        r = rho(sig)
        a = tuple(Fraction(lam[i]) + 2 * r[i - 1] for i in range(1, sig.d + 1))
        b = tuple(Fraction(lam[i]) for i in range(1, sig.d + 1))
    elif kind == "adjoint":
        r0, r1 = rho_even_odd(sig)
        a = tuple(Fraction(lam[i]) - 2 * r0[i - 1] for i in range(1, sig.d + 1))
        b = tuple(Fraction(lam[i]) - 2 * r1[i - 1] for i in range(1, sig.d + 1))
    else:
        raise InvalidArgument("kind must be 'dual' or 'adjoint'")
    total = ZERO
    for i in range(1, sig.d + 1):
        s = sig.sign(i)
        exp = -Fraction(s) * a[i - 1]
        arg = Fraction(s) * b[i - 1]
        if arg.denominator != 1:
            raise InvalidArgument("q-number argument must be an integer")
        term = QFraction(qpow(exp) * qnum(int(arg)))
        total = total + (term if sig.parity(i) == 0 else -term)
    return total
