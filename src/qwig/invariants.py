"""Closed-form eigenvalues of central elements on an irreducible V(lam)."""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidArgument
from .exactq import QFraction, ZERO, qnum, qpow
from .superweight import rho

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


def chi_C1(lam):
    """Eigenvalue of the degree-one supertrace invariant on V(lam):
      sum_i (-1)^[i] q^-(lam+2rho, eps_i) [(lam, eps_i)]_q.

    The invariants the oracle builds from its adual and atilde
    characteristic matrices both take this value, on typical and atypical
    weights alike.
    """
    sig = lam.sig
    r = rho(sig)
    total = ZERO
    for i in range(1, sig.d + 1):
        s = sig.sign(i)
        term = QFraction(qpow(-s * (lam[i] + 2 * r[i - 1])) * qnum(s * lam[i]))
        total = total + (term if sig.parity(i) == 0 else -term)
    return total
