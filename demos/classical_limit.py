"""Classical limits and central invariants.

Shows that every raising-side coefficient has a finite q -> 1 limit equal
to the plain rational number built from the classical roots, and prints
the central element eigenvalues for a few weights.

Run:  python demos/classical_limit.py
"""

from qwig import (
    DegenerateRoots,
    Signature,
    Weight,
    branch_candidates,
    chi_C1,
    chi_v,
    is_typical,
    omega,
    omega_classical,
)

sig = Signature(2, 1)

print("q -> 1 limits on gl(2|1), highest weight (2,1|0):")
lam = Weight(sig, (2, 1, 0))
for b in branch_candidates(lam):
    for k in range(1, sig.d + 1):
        try:
            v = omega(b, k, "raise")
        except DegenerateRoots:
            break
        lim = v.limit_q1()
        classical = omega_classical(b, k, "raise")
        assert lim == classical
        print("  %s k=%d: %s  ->  %s" % (b, k, v, lim))

print("\ncentral invariants:")
for comps in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1)]:
    w = Weight(sig, comps)
    print("  %s  typical=%s" % (w, is_typical(w)))
    print("    v       = %s" % chi_v(w, "v"))
    print("    v~      = %s" % chi_v(w, "vtilde"))
    print("    C1      = %s" % chi_C1(w))
