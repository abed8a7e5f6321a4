"""Walk through the closed-form coefficient tables for one branching.

Picks gl(2|1) with highest weight (1,0|0), enumerates the lower weights
allowed by the betweenness conditions, and prints the squared reduced
Wigner coefficients in both computational forms, together with the exact
sum rule and linear-system residuals.

Run:  python demos/wigner_tables.py
"""

from qwig import (
    DegenerateRoots,
    Signature,
    Weight,
    branch_candidates,
    coupled_table,
    linear_system_residuals,
    omega_table,
    sum_rule_residual,
)

lam = Weight(Signature(2, 1), (1, 0, 0))
print("highest weight %s of %s" % (lam, lam.sig))

for b in branch_candidates(lam):
    print("\nbranching %s   I0=%s I0bar=%s eta=%d e_last=%d"
          % (b, b.I0, b.I0bar, b.eta, b.e_last))
    for variant in ("lower", "raise"):
        try:
            t_root = omega_table(b, variant, "root_product")
            t_qnum = omega_table(b, variant, "qnumber_phase")
        except DegenerateRoots as exc:
            print("  %-5s skipped: %s" % (variant, exc))
            continue
        assert t_root == t_qnum
        print("  %-5s (both forms agree)" % variant)
        for k, v in sorted(t_root.items()):
            print("    omega_%d = %s" % (k, v))
        print("    sum rule residual: %s" % sum_rule_residual(b, variant))
        res = linear_system_residuals(b, variant)
        print("    linear residuals : %s"
              % {r: str(v) for r, v in res.items()})
        ct = coupled_table(b, variant)
        for (k, r), v in sorted(ct.items()):
            print("    coupled (k=%d, r=%d) = %s" % (k, r, v))
