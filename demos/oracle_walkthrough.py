"""End-to-end oracle session on gl(2|1).

Builds V (x) V with the graded coproduct, splits off a highest weight
submodule, verifies the polynomial identity of the characteristic matrix
on it, and extracts squared reduced Wigner coefficients from projector
corner entries, comparing each against the closed forms.

Run:  python demos/oracle_walkthrough.py
"""

from qwig import (
    DegenerateRoots,
    NotRealized,
    Signature,
    Weight,
    branch_candidates,
    omega,
)
from qwig.oracle import (
    char_identity_check,
    highest_weight_vectors,
    submodule,
    tensor_module,
    vector_rep,
    wigner_oracle,
)

sig = Signature(2, 1)
V = vector_rep(sig)
T = tensor_module(V, V)
print("%s: dim V = %d, dim V(x)V = %d" % (sig, V.dim, T.dim))

for wt, vecs in highest_weight_vectors(T):
    comps = tuple(int(c) for c in wt)
    lam = Weight(sig, comps)
    M = submodule(T, vecs)
    print("\nhighest weight %s, multiplicity %d, module dim %d"
          % (lam, len(vecs), M.dim))
    if len(vecs) != 1:
        continue

    for kind in ("atilde", "adual"):
        ok = char_identity_check(M, lam, kind)
        print("  %s polynomial identity: %s" % (kind, "PASS" if ok else "FAIL"))

    for b in branch_candidates(lam):
        for kind in ("lower", "raise"):
            for k in range(1, sig.d + 1):
                try:
                    oracle = wigner_oracle(M, lam, b.lam0, k, kind)
                    closed = omega(b, k, kind)
                except (DegenerateRoots, NotRealized) as exc:
                    continue
                mark = "ok" if oracle == closed else "MISMATCH"
                print("  %s %s k=%d: oracle %s, closed %s  [%s]"
                      % (b, kind, k, oracle, closed, mark))
