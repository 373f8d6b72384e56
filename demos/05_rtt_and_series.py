"""The RTT layer: the rational R-matrix, twisted RTT, and symbolic series.

R(l1, l2) = 1 + P/(l1 - l2) and L(l) = 1 + P/(l - 1) each have one known
scalar pole.  The library multiplies every operator by its pole, so R, L and
their twisted forms become polynomial matrices with integer coefficients, and
an RTT identity is an exact equality of polynomial matrices (the same
non-zero scalar multiplies both sides).  The coproduct and antipode of the
level generators are handled symbolically in the free noncommutative algebra.
"""

import ybtwist as yb
from ybtwist.ncpoly import gen
from ybtwist.yangian import (
    adjudicate_twisted_coproduct,
    antipode_series,
    check_defining_relations,
    check_rtt,
    check_twisted_rtt,
    coproduct_table,
    unitarity_report,
    yangian_r,
)

# The R-matrix with its pole cleared, (l1 - l2) R = (l1 - l2) 1 + P, has
# polynomial entries; at unit spacing (l1, l2) = (2, 1) it equals R itself.
# Unitarity R(l) P R(-l) P = (1 - (l1-l2)^{-2}) 1 becomes, cleared,
# (l1 - l2) R(l) P (-(l1 - l2)) R(-l) P = (1 - (l1-l2)^2) 1.
r = yangian_r(2)
print("(l1 - l2) R =", sorted((k, str(v)) for k, v in r.coeffs.items()))
print("R(2, 1) =", sorted((k, str(v.evaluate(2, 1))) for k, v in r.coeffs.items()))
print("unitarity:", unitarity_report(2).ok)

# The defining relations hold with zero violations in the evaluation image.
rep = check_defining_relations(3)
print("defining relations n=3, levels <= 4:", rep.ok,
      f"({rep.checks[0].detail['violations']} violations)")

# RTT as an exact polynomial-matrix identity on the three-leg space, both
# sides multiplied by (l1 - l2)(l1 - 1)(l2 - 1).
for n in (2, 3):
    print(f"RTT n={n}:", check_rtt(n).ok)
print("RTT with a shifted pole (negative control):", check_rtt(2, corrupt_shift=2).ok)

# Twisting by a brace: R^F(l) = r + P/l equals F^op R(l) F^{-1}, and the
# twisted RTT identity holds with the conjugated L operators -- again decided
# with every operator multiplied by its pole.
z4 = yb.validate_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
mul = yb.validate_group([[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)])
ctx = yb.algebra_from_brace(yb.validate_brace(z4, mul))
for check in check_twisted_rtt(ctx).checks:
    print(f"twisted {check.name}:", "ok" if check.passed else check.witness)

# Symbolic layer: coproducts of the level generators...
table = coproduct_table(2)
print("\nDelta(L^(1)_{0,1}) terms:", len(table[(1, 0, 1)].coeffs))
print("Delta(L^(2)_{0,1}) terms:", len(table[(2, 0, 1)].coeffs))

# ... and the antipode series solved from its recursion.  Level 1 and 2:
s_table, s_report = antipode_series(2)
print("s(L^(1)_{0,1}) =", s_table[(1, 0, 1)])
print("s(L^(2)_{0,1}) =", s_table[(2, 0, 1)])
print("antipode identities vanish up to level 4:", s_report.ok)
assert s_table[(1, 0, 1)] == -gen(1, 0, 1)

# Which summation range of the displayed twisted coproduct reproduces the
# conjugation?  The adjudication answers definitively.
detail = adjudicate_twisted_coproduct(ctx).check("adjudication").detail
print("\nadjudication:", detail["conclusion"])
