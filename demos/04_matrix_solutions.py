"""Combinatorial matrix solutions and the fundamental representation.

h_a goes to e_{a,a} and w_a to the permutation matrix of sigma_a; the
universal R-matrix lands on R = sum e_{b, sigma_a(b)} (x) e_{a, tau_b(a)},
a permutation matrix (one 1 per row and column) solving the matrix YBE.
"""

import ybtwist as yb
from ybtwist.matrices import nfold_twist_matrix

z4 = yb.validate_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
mul = yb.validate_group([[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)])
ctx = yb.algebra_from_brace(yb.validate_brace(z4, mul))

print("rho(h_1) entries:", yb.rho(ctx, ctx.h(1)).coeffs)
print("rho(w_1) entries:", sorted(yb.rho(ctx, ctx.w(1)).coeffs))
print("rho is an algebra homomorphism:", yb.rho_is_homomorphism(ctx).ok)

r = yb.solution_matrix(ctx)
print(f"\nsolution matrix: {r.dim} x {r.dim} with {len(r.coeffs)} entries")
print("combinatorial:", yb.check_combinatorial(r))
print("reversible (R12 R21 = 1):", yb.check_reversibility(r))
print("matrix Yang-Baxter equation:", yb.check_matrix_ybe(r).ok)

# The braid operator (the map picture) is the flip times R: braid_matrix
# raises CheckFailed("bridge_mismatch") unless it is.
yb.braid_matrix(ctx.ybmap)
print("braid operator = P R:", True)

# The matrix layer scales beyond the universal one: order 6 is immediate.
add6 = yb.validate_group([[(a + b) % 6 for b in range(6)] for a in range(6)])
mul6 = yb.validate_group(
    [[(a + (b if a % 2 == 0 else -b)) % 6 for b in range(6)] for a in range(6)]
)
ctx6 = yb.algebra_from_brace(yb.validate_brace(add6, mul6))
r6 = yb.solution_matrix(ctx6)
print(f"\norder-6 solution: {r6.dim} x {r6.dim}")
print("matrix YBE at order 6:", yb.check_matrix_ybe(r6).ok)
print("combinatorial and reversible:",
      yb.check_combinatorial(r6) and yb.check_reversibility(r6))

# Leg twists in the representation: permutation bookkeeping all the way down,
# the twist returned as its column -> row list.
for k in (3, 4):
    perm, report = nfold_twist_matrix(ctx6, k)
    print(f"order-6 {k}-fold twist ({len(perm)} x {len(perm)}):", report.ok)
