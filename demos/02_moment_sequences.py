"""Moment sequences of matrix tuples and their structural fingerprints.

The normalized traces of all words in a Hermitian tuple form a sequence
that is cyclically invariant, conjugate symmetric under word reversal,
geometrically bounded, and positive on hermitian squares.  Candidate
"pseudo-moments" are judged by exactly these conditions.
"""

import numpy as np

from nctrace import (
    check_w_membership,
    growth_radius,
    moment_matrix,
    moment_sequence,
    psd_check,
)
from nctrace.sampling import make_rng, pauli_pair, random_tuple

# The Pauli pair: the standard witness that matrices can beat commutative
# intuition.  sigma_x sigma_z squares to minus the identity.
t = moment_sequence(pauli_pair(), 4)
print("Pauli moments:")
print("  t[1,1]     =", t[(1, 1)].real)
print("  t[1,2]     =", t[(1, 2)].real)
print("  t[1,1,2,2] =", t[(1, 1, 2, 2)].real)
print("  t[1,2,1,2] =", t[(1, 2, 1, 2)].real, " (negative: (XZ)^2 = -I)")
print()

report = check_w_membership(t, tol=1e-10)
print("membership:", "PASS" if report.passed else "FAIL")
print("  worst cyclic violation   ", report.max_cyclic_violation)
print("  worst conjugate violation", report.max_conjugate_violation)
print("  growth radius            ", report.growth_radius)
print()

# The moment matrix at half-degree d collects t over reverse(J)+K.  It is
# the Gram matrix of the words acting on the tuple, hence PSD.
M = moment_matrix(t, 2)
ok, min_eig = psd_check(M)
print(f"moment matrix at d=2: {M.shape[0]}x{M.shape[1]}, "
      f"PSD={ok}, min eigenvalue {min_eig:.2e}")
print("rank:", np.linalg.matrix_rank(M, tol=1e-10),
      "(the Pauli words span the full 2x2 matrix algebra, dimension 4)")
print()

# Random tuples: everything above holds with margins.
rng = make_rng(0)
X = random_tuple(rng, 2, 3, radius=1.5)
t = moment_sequence(X, 8)
print("random tuple, N=3, rescaled to norm 1.5:")
print("  membership pass:", check_w_membership(t).passed)
print("  growth radius  :", growth_radius(t),
      "(a lower bound for the largest operator norm, here 1.5)")
ok, min_eig = psd_check(moment_matrix(t, 4), tol=1e-9)
print("  d=4 moment matrix PSD:", ok)
