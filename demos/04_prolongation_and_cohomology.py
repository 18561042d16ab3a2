"""Prolongation and cohomology: why the bound on symmetry dimension is 9.

Prolonging the Heisenberg algebra with the full irreducible grade-0 part
rebuilds the 14-dimensional algebra; prolonging with the Borel subalgebra
(the marked situation) stops at total dimension 9.  The cohomology
computation shows the curvature space has no invariant complement to the
image of the differential -- no normalization condition exists.
"""

from engelkit.cubicalg import gl2_basis
from engelkit.tanaka import (
    cohomology_dim,
    graded_derivations,
    heisenberg_from_table,
    normalization_obstruction,
    prolongation_matches_parabolic,
    tanaka_prolong,
)

gl2 = gl2_basis()
borel = [gl2[0], gl2[1], gl2[3]]

print("irreducible grade-0 part:", tanaka_prolong(gl2))
print("borel grade-0 part:      ", tanaka_prolong(borel))
print("full derivation algebra: ",
      tanaka_prolong([[list(r) for r in d.matrix]
                      for d in graded_derivations(heisenberg_from_table())],
                     max_degree=2), "(infinite type)")
print("borel prolongation is the parabolic subalgebra:",
      prolongation_matches_parabolic())

print()
print("cohomology with full coefficients, H1 homogeneity 1..4:",
      [cohomology_dim("g", 1, l) for l in (1, 2, 3, 4)])
print("H2 homogeneity 1, full coefficients:", cohomology_dim("g", 2, 1))
print("H2 homogeneity 1, parabolic coefficients:", cohomology_dim("q", 2, 1))

report = normalization_obstruction()
print(report.summary())
print("conclusion: no invariant complement to the parabolic image exists")
