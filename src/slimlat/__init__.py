"""Slim semimodular lattices and permutations.

The package ties four constructions together:

- :mod:`slimlat.perm`: permutations of {1..n}, their segments, and the
  equivalence "equal or inverted on every segment";
- :mod:`slimlat.grid`: join-congruences of a square grid and the quotient
  map ``phi0`` sending a permutation to a bordered slim semimodular lattice;
- :mod:`slimlat.extract`: three independent procedures recovering the
  permutation from a bordered diagram, plus diagram enumeration;
- :mod:`slimlat.groups`: composition series of finite cyclic groups whose
  intersection lattices realize every permutation.

``phi0`` and ``extract_permutation`` are mutually inverse, and two
permutations yield isomorphic lattices exactly when they are equivalent, so
class counting, diagram counting, and lattice classification line up; the
test suite checks all of this exhaustively at small sizes.
"""
from slimlat.extract import (diagram_count, diagrams_of, extract_permutation,
                             pi1_trajectories, pi2_meet_irreducibles,
                             pi3_source_cells)
from slimlat.grid import (Grid, GridCell, GridCongruence, beta_formula,
                          beta_from_formula, beta_from_perm,
                          congruence_closure, forbidden_cells,
                          is_cover_preserving, jcong_cell, phi0, regenerate,
                          source_cells)
from slimlat.groups import (CyclicCslInstance, csl_build, csl_dual_diagram,
                            jordan_holder_permutation, projectivity_witness)
from slimlat.lattice import (BorderedDiagram, FiniteLattice, automorphisms,
                             covering_squares, dual, from_covers,
                             is_dually_slim, is_isomorphic, is_semimodular,
                             is_slim, join_irreducibles, meet_irreducibles,
                             narrows)
from slimlat.perm import (Permutation, SegmentPartition, canonical_rep,
                          class_size, count_classes, enumerate_reps,
                          is_closed, rho_class, rho_equivalent, segments,
                          validate)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # perm
    "Permutation", "SegmentPartition", "validate", "is_closed", "segments",
    "rho_equivalent", "rho_class", "class_size", "canonical_rep", "count_classes",
    "enumerate_reps",
    # lattice
    "FiniteLattice", "BorderedDiagram", "from_covers", "is_semimodular",
    "is_slim", "is_dually_slim", "join_irreducibles", "meet_irreducibles",
    "narrows", "dual", "covering_squares", "is_isomorphic", "automorphisms",
    # grid
    "Grid", "GridCell", "GridCongruence", "congruence_closure", "jcong_cell",
    "beta_from_perm", "beta_from_formula", "beta_formula", "forbidden_cells",
    "is_cover_preserving", "source_cells", "regenerate", "phi0",
    # extract
    "extract_permutation", "pi1_trajectories", "pi2_meet_irreducibles",
    "pi3_source_cells", "diagrams_of", "diagram_count",
    # groups
    "CyclicCslInstance", "csl_build", "csl_dual_diagram",
    "jordan_holder_permutation", "projectivity_witness",
]
