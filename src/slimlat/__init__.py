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

Importing the package loads none of these modules.  Each name in
``__all__`` resolves on first use, when its home module is imported, so a
command-line run loads only the modules its command needs.
"""
import importlib

__version__ = "0.1.0"

# the home module of every exported name
_HOMES = {name: module for module, names in (
    ("perm", ("Permutation", "SegmentPartition", "validate", "is_closed", "segments",
              "rho_equivalent", "rho_class", "class_size", "canonical_rep",
              "count_classes", "enumerate_reps")),
    ("lattice", ("FiniteLattice", "BorderedDiagram", "from_covers", "is_semimodular",
                 "is_slim", "is_dually_slim", "join_irreducibles", "meet_irreducibles",
                 "narrows", "dual", "covering_squares")),
    ("iso", ("is_isomorphic", "automorphisms")),
    ("grid", ("Grid", "GridCell", "GridCongruence", "congruence_closure", "jcong_cell",
              "beta_from_perm", "beta_from_formula", "beta_formula", "forbidden_cells",
              "is_cover_preserving", "source_cells", "regenerate", "phi0")),
    ("extract", ("extract_permutation", "pi1_trajectories", "pi2_meet_irreducibles",
                 "pi3_source_cells", "diagrams_of", "diagram_count")),
    ("groups", ("CyclicCslInstance", "csl_build", "csl_dual_diagram",
                "jordan_holder_permutation", "projectivity_witness")),
) for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
