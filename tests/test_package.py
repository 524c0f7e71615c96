"""The package surface: the immutable value classes and the lazy exports."""
import copy
import importlib
import pickle
import pkgutil

import pytest

import slimlat
from slimlat import extract, grid, groups, lattice, perm
from slimlat.grid import Grid, GridCongruence
from slimlat.lattice import BorderedDiagram
from slimlat.perm import Permutation, SegmentPartition

_DIAGRAM = grid.phi0(Permutation((2, 1)))

# each value class: a value, the repr it has always had, and its fields
VALUES = [
    (Permutation((2, 3, 1)), "Permutation(images=(2, 3, 1))", ("images",)),
    (SegmentPartition(((1,), (2, 3))), "SegmentPartition(segments=((1,), (2, 3)))",
     ("segments",)),
    (Grid(1), "Grid(n=1)", ("n",)),
    (GridCongruence.identity(1), "GridCongruence(n=1, labels=(0, 1, 2, 3))", ("n", "labels")),
    (_DIAGRAM,
     "BorderedDiagram(lattice=FiniteLattice(size=4, covers=[(0, 1), (0, 3), (1, 2), (3, 2)]),"
     " left_chain=(0, 3, 2), right_chain=(0, 1, 2))",
     ("lattice", "left_chain", "right_chain")),
    (groups.csl_build((2, 3), Permutation((2, 1))),
     "CyclicCslInstance(primes=(2, 3), pi=Permutation(images=(2, 1)), h_orders=(1, 2, 6),"
     " k_orders=(1, 3, 6), elements=(1, 2, 3, 6))",
     ("primes", "pi", "h_orders", "k_orders", "elements")),
    (extract.trajectory(_DIAGRAM, 1), "Trajectory(edges=((0, 3), (1, 2)))", ("edges",)),
]
IDS = [value.__class__.__name__ for value, _, _ in VALUES]


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
class TestValueClasses:
    def test_repr(self, value, text, fields):
        assert repr(value) == text

    def test_equality_and_hash_by_field(self, value, text, fields):
        args = [copy.deepcopy(getattr(value, name)) for name in fields]
        twin = value.__class__(*args)
        assert twin is not value and twin == value and not twin != value
        # the hash of the tuple of fields, as the dataclasses had, so sets
        # of values iterate in the same order
        assert hash(twin) == hash(value) == hash(tuple(args))
        assert value != tuple(args) and value != object()

    def test_unequal_in_one_field(self, value, text, fields):
        other = {Permutation: Permutation((1, 2)),
                 SegmentPartition: SegmentPartition(((1, 2),)),
                 Grid: Grid(2),
                 GridCongruence: GridCongruence(1, (0, 0, 1, 2)),
                 BorderedDiagram: _DIAGRAM.reflected(),
                 groups.CyclicCslInstance: groups.csl_build((2, 3), Permutation((1, 2))),
                 extract.Trajectory: extract.Trajectory(((0, 1), (3, 2)))}[value.__class__]
        assert other != value and not other == value

    def test_immutable(self, value, text, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        *(lambda v, protocol=protocol: pickle.loads(pickle.dumps(v, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1))],
        ids=["copy", "deepcopy",
             *(f"pickle{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_and_pickles(self, value, text, fields, clone):
        twin = clone(value)
        assert twin.__class__ is value.__class__
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_derives_the_contract():
    for info in pkgutil.iter_modules(slimlat.__path__):
        importlib.import_module(f"slimlat.{info.name}")
    tested = {value.__class__ for value, _, _ in VALUES}
    for cls in _subclasses(perm._Frozen):
        assert cls in tested, f"{cls.__qualname__} is missing from VALUES"
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__qualname__


@pytest.mark.parametrize("cls", [GridCongruence, extract.Trajectory, groups.CyclicCslInstance],
                         ids=lambda cls: cls.__name__)
def test_store_only_classes_inherit_a_constructor_that_counts_fields(cls):
    assert "__init__" not in vars(cls)
    fields = (None,) * len(cls.__slots__)
    assert cls(*fields) == cls(*fields)
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match=f"{cls.__qualname__} takes {len(fields)} fields"):
            cls(*wrong)


def test_permutation_takes_any_iterable():
    p = Permutation([2, 1])
    assert p.images == (2, 1) and p == Permutation((2, 1))
    assert hash(p) == hash(Permutation(iter((2, 1))))
    assert Permutation(images=range(1, 4)) == Permutation.identity(3)


def test_validation_stays_in_the_constructors():
    with pytest.raises(perm.DuplicateValue):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        SegmentPartition(((2,), (1,)))
    with pytest.raises(ValueError):
        Grid(-1)
    for make in (lambda: GridCongruence.from_labels(-2, [0]), lambda: GridCongruence.identity(-3),
                 lambda: GridCongruence.from_labels(-1, [])):
        with pytest.raises(ValueError, match="side must be nonnegative"):
            make()
    with pytest.raises(ValueError):
        BorderedDiagram(_DIAGRAM.lattice, (0, 2), _DIAGRAM.right_chain)


def test_one_size_cap_error():
    # so that one except clause catches every refusal, from rho_class to diagrams_of
    assert lattice.TooLarge is perm.TooLarge
    with pytest.raises(lattice.TooLarge):
        perm.rho_class(Permutation(tuple(3 * k + v for k in range(13) for v in (2, 3, 1))))


def test_grid_cell_is_a_named_pair():
    cell = grid.GridCell(1, 2)
    assert cell == (1, 2) and cell.i == 1 and cell.j == 2
    assert repr(cell) == "GridCell(i=1, j=2)"
    assert pickle.loads(pickle.dumps(cell)) == cell


class TestLazyExports:
    @pytest.mark.parametrize("name", [n for n in slimlat.__all__ if n != "__version__"])
    def test_name_is_its_home_modules_object(self, name):
        value = getattr(slimlat, name)
        home = value.__module__
        assert home.startswith("slimlat.")
        assert getattr(importlib.import_module(home), name) is value
        assert name in dir(slimlat)

    def test_all_is_complete_and_unique(self):
        assert len(set(slimlat.__all__)) == len(slimlat.__all__) == 49
        assert slimlat.__version__ == "0.1.0"
        assert set(slimlat.__all__) <= set(dir(slimlat))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="KERNEL_IMPL"):
            slimlat.KERNEL_IMPL
        assert getattr(slimlat, "KERNEL_IMPL", None) is None
        assert not hasattr(slimlat, "quotient")  # public in grid, not exported

    def test_submodules_import_from_the_package(self):
        from slimlat import grid as by_from
        import slimlat.grid
        assert by_from is slimlat.grid is grid

    def test_star_import(self):
        namespace: dict = {}
        exec("from slimlat import *", namespace)
        assert set(slimlat.__all__) <= set(namespace)
        assert namespace["phi0"] is grid.phi0
