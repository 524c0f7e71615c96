"""Permutations of {1, ..., n}, their segments, and the inversion equivalence.

Permutations are kept in one-line notation with 1-based values: the tuple
``(s(1), ..., s(n))``.  An interval ``I`` of the domain is *closed* under a
permutation ``s`` when ``s(I) = I``; it is a *section* when ``I`` and the two
flanks ``{1..min(I)-1}`` and ``{max(I)+1..n}`` are all closed.  The minimal
sections are the *segments*, and they partition the domain.

Two permutations are equivalent here (``rho_equivalent``) when they have the
same segments and, on each segment, one restriction is the other or its
inverse.  Classes of this equivalence are what the :mod:`slimlat.grid` and
:mod:`slimlat.extract` constructions classify.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

# the largest permutation size build, render-grid and group-realize accept;
# on a 2-vCPU VM, slimlat build at n = 128 takes 0.07 s with a 22 MB peak for
# a random permutation and 0.09 s with a 28 MB peak for the reversal (8,257
# elements, the most at n = 128), and extract of the reversal's diagram
# 0.11 s with a 36 MB peak, each command in a child process
SIZE_CAP = 128
# enumerate_reps filters all of S_n: about 2 s at n = 9 on a 2-vCPU VM
ENUMERATION_CAP = 9
# rho_class builds every member: 2^12 = 4,096 (12 summed copies of (2,3,1), n = 36)
# take 0.02 s on a 2-vCPU VM, 2^14 take 0.1 s; no class with n < 39 is larger
RHO_CLASS_CAP = 4096
# class_counts costs O(n^2) operations on integers of O(n log n) bits: on a
# 2-vCPU VM 0.07 s at n = 300, 0.32 s at n = 500, 0.69 s at n = 600
COUNT_CAP = 500


class DuplicateValue(ValueError):
    """A value occurs twice in one-line notation."""


class OutOfRange(ValueError):
    """A value in one-line notation falls outside {1..n}."""


class LengthMismatch(ValueError):
    """Two permutations that must share a domain have different sizes."""


class TooLarge(ValueError):
    """Input exceeds a configured size cap."""


class IntervalOutOfRange(ValueError):
    """An interval argument is not an interval of {1..n}."""


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields as ``__slots__``, in constructor order, and
    equality (same class, equal fields), the hash (of the tuple of fields),
    the repr, copies and pickles (rebuilt through the constructor) are
    derived from them.  ``__init__`` is inherited, storing its positional
    arguments as the fields, unless the class validates its input; then its
    own stores them with ``object.__setattr__``.  Assigning or deleting a
    field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self.__slots__)}"
                            f" fields {self.__slots__}, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # field by field: building two tuples made this 3x slower
            for name in self.__slots__:
                if getattr(self, name) != getattr(other, name):
                    return False
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Permutation(_Frozen):
    """A permutation of {1..n} in one-line notation (n = 0 is allowed).

    >>> s = Permutation((2, 3, 1))
    >>> s(1), s(3)
    (2, 1)
    >>> s.inverse().images
    (3, 1, 2)
    >>> Permutation((1, 1, 3))
    Traceback (most recent call last):
        ...
    slimlat.perm.DuplicateValue: value 1 appears more than once
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        # any iterable of images is accepted, and stored as a tuple so that
        # permutations hash
        if not isinstance(images, tuple):
            images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise OutOfRange(f"value {v} outside 1..{n}")
            if seen[v - 1]:
                raise DuplicateValue(f"value {v} appears more than once")
            seen[v - 1] = True
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRange(f"argument {i} outside 1..{self.n}")
        return self.images[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def restrict(self, lo: int, hi: int) -> "Permutation":
        """The restriction to a closed interval {lo..hi}, reindexed to {1..hi-lo+1}.

        >>> Permutation((1, 3, 2)).restrict(2, 3).images
        (2, 1)
        """
        if not (type(lo) is int and type(hi) is int and 1 <= lo <= hi <= self.n):
            raise IntervalOutOfRange(f"{lo}..{hi} is not a nonempty interval of 1..{self.n}")
        if not is_closed(self, range(lo, hi + 1)):
            raise ValueError(f"{lo}..{hi} is not closed under {self.images}")
        return Permutation(tuple(self.images[i - 1] - lo + 1 for i in range(lo, hi + 1)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles sorted by their minima, fixed points omitted.

        >>> Permutation((2, 3, 1, 4, 6, 7, 5)).cycles()
        ((1, 2, 3), (5, 6, 7))
        """
        out = []
        seen = [False] * self.n
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self.images[i - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles()) or "()"


class SegmentPartition(_Frozen):
    """An ordered partition of {1..n} into consecutive intervals."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[tuple[int, ...], ...]):
        expect = 1
        for seg in segments:
            if not seg or seg[0] != expect or list(seg) != list(range(seg[0], seg[-1] + 1)):
                raise ValueError(f"segments {segments} do not tile 1..n consecutively")
            expect = seg[-1] + 1
        object.__setattr__(self, "segments", segments)

    @property
    def n(self) -> int:
        return self.segments[-1][-1] if self.segments else 0

    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Each segment as an inclusive (lo, hi) pair."""
        return tuple((seg[0], seg[-1]) for seg in self.segments)

    def maxima(self) -> tuple[int, ...]:
        return tuple(seg[-1] for seg in self.segments)


def _require_permutation(sigma: Permutation) -> tuple[int, ...]:
    """sigma's images; raises TypeError, naming the type, unless sigma is a
    Permutation."""
    if not isinstance(sigma, Permutation):
        raise TypeError(f"expected a Permutation, got {type(sigma).__name__}")
    return sigma.images


def validate(images: Iterable[int]) -> Permutation:
    """Check one-line notation and wrap it; raises DuplicateValue / OutOfRange.

    >>> validate([2, 1]).inverse().images
    (2, 1)
    """
    return Permutation(tuple(images))


def is_closed(sigma: Permutation, interval: Iterable[int]) -> bool:
    """True iff sigma maps the interval into itself; the empty interval is closed.

    >>> is_closed(Permutation((1, 7, 4, 5, 3, 6, 2, 9, 8)), range(2, 8))
    True
    >>> is_closed(Permutation((2, 3, 1)), [1])
    False
    """
    _require_permutation(sigma)
    members = sorted(interval)
    if not members:
        return True
    lo, hi = members[0], members[-1]
    if lo < 1 or hi > sigma.n:
        raise IntervalOutOfRange(f"{members} not within 1..{sigma.n}")
    if members != list(range(lo, hi + 1)):
        raise IntervalOutOfRange(f"{members} is not an interval")
    return all(lo <= sigma.images[i - 1] <= hi for i in members)


def segments(sigma: Permutation) -> SegmentPartition:
    """The partition of {1..n} into minimal sections of sigma.

    A prefix {1..k} of a bijection is closed iff max(s(1..k)) == k, and then it
    is automatically closed under the inverse as well, so one running-maximum
    scan finds every cut point.

    >>> segments(Permutation((1, 7, 4, 5, 3, 6, 2, 9, 8))).bounds()
    ((1, 1), (2, 7), (8, 9))
    >>> segments(Permutation((2, 3, 1))).bounds()
    ((1, 3),)
    """
    parts = []
    start = 1
    running = 0
    for k, v in enumerate(_require_permutation(sigma), start=1):
        running = max(running, v)
        if running == k:
            parts.append(tuple(range(start, k + 1)))
            start = k + 1
    return SegmentPartition(tuple(parts))


def _restriction(images: Sequence[int], lo: int, hi: int) -> tuple[int, ...]:
    return tuple(images[i - 1] for i in range(lo, hi + 1))


def _restriction_inverse(images: Sequence[int], lo: int, hi: int) -> tuple[int, ...]:
    # positions of lo..hi; valid because the interval is closed
    inv = [0] * (hi - lo + 1)
    for i in range(lo, hi + 1):
        inv[images[i - 1] - lo] = i
    return tuple(inv)


def rho_equivalent(sigma: Permutation, mu: Permutation) -> bool:
    """True iff sigma and mu have the same segments and agree on each segment
    up to inversion.

    >>> s = Permutation((1, 7, 4, 5, 3, 6, 2, 9, 8))
    >>> rho_equivalent(s, s.inverse())
    True
    >>> rho_equivalent(Permutation((1, 2)), Permutation((2, 1)))
    False
    """
    if len(_require_permutation(sigma)) != len(_require_permutation(mu)):
        raise LengthMismatch(f"sizes differ: {sigma.n} vs {mu.n}")
    segs = segments(sigma)
    if segs != segments(mu):
        return False
    for lo, hi in segs.bounds():
        fwd = _restriction(sigma.images, lo, hi)
        if _restriction(mu.images, lo, hi) not in (fwd, _restriction_inverse(sigma.images, lo, hi)):
            return False
    return True


def rho_class(sigma: Permutation) -> frozenset[Permutation]:
    """All members of sigma's class: every segment independently kept or inverted.

    >>> sorted(p.images for p in rho_class(Permutation((2, 3, 1))))
    [(2, 3, 1), (3, 1, 2)]
    >>> len(rho_class(Permutation((2, 1))))
    1

    Raises TooLarge, before building any member, above RHO_CLASS_CAP members.
    """
    choices = []
    for lo, hi in segments(sigma).bounds():
        fwd = _restriction(sigma.images, lo, hi)
        bwd = _restriction_inverse(sigma.images, lo, hi)
        choices.append((fwd,) if fwd == bwd else (fwd, bwd))
    count = 1 << sum(len(c) - 1 for c in choices)
    if count > RHO_CLASS_CAP:
        raise TooLarge(f"{count} class members exceed the cap {RHO_CLASS_CAP}")
    return frozenset(
        Permutation(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*choices)
    )


def class_size(sigma: Permutation) -> int:
    """len(rho_class(sigma)), without building the class: each segment on
    which sigma is not an involution doubles it.  O(n).

    >>> class_size(Permutation((2, 3, 1, 4, 6, 7, 5)))
    4
    >>> class_size(Permutation((2, 1)))
    1
    """
    doubled = sum(not is_involution_on(sigma, lo, hi) for lo, hi in segments(sigma).bounds())
    return 1 << doubled


def is_involution_on(sigma: Permutation, lo: int, hi: int) -> bool:
    """True iff sigma maps the interval lo..hi (1-based) onto itself and
    equals its own inverse there: sigma(sigma(i)) = i for each i in it.
    Raises IntervalOutOfRange unless 1 <= lo <= hi <= n.  O(hi - lo).

    >>> is_involution_on(Permutation((2, 1, 4, 5, 3)), 1, 2)
    True
    >>> is_involution_on(Permutation((2, 1, 4, 5, 3)), 3, 5)
    False
    """
    images = _require_permutation(sigma)
    if not (type(lo) is int and type(hi) is int and 1 <= lo <= hi <= len(images)):
        raise IntervalOutOfRange(f"{lo}..{hi} is not a nonempty interval of 1..{len(images)}")
    return all(lo <= images[i - 1] <= hi and images[images[i - 1] - 1] == i
               for i in range(lo, hi + 1))


def canonical_rep(sigma: Permutation) -> Permutation:
    """The lexicographically least member of sigma's class.

    Segments occupy disjoint position blocks, so the global minimum is the
    segment-wise minimum of each restriction and its inverse.
    """
    pieces = []
    for lo, hi in segments(sigma).bounds():
        fwd = _restriction(sigma.images, lo, hi)
        pieces.append(min(fwd, _restriction_inverse(sigma.images, lo, hi)))
    return Permutation(tuple(itertools.chain.from_iterable(pieces)))


def _images_canonical(images: tuple[int, ...]) -> bool:
    # inlined segment scan + per-segment comparison against the inverse
    n = len(images)
    inv = [0] * n
    for i, v in enumerate(images, start=1):
        inv[v - 1] = i
    start = 0  # 0-based segment start
    running = 0
    for k in range(n):
        running = max(running, images[k])
        if running == k + 1:
            if images[start : k + 1] > tuple(inv[start : k + 1]):
                return False
            start = k + 1
    return True


def enumerate_reps(n: int) -> list[Permutation]:
    """Canonical class representatives in lexicographic order, by filtering
    all of S_n.  Raises TooLarge above ENUMERATION_CAP."""
    if n < 0:
        raise OutOfRange("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    # itertools.permutations already yields in lexicographic order
    return [Permutation(images) for images in
            filter(_images_canonical, itertools.permutations(range(1, n + 1)))]


def class_counts(n: int) -> list[int]:
    """Number of equivalence classes in S_0, ..., S_n, by a closed form.

    A class is a sequence of segments, each an indecomposable permutation
    taken up to inversion.  Inversion pairs up the indecomposable
    permutations of length k except the involutions, so there are
    C(k) = (I(k) + J(k)) / 2 segment classes, where I(k) counts
    indecomposable permutations and J(k) indecomposable involutions.
    Splitting off the first segment gives I(k) = k! - sum I(a) (k-a)!, the
    same recurrence over the involution numbers for J, and
    Classes(n) = sum C(a) Classes(n-a).  O(n^2) exact-integer operations.
    These are also the numbers of slim semimodular lattices of length n
    (Czedli, Ozsvart and Udvari, Discrete Math. 2012).

    >>> class_counts(6)
    [1, 1, 2, 5, 17, 73, 397]
    """
    if n < 0:
        raise OutOfRange("n must be nonnegative")
    if n > COUNT_CAP:
        raise TooLarge(f"n={n} exceeds the counting cap {COUNT_CAP}")
    factorials = [1] * (n + 1)
    involutions = [1] * (n + 1)
    for k in range(2, n + 1):
        factorials[k] = k * factorials[k - 1]
        involutions[k] = involutions[k - 1] + (k - 1) * involutions[k - 2]
    indec = [0] * (n + 1)
    indec_inv = [0] * (n + 1)
    segment_classes = [0] * (n + 1)
    classes = [1] + [0] * n
    for k in range(1, n + 1):
        indec[k] = factorials[k] - sum(indec[a] * factorials[k - a] for a in range(1, k))
        indec_inv[k] = involutions[k] - sum(indec_inv[a] * involutions[k - a]
                                            for a in range(1, k))
        segment_classes[k] = (indec[k] + indec_inv[k]) // 2
        classes[k] = sum(segment_classes[a] * classes[k - a] for a in range(1, k + 1))
    return classes


def count_classes(n: int) -> int:
    """Number of equivalence classes in S_n; always at most n!.

    >>> [count_classes(n) for n in range(4)]
    [1, 1, 2, 5]
    """
    return class_counts(n)[n]


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order (raw iteration helper)."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
