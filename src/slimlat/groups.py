"""Composition series of finite cyclic groups of squarefree order.

Subgroups of a cyclic group of order N correspond to divisors of N, with
intersection as gcd and product as lcm, so everything here is exact divisor
arithmetic.  For pairwise distinct primes p_1..p_n and a permutation pi,
``csl_build`` fixes two composition series of the cyclic group of order
p_1...p_n: H is the prefix chain H_i = p_1 * ... * p_i, and K rearranges the
same primes so that, walking both series downward from the whole group, the
i-th step on the H side and the pi(i)-th step on the K side carry the same
prime.

The intersections gcd(H_i, K_j), ordered by divisibility, form a lattice
whose dual is slim and semimodular.  The meet of two intersections is the
intersection at the coordinatewise minimum of their index pairs, and the
whole group lies on top, so the lattice is built from one walk over the
(n + 1)^2 index pairs, in O(n^2) gcds and without checking all pairs of
elements for joins and meets.  Bordered by the reversed H chain on the
left and the reversed K chain on the right, the dual extracts back exactly
pi, which is also the unique permutation matching factors of H to factors of
K of equal order (the classical refinement of counting composition factors).
The downward walk matches the bottom-up orientation of bordered diagrams:
the dual lattice starts at the whole group, so its i-th boundary step is the
i-th downward step of a series.

>>> inst = csl_build((2, 3), Permutation((2, 1)))
>>> inst.elements
(1, 2, 3, 6)
>>> jordan_holder_permutation(inst).images
(2, 1)
"""
from __future__ import annotations

import math
from collections.abc import Sequence

from slimlat.lattice import BorderedDiagram, FiniteLattice
from slimlat.perm import LengthMismatch, Permutation, _Frozen

_ORDER_CAP = 2 ** 63  # keep orders inside 64-bit machine integers


class DuplicatePrime(ValueError):
    """The same prime occurs twice."""


class NotPrime(ValueError):
    """A claimed prime is not prime."""


class Overflow(ValueError):
    """The group order would not fit a 64-bit machine integer."""


class FactorMismatch(ValueError):
    """The two requested composition steps have different prime quotients."""


class CyclicCslInstance(_Frozen):
    """Two composition series of one cyclic group, given by their orders."""

    __slots__ = ("primes", "pi", "h_orders", "k_orders", "elements")

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def group_order(self) -> int:
        return self.h_orders[-1]


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37.  The least
    composite that passes them all exceeds 3 * 10^23 (Sorenson and Webster,
    2015), so the answer is exact for every p below ``_ORDER_CAP``."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def first_primes(n: int) -> tuple[int, ...]:
    """The n smallest primes.

    >>> first_primes(5)
    (2, 3, 5, 7, 11)
    """
    out: list[int] = []
    p = 2
    while len(out) < n:
        if _is_prime(p):
            out.append(p)
        p += 1
    return tuple(out)


def csl_build(primes: Sequence[int], pi: Permutation) -> CyclicCslInstance:
    """The intersection lattice of the two composition series fixed by
    primes and pi."""
    primes = tuple(primes)
    if len(primes) != pi.n:
        raise LengthMismatch(f"{len(primes)} primes for a permutation of size {pi.n}")
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"primes {primes} are not pairwise distinct")
    for p in primes:
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
    order = 1
    for p in primes:
        order *= p
        if order >= _ORDER_CAP:
            raise Overflow(f"group order exceeds {_ORDER_CAP}")

    h_orders = [1]
    for p in primes:
        h_orders.append(h_orders[-1] * p)
    # downward step i of H carries p_{n+1-i}; the j-th downward step of K must
    # repeat the prime of the pi^{-1}(j)-th downward step of H, which makes
    # the j-th upward step carry p_{n+1-pi^{-1}(n+1-j)}
    n = pi.n
    inv = pi.inverse()
    k_orders = [1]
    for j in range(1, n + 1):
        k_orders.append(k_orders[-1] * primes[n - inv(n + 1 - j)])
    elements = sorted({math.gcd(h, k) for h in h_orders for k in k_orders})
    return CyclicCslInstance(primes, pi, tuple(h_orders), tuple(k_orders),
                             tuple(elements))


def csl_lattice(inst: CyclicCslInstance) -> FiniteLattice:
    """The intersections ordered by divisibility; element k is inst.elements[k]."""
    return _intersection_lattice(inst, reverse=False)


def csl_dual_diagram(inst: CyclicCslInstance) -> BorderedDiagram:
    """The order-reversed intersection lattice, bordered by the reversed
    H chain on the left and the reversed K chain on the right."""
    lattice = _intersection_lattice(inst, reverse=True)
    index = {d: k for k, d in enumerate(inst.elements)}
    left = tuple(index[d] for d in reversed(inst.h_orders))
    right = tuple(index[d] for d in reversed(inst.k_orders))
    return BorderedDiagram(lattice, left, right)


def _intersection_lattice(inst: CyclicCslInstance, reverse: bool) -> FiniteLattice:
    """The intersections gcd(H_i, K_j) ordered by divisibility (reversed on
    request); element k is inst.elements[k].

    The pairs (i, j) with gcd(H_i, K_j) = d are closed under coordinatewise
    minima, so row-major order meets d first at its least pair (i, j).  A
    strict divisor of d in the set is gcd(H_i', K_j') with i' < i or
    j' < j, so it divides gcd(H_{i-1}, K_j) or gcd(H_i, K_{j-1}).  As (i, j)
    is least, these are d/p and d/q for the primes p = H_i/H_{i-1} and
    q = K_j/K_{j-1}, so they are the lower covers of d: one when p = q, two
    incomparable ones otherwise.  The order is a lattice by construction,
    so it is built without validation.  Cost: O(n^2) gcds and mask unions.
    """
    elements = inst.elements
    index = {d: k for k, d in enumerate(elements)}
    m = len(elements)
    lower: list[tuple[int, ...]] = [()] * m  # lower divisibility covers
    below = [0] * m  # strict divisors, as a bitmask
    seen = [False] * m
    seen[0] = True  # 1, met first at (0, 0)
    row = [0] * len(inst.k_orders)
    for h in inst.h_orders[1:]:
        prev, row = row, [0]
        for j, k in enumerate(inst.k_orders[1:], start=1):
            x = index[math.gcd(h, k)]
            row.append(x)
            if seen[x]:
                continue
            seen[x] = True
            a, b = prev[j], row[j - 1]
            lower[x] = (a,) if a == b else (min(a, b), max(a, b))
            below[x] = below[a] | below[b] | 1 << a | 1 << b
    if reverse:
        # the strict divisors lie above, and numerically larger elements first
        return FiniteLattice._from_closed_blocks(lower, below, range(m - 1, -1, -1))
    upper: list[list[int]] = [[] for _ in range(m)]
    for y in range(m):
        for x in lower[y]:
            upper[x].append(y)
    above = [0] * m
    for x in range(m - 1, -1, -1):
        for y in upper[x]:
            above[x] |= above[y] | 1 << y
    return FiniteLattice._from_closed_blocks(upper, above, range(m))


def jordan_holder_permutation(inst: CyclicCslInstance) -> Permutation:
    """Match each downward step of H to the downward step of K with the same
    prime quotient; distinct primes make the matching unique.

    Computed from the stored orders alone; it coincides with the permutation
    extracted from the bordered dual diagram.
    """
    n = inst.n
    k_steps = {inst.k_orders[n + 1 - j] // inst.k_orders[n - j]: j
               for j in range(1, n + 1)}
    images = []
    for i in range(1, n + 1):
        p = inst.h_orders[n + 1 - i] // inst.h_orders[n - i]
        images.append(k_steps[p])
    return Permutation(tuple(images))


def projectivity_witness(inst: CyclicCslInstance, i: int, j: int) -> tuple[int, int]:
    """Divisors (x, y) witnessing that step i of H and step j of K are
    perspective: lcm with y climbs each step and gcd with y drops to x.

    Requires the two steps to carry the same prime; the four divisor
    identities are then checked outright.
    """
    if not (1 <= i <= inst.n and 1 <= j <= inst.n):
        raise IndexError(f"steps ({i}, {j}) outside 1..{inst.n}")
    p = inst.h_orders[i] // inst.h_orders[i - 1]
    q = inst.k_orders[j] // inst.k_orders[j - 1]
    if p != q:
        raise FactorMismatch(f"step primes differ: {p} vs {q}")
    x = math.gcd(inst.h_orders[i - 1], inst.k_orders[j - 1])
    y = p * x
    checks = (
        math.lcm(inst.h_orders[i - 1], y) == inst.h_orders[i],
        math.gcd(inst.h_orders[i - 1], y) == x,
        math.lcm(inst.k_orders[j - 1], y) == inst.k_orders[j],
        math.gcd(inst.k_orders[j - 1], y) == x,
    )
    if not all(checks):
        raise RuntimeError(f"witness equations failed for steps ({i}, {j}): {checks}")
    return x, y
