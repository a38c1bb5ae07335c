"""Integer partitions and the statistics the amplitude layer consumes.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().  Every function of the package takes partitions in this
canonical form and does not re-check it: the sweeps here yield canonical
tuples, and normalize canonicalizes any other input at the caller's edge.
All row/column indices in formulas below are 1-based to
match the usual conventions, while the code iterates 0-based.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from .series import LaurentPoly, same


def normalize(mu: Iterable[int]) -> tuple[int, ...]:
    """Validate and canonicalize a partition given as any int iterable."""
    p = tuple(int(x) for x in mu)
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p


def weight(mu) -> int:
    return sum(mu)


def conjugate(mu) -> tuple[int, ...]:
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part > j) for j in range(mu[0]))


def kappa(mu) -> int:
    """Sum of mu_i*(mu_i - 2i + 1) over rows (1-based i).  Always even."""
    return sum(p * (p - 2 * i - 1) for i, p in enumerate(mu))


def contents(mu) -> list[int]:
    """Column minus row (0-based) over all cells, row by row."""
    out = []
    for i, p in enumerate(mu):
        out.extend(j - i for j in range(p))
    return out


def hook_at(mu, conj_mu, i: int, j: int) -> int:
    return mu[i] + conj_mu[j] - i - j - 1


def hooks(mu) -> list[int]:
    c = conjugate(mu)
    out = []
    for i, p in enumerate(mu):
        out.extend(hook_at(mu, c, i, j) for j in range(p))
    return out


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n in descending lexicographic order."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def all_partitions(max_weight: int) -> Iterator[tuple[int, ...]]:
    """Weight-major enumeration: all partitions of 0, then of 1, and so on."""
    for n in range(max_weight + 1):
        yield from partitions_of(n)


def contains(eta, mu) -> bool:
    """Whether the diagram of eta fits inside the diagram of mu."""
    if len(eta) > len(mu):
        return False
    return all(e <= m for e, m in zip(eta, mu))


def subpartitions(mu) -> Iterator[tuple[int, ...]]:
    for eta in all_partitions(weight(mu)):
        if contains(eta, mu):
            yield eta


def hook_pair_sum_sides(mu, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the hook/row-difference rearrangement at cutoff n.

    For n >= len(mu):
        sum_x t^h(x) + sum_{1<=i<j<=n} t^(mu_i - mu_j + j - i)
            = sum_{i<=n} sum_{j=1}^{mu_i - i + n} t^j.
    """
    if n < len(mu):
        raise ValueError("cutoff shorter than the partition")
    rows = list(mu) + [0] * (n - len(mu))
    lhs: Counter = Counter(hooks(mu))
    for i in range(n):
        for j in range(i + 1, n):
            lhs[rows[i] - rows[j] + (j + 1) - (i + 1)] += 1
    rhs: Counter = Counter()
    for i in range(n):
        top = rows[i] - (i + 1) + n
        for j in range(1, top + 1):
            rhs[j] += 1
    return LaurentPoly({(e,): c for e, c in lhs.items()}), LaurentPoly({(e,): c for e, c in rhs.items()})


def verify_hook_identity(mu, n: int) -> bool:
    return same(*hook_pair_sum_sides(mu, n))
