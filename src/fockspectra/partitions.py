"""Integer partitions, Young-diagram statistics, and admissible index sequences.

For each diagonal box i of a Young diagram we record three numbers:

* hook number d_i: boxes strictly right of the box in its row, boxes strictly
  below it in its column, plus the box itself;
* leg number q_i: boxes below the box in its column plus the box itself
  (the diagonal box IS counted here, which is one more than the common
  arm/leg convention -- keep that in mind when comparing with other sources);
* leg increment l_i = q_i - q_{i+1}, with q_{k+1} = 0.

Diagrams with ell rows are in bijection with sequences (d_1, l_1), ...,
(d_k, l_k) satisfying l_i >= 1, d_i > d_{i+1} + l_i for i < k and d_k >= l_k.
Such sequences are called admissible; they index the product basis used by
the spectral module, and admissible_sequences reads them off the partitions
through this map.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence


class HookLeg(NamedTuple):
    hook: int       # d_i
    leg: int        # q_i (diagonal box included)
    increment: int  # l_i = q_i - q_{i+1}


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def count_partitions(d: int, ell: int) -> int:
    """Number of partitions of d with exactly ell parts."""
    if d < 0 or ell < 0:
        return 0
    if d == 0 or ell == 0:
        return 1 if d == 0 and ell == 0 else 0
    if ell > d:
        return 0
    # removing one from each part leaves a partition of d - ell into parts <= ell
    rest = d - ell
    table = [1] + [0] * rest
    for part in range(1, min(ell, rest) + 1):
        for total in range(part, rest + 1):
            table[total] += table[total - part]
    return table[rest]


def partitions_with_length(d: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of d with exactly ell parts, in decreasing lex order."""
    if ell == 0:
        return ((),) if d == 0 else ()
    if d < 0 or ell < 0 or ell > d:
        return ()
    out: list[tuple[int, ...]] = []
    # explicit stack: parts[k] fills slot k, rems[k] is what remained before
    # it; the last slot takes whatever remains after slot ell - 2
    parts: list[int] = []
    rems: list[int] = []
    rem, cap = d, d
    while True:
        while len(parts) < ell - 1:  # descend, largest part first
            p = min(cap, rem - (ell - len(parts) - 1))
            rems.append(rem)
            parts.append(p)
            rem, cap = rem - p, p
        out.append((*parts, rem))
        while parts:  # backtrack to the deepest slot that can still shrink
            p, rem = parts.pop() - 1, rems.pop()
            if p * (ell - len(parts)) >= rem:  # weakly decreasing parts still fit
                rems.append(rem)
                parts.append(p)
                rem, cap = rem - p, p
                break
        else:
            return tuple(out)


def hook_leg_profile(parts: Sequence[int]) -> tuple[HookLeg, ...]:
    """Hook number, leg number and leg increment for each diagonal box."""
    parts = check_partition(parts)
    if not parts:
        raise ValueError("empty partition has no diagonal boxes")
    k = sum(1 for i, p in enumerate(parts, start=1) if p >= i)
    # only the k diagonal columns matter; parts[0] may be huge
    legs = [sum(1 for p in parts if p >= i) - i + 1 for i in range(1, k + 1)]
    hooks = [(parts[i - 1] - i) + legs[i - 1] for i in range(1, k + 1)]
    out = []
    for i in range(k):
        q_next = legs[i + 1] if i + 1 < k else 0
        out.append(HookLeg(hooks[i], legs[i], legs[i] - q_next))
    return tuple(out)


def is_regular_pair(d1: int, l1: int, d2: int, l2: int) -> bool:
    """True when g(d1, l1) g(d2, l2) is a regular pair: d1 > d2 + l1."""
    return d1 > d2 + l1


def is_admissible(seq: Iterable[tuple[int, int]]) -> bool:
    """True when a (hook, increment) sequence comes from a Young diagram."""
    seq = tuple(seq)
    if any(l < 1 for _, l in seq):
        return False
    if not all(is_regular_pair(*a, *b) for a, b in zip(seq, seq[1:])):
        return False
    return not seq or seq[-1][0] >= seq[-1][1]


def profile_to_partition(seq: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The unique Young diagram with the given (hook, increment) sequence."""
    seq = tuple(seq)
    if not is_admissible(seq):
        raise ValueError(f"inadmissible (hook, increment) sequence: {seq}")
    k = len(seq)
    legs = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        legs[i] = legs[i + 1] + seq[i][1]
    # row i (1-based, i <= k) has arm d_i - q_i to the right of column i
    rows = [seq[i][0] - legs[i] + (i + 1) for i in range(k)]
    # rows below the last diagonal box are read off from the column heights
    ell = legs[0]
    for r in range(k + 1, ell + 1):
        rows.append(sum(1 for i in range(k) if (i + 1) + legs[i] - 1 >= r))
    return check_partition(rows)


@lru_cache(maxsize=None)  # read again by every straighten_pair landing on the component
def admissible_sequences(d: int, ell: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All admissible sequences with hook sum d and increment sum ell.

    The (hook, increment) profiles of the partitions of d with ell parts,
    the empty partition giving the empty sequence.  Sorted in decreasing
    lexicographic order for the pair order "larger hook first, then smaller
    increment" -- the order the spectral module uses for its bases and
    matrices.
    """
    seqs = [
        tuple((e.hook, e.increment) for e in hook_leg_profile(p)) if p else ()
        for p in partitions_with_length(d, ell)
    ]
    return tuple(sorted(seqs, key=product_sort_key))


def pair_sort_key(pair: tuple[int, int]) -> tuple[int, int]:
    """Ascending sort under this key = descending pair order.

    (d1, l1) dominates (d2, l2) when d1 > d2, or d1 == d2 and l1 < l2.
    """
    d, ell = pair
    return (-d, ell)


def product_sort_key(seq: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Lexicographic extension of pair_sort_key to factor sequences."""
    return tuple(pair_sort_key(p) for p in seq)
