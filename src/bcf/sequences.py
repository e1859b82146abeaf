"""k-bonacci integer sequences.

Seeds are k-1 zeros followed by a one; each later term is the sum of the
previous k terms.  k=2 is Fibonacci, k=3 Tribonacci, k=4 Tetranacci.
"""

from __future__ import annotations


def kbonacci(k: int, n: int) -> list[int]:
    """First n terms of the order-k sequence."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError("n must be >= k")
    terms = [0] * (k - 1) + [1]
    while len(terms) < n:
        terms.append(sum(terms[-k:]))
    return terms[:n]
