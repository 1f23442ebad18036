"""Partitions in a box, their counts, and the bijection onto configurations."""

from __future__ import annotations

from dataclasses import dataclass

from .cylinder import Config, MultiIndex, act


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive, got {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def fits_in_box(self, rows: int, cols: int) -> bool:
        """At most `rows` parts, each at most `cols`."""
        if len(self.parts) > rows:
            return False
        return all(p <= cols for p in self.parts)


def box_partitions(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols box, sorted by (size, parts)."""
    if rows < 0 or cols < 0:
        raise ValueError("box dimensions must be nonnegative")

    def grow(max_part: int, slots: int):
        yield ()
        if slots == 0:
            return
        for p in range(1, max_part + 1):
            for rest in grow(p, slots - 1):
                yield (p,) + rest

    found = [Partition(parts) for parts in grow(cols, rows)]
    found.sort(key=lambda lam: (lam.size, lam.parts))
    return found


def gaussian_counts(n: int, d: int) -> list[int]:
    """Entry w is the number of size-w partitions with at most n parts, each below d.

    Counted by direct enumeration of the n x (d-1) box, read once.
    """
    if d < 1:
        raise ValueError("width d must be positive")
    counts = [0] * ((d - 1) * n + 1)
    for lam in box_partitions(n, d - 1):
        counts[lam.size] += 1
    return counts


def gaussian_count(n: int, d: int, w: int) -> int:
    """Number of size-w partitions with at most n parts, each below d."""
    counts = gaussian_counts(n, d)
    return counts[w] if 0 <= w < len(counts) else 0


def partition_to_config(lam: Partition, n: int, d: int) -> Config:
    """Send a box partition to the configuration it indexes.

    With m_k the multiplicity of part k, the exponents
    (n - number of parts, m_1, ..., m_{d-1}) act on the origin.  Restricted
    to size-w partitions of the n x (d-1) box this is a bijection onto the
    configurations of size n and weight w.
    """
    if not lam.fits_in_box(n, d - 1):
        raise ValueError(f"partition {lam.parts} does not fit in a {n} x {d - 1} box")
    mult = [0] * (d + 1)
    for p in lam.parts:
        mult[p] += 1
    steps = (n - len(lam.parts),) + tuple(mult[1:d])
    return act(MultiIndex(steps), Config.origin(d))
