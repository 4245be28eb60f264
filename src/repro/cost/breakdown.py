"""CostBreakdown: the structured result every cost model returns.

A breakdown is an ordered mapping of named terms (floats on the scalar path,
NumPy arrays on the vectorized path) plus per-term *provenance* — a short
statement of the formula and its source in the paper — and a ``critical``
tuple naming the terms that sum to the critical-path ``total``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError


def _is_array(v: Any) -> bool:
    return isinstance(v, np.ndarray)


@dataclass(frozen=True)
class CostBreakdown(Mapping):
    """Named cost terms with provenance, scalar or vectorized.

    ``critical`` lists the terms whose (left-to-right) sum is the
    critical-path total; terms outside it are informational (e.g. the
    pre-overlap ``comm`` next to the exposed ``comm_exposed``).

    >>> bd = CostBreakdown(model="demo",
    ...                    terms={"compute": 2.0, "comm": 1.0, "raw": 9.0},
    ...                    critical=("compute", "comm"))
    >>> bd.total
    3.0
    >>> round(bd.fraction("comm"), 4)
    0.3333
    >>> bd["raw"], bd.shape
    (9.0, ())
    """

    model: str
    terms: dict[str, Any]
    provenance: dict[str, str] = field(default_factory=dict)
    critical: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.terms:
            raise ConfigurationError(f"{self.model}: breakdown has no terms")
        for name in self.critical:
            if name not in self.terms:
                raise ConfigurationError(
                    f"{self.model}: critical term {name!r} not among "
                    f"{sorted(self.terms)}"
                )

    # -- mapping protocol ---------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self.terms[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # -- aggregates ---------------------------------------------------------------

    @property
    def total(self) -> Any:
        """Critical-path sum, accumulated in declaration order so the scalar
        path reproduces handwritten ``a + b + c`` expressions bitwise."""
        names = self.critical or tuple(self.terms)
        acc = self.terms[names[0]]
        for name in names[1:]:
            acc = acc + self.terms[name]
        return acc

    def fraction(self, name: str) -> Any:
        """Share of the critical-path total contributed by ``name``."""
        term, total = self.terms[name], self.total
        if _is_array(term) or _is_array(total):
            total = np.asarray(total)
            safe = np.where(total != 0, total, 1.0)
            return np.where(total != 0, np.asarray(term) / safe, 0.0)
        return term / total if total else 0.0

    # -- shape handling -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Broadcast shape of the terms (``()`` for the scalar path)."""
        return np.broadcast_shapes(*(np.shape(v) for v in self.terms.values()))

    def at(self, *index: int) -> "CostBreakdown":
        """Scalar breakdown at one grid point of a vectorized evaluation."""
        shape = self.shape
        if len(index) != len(shape):
            raise ConfigurationError(
                f"{self.model}: index {index} does not match shape {shape}"
            )
        picked = {}
        for name, value in self.terms.items():
            full = np.broadcast_to(np.asarray(value), shape)
            picked[name] = full[index].item()
        return CostBreakdown(
            model=self.model,
            terms=picked,
            provenance=self.provenance,
            critical=self.critical,
        )
