"""Symbolic Pauli strings and their action as row operations.

A Pauli string is a tensor product of single-site Pauli operators on a qubit
register.  Qubit 0 is the most significant bit of the computational-basis
index.  Strings act as signed row permutations and row gathers over their
-1 eigenspaces; no dense matrix of a string is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

AXES = ("x", "y", "z")

_TOKEN = re.compile(r"^([xyz])([0-9]+)$")


class OperatorLabelError(ValueError):
    """Raised for malformed or contradictory operator labels."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-site Pauli operators.

    ``terms`` maps site index to axis; absent sites carry the identity.  The
    empty string is the identity operator.  Stored as a sorted tuple so
    instances are hashable and usable as dict keys.
    """

    terms: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        sites = [site for site, _ in self.terms]
        if any(site < 0 for site in sites):
            raise OperatorLabelError(f"negative site index in {self.terms!r}")
        if len(set(sites)) != len(sites):
            raise OperatorLabelError(f"duplicate site in {self.terms!r}")
        for _, axis in self.terms:
            if axis not in AXES:
                raise OperatorLabelError(f"unknown axis {axis!r}")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))

    @classmethod
    def from_terms(
        cls, terms: Mapping[int, str] | Iterable[tuple[int, str]]
    ) -> "PauliString":
        if isinstance(terms, Mapping):
            terms = terms.items()
        return cls(tuple(terms))

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.terms)

    def axis_at(self, site: int) -> str | None:
        for s, axis in self.terms:
            if s == site:
                return axis
        return None

    def label(self) -> str:
        return "*".join(f"{axis}{site}" for site, axis in self.terms)

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.label() or "<identity>"


def parse_operator_label(text: str) -> PauliString:
    """Parse a label like ``"z1"`` or ``"x2*x3"`` into a :class:`PauliString`.

    Grammar: ``axis site ('*' axis site)*`` with axis in {x, y, z} and site a
    decimal integer.  Duplicate sites are rejected.
    """
    if not isinstance(text, str):
        raise OperatorLabelError(f"operator label must be a string, got {text!r}")
    if not text.strip():
        raise OperatorLabelError(f"empty operator label {text!r}")
    terms = []
    for fragment in text.strip().split("*"):
        match = _TOKEN.match(fragment.strip())
        if match is None:
            raise OperatorLabelError(
                f"malformed token {fragment.strip()!r} in label {text!r}"
            )
        axis, site = match.group(1), int(match.group(2))
        if any(site == s for s, _ in terms):
            raise OperatorLabelError(f"duplicate site {site} in label {text!r}")
        terms.append((site, axis))
    return PauliString(tuple(terms))


def as_pauli_string(op: "PauliString | str") -> PauliString:
    if isinstance(op, PauliString):
        return op
    return parse_operator_label(op)


def signed_permutation(
    p: PauliString, register_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, sign)`` such that ``p`` maps ``a`` to ``sign[:, None] * a[perm]``.

    A Pauli string sends each basis state to one basis state times a phase,
    so applying it from the left is a row gather with a phase per row.
    """
    if p.terms and max(p.sites) >= register_size:
        raise ValueError(
            f"operator {p.label()!r} uses site {max(p.sites)} outside "
            f"register of {register_size} qubits"
        )
    index = np.arange(2**register_size)
    perm = index.copy()
    sign = np.ones(2**register_size, dtype=complex)
    for site, axis in p.terms:
        shift = register_size - 1 - site
        parity = 1 - 2 * ((index >> shift) & 1)  # (-1)^bit of the row
        if axis != "z":
            perm ^= 1 << shift
        if axis == "y":
            sign *= -1j * parity
        elif axis == "z":
            sign *= parity
    return perm, sign


def minus_eigenspace(
    p: PauliString, register_size: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Orthonormal basis B of the -1 eigenspace of ``p``, as row operations.

    Returns ``(rows, partners, phases)`` such that ``B^dag @ a`` is
    ``a[rows]`` for a diagonal ``p`` (``partners`` and ``phases`` are None)
    and ``(a[rows] - phases[:, None] * a[partners]) / sqrt(2)`` otherwise,
    with one row per pair {r, perm[r]} of ``signed_permutation``.  Any
    non-identity string has ``2**register_size / 2`` such rows; the identity
    has none.  Since ``p = I - 2 B B^dag``, products with ``p`` reduce to
    products with ``B^dag``, of half the size.
    """
    perm, sign = signed_permutation(p, register_size)
    index = np.arange(len(perm))
    if np.array_equal(perm, index):
        return np.flatnonzero(sign.real < 0), None, None
    rows = np.flatnonzero(index < perm)
    return rows, perm[rows], sign[rows]


def minus_rows(u: np.ndarray, space, out: np.ndarray) -> np.ndarray:
    """D = B^dag u for ``space = minus_eigenspace(...)``.

    ``out`` holds two h x 2h buffers: D is written into the first rows of
    ``out[0]`` (one row per basis vector of B), and ``out[1]`` holds the
    partner rows of a non-diagonal string.  A space with ``phases`` but no
    ``partners`` scales each gathered row by its phase.
    """
    rows, partners, phases = space
    d, moved = out[0, : len(rows)], out[1, : len(rows)]
    np.take(u, rows, axis=0, out=d, mode="clip")
    if partners is not None:
        np.take(u, partners, axis=0, out=moved, mode="clip")
        moved *= phases[:, None]
        d -= moved
        d *= np.sqrt(0.5)
    elif phases is not None:
        d *= phases[:, None]
    return d
