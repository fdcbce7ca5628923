"""Finite ladder operators and the plane algebra they induce.

Everything here operates on plain complex numpy arrays.  A dim-level
truncation of the oscillator ladder satisfies the continuum bracket
relations exactly on the leading (dim-1)-dimensional block; the last
diagonal entry of [Z, Zdag] carries -(dim-1) instead of +1.  That artifact
is unavoidable in any finite representation (the trace of a commutator
vanishes), so algebra checks in this package always report the clean block
and the artifact separately instead of pretending the truncation away.

An operator family is given as factor groups: one list of (label, dim x dim
matrix) per ladder factor.  On the tensor product of two ladders the first
group's matrices stand for A (x) I and the second's for I (x) B
(tensor_operators builds those dim^2 x dim^2 matrices).  Brackets of two
operators on the same factor equal [A, B] (x) I, and brackets across
factors vanish exactly, so commutator_table, the one bracket-table routine,
works per factor on the dim x dim matrices and never on the tensor space.
Every family takes its coordinate pairs from build_xy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NcParams",
    "CommutatorReport",
    "build_ladder",
    "build_xy",
    "commutator",
    "commutator_table",
    "distance_spectrum",
    "hermiticity_defect",
    "require_dim",
    "tensor_operators",
]


def require_dim(dim: int, minimum: int = 2) -> int:
    """Validate a truncation dimension, returning it unchanged."""
    if not isinstance(dim, (int, np.integer)):
        raise ValueError(f"dim must be an integer, got {type(dim).__name__}")
    if dim < minimum:
        raise ValueError(f"dim must be >= {minimum}, got {dim}")
    return int(dim)


@dataclass(frozen=True)
class NcParams:
    """Length scale L and hbar for a single noncommutative plane.

    L2 = L**2 is the commutator scale: [X, Y] = i L^2 on the clean block.
    """

    L: float
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"length scale L must be positive and finite, got {self.L}")
        if self.L * self.L == 0:
            raise ValueError(f"length scale L = {self.L} is too small: L^2 underflows to 0")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def L2(self) -> float:
        return self.L * self.L


def build_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated lowering/raising pair (Z, Zdag) on a dim-level space.

    Z has matrix elements Z[n-1, n] = sqrt(n); Zdag is its conjugate
    transpose.  [Z, Zdag] equals the identity except for the last diagonal
    entry, which is -(dim-1).
    """
    dim = require_dim(dim)
    z = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    z[ns - 1, ns] = np.sqrt(ns)
    return z, z.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba for square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"first operand is not square: shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"second operand is not square: shape {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def build_xy(params: NcParams, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian coordinate pair with [X, Y] = i L^2 on the clean block.

    X = L (Z + Zdag) / sqrt(2),  Y = L (Z - Zdag) / (i sqrt(2)).
    Both are Hermitian by construction.  The last diagonal entry of the
    commutator is -(dim-1) i L^2, the truncation artifact.
    """
    z, zdag = build_ladder(dim)
    scale = params.L / math.sqrt(2.0)
    x = scale * (z + zdag)
    y = -1j * scale * (z - zdag)
    return x, y


def distance_spectrum(params: NcParams, dim: int) -> np.ndarray:
    """Eigenvalues of the squared-distance operator, sorted ascending.

    S^2 = L^2 (2 Zdag Z + 1) has exact eigenvalues L^2 (2n + 1),
    n = 0 .. dim-1: the plane supports only quantized distances from the
    origin.  S^2 is diagonal in the ladder basis, with Zdag Z carrying
    r_n * r_n for the ladder element r_n = sqrt(n), so its eigenvalues are
    those diagonal entries, ascending as n is (each step keeps the order);
    no eigensolver is needed.
    """
    r = np.sqrt(np.arange(require_dim(dim), dtype=float))
    return params.L2 * (2.0 * (r * r) + 1.0)


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dagger|, zero for exactly Hermitian input."""
    a = np.asarray(a, dtype=complex)
    return float(np.abs(a - a.conj().T).max())


@dataclass(frozen=True)
class CommutatorReport:
    """Pairwise bracket table for a family of truncated operators.

    leading[i, j]   scalar c with [O_i, O_j] = c * I on the clean block
    artifact[i, j]  last diagonal entry of [O_i, O_j] (equals
                    -(dim-1) * leading for ladder-built operators)
    clean_deviation[i, j]  max |[O_i, O_j] - leading * I| over the clean
                    block; certifies the leading value is not a fluke of
                    one matrix entry
    dim             single-factor truncation dimension the artifact refers to
    """

    labels: tuple[str, ...]
    leading: np.ndarray
    artifact: np.ndarray
    clean_deviation: np.ndarray
    dim: int

    def max_clean_deviation(self) -> float:
        return float(self.clean_deviation.max())


def commutator_table(
    groups: list[list[tuple[str, np.ndarray]]],
    dim: int,
) -> CommutatorReport:
    """Pairwise bracket table for operators on separate ladder factors.

    groups holds one list of (label, matrix) per ladder factor; each matrix
    is dim x dim and stands for itself tensored with the identity on every
    other factor.  A bracket within a group costs one dense dim x dim
    commutator c: leading is c[0, 0], artifact is c[-1, -1], and the clean
    block is the levels below the top one, c[:-1, :-1].  Brackets across
    groups are exact zeros.  Requires dim >= 3 so the clean block is big
    enough to certify constancy.
    """
    dim = require_dim(dim, minimum=3)
    entries = [entry for group in groups for entry in group]
    for label, m in entries:
        if np.shape(m) != (dim, dim):
            raise ValueError(f"operator {label!r} must be {dim} x {dim}, got shape {np.shape(m)}")
    n = len(entries)
    leading = np.zeros((n, n), dtype=complex)
    artifact = np.zeros((n, n), dtype=complex)
    deviation = np.zeros((n, n), dtype=float)
    eye = np.eye(dim - 1)
    start = 0
    for group in groups:
        for a, (_, ma) in enumerate(group, start):
            for b, (_, mb) in enumerate(group, start):
                if a == b:
                    continue
                c = commutator(ma, mb)
                leading[a, b] = c[0, 0]
                artifact[a, b] = c[-1, -1]
                deviation[a, b] = float(np.abs(c[:-1, :-1] - c[0, 0] * eye).max())
        start += len(group)
    return CommutatorReport(
        labels=tuple(label for label, _ in entries),
        leading=leading,
        artifact=artifact,
        clean_deviation=deviation,
        dim=dim,
    )


def tensor_operators(
    groups: list[list[tuple[str, np.ndarray]]],
    dim: int,
) -> dict[str, np.ndarray]:
    """The dim^2 x dim^2 matrices two factor groups stand for, by label.

    The first group's matrices become A (x) I, the second's I (x) B, so
    operators from different groups commute exactly.
    """
    first, second = groups
    eye = np.eye(require_dim(dim))
    ops = {label: np.kron(m, eye) for label, m in first}
    ops.update({label: np.kron(eye, m) for label, m in second})
    return ops
