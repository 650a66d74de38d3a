"""Core SU(1,1)-valued trigonometric products of coefficient sequences.

A coefficient sequence is a finitely supported, doubly indexed complex
sequence F with every |F_n| < 1.  Each index n contributes the matrix

    [[ A_n,                B_n e^{2 pi i n t} ],
     [ conj(B_n) e^{-2 pi i n t},        A_n ]],

with A_n = (1 - |F_n|^2)^(-1/2) and B_n = F_n * A_n, and the product over
increasing n defines the pair (a(t), b(t)) with |a|^2 - |b|^2 = 1.  Only the
first row (a, b) is ever stored; the second row is its conjugate.

All functions here are pure; the dataclasses are frozen and safe to share
across threads.  Every binary64 product in the package, on a grid or at one
t and in any factor order, runs the one factor step ``_step`` in one of
two loops (``_fold_rows`` runs its arithmetic in place), with phase rows
from ``_phases``.  Both loops take their coefficients (A_n, B_n) from one
array kernel ``_factor``, whose every entry has the bits of the scalar
formula.  ``_fold`` folds one sequence with
scalar factors, so ``product_on_grid_arrays(F, ts)`` at ``ts[j]`` and at
the single point ``ts[j:j + 1]`` agree bit for bit.  ``_fold_rows`` folds
several sequences at once, one factor column per entry, on phases shared
by every row or given per row (each sequence at its own ``t``); it steps
every entry, a zero one as the exact identity factor, so each row matches
its own ``_fold`` (which skips zeros) bit for bit up to the sign of a zero,
and |a|, |b| exactly.

Every quadrature level is a power-of-two grid ``j / M``, and there the
phases need no ``exp``: ``e^{2 pi i n j / M}`` is entry ``(n * j) mod M`` of
the row ``_phases(1, k / M)``, the M-th roots of unity, with the index
reduced exactly in integers for every n.  ``_grid_phases(n, M, odd)``
gathers a level's row (with ``odd``, the row at its odd points
``(2j + 1) / M``) from one such table per M, so a translated sequence gets
exactly its translated phases and no certified number depends on the
offset; a grid that is not a power of two takes ``_phases``.  The
tables are built through ``_phases`` and kept in the module cache
``_ROOTS``, filled lazily and never changed after: each table is read-only,
and two threads racing on a miss store identical tables, so the cache is
safe to share across threads, and each process fills its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Entries with modulus >= 1 - MODULUS_GUARD are rejected: A_n would exceed
# ~7e5 and downstream logs lose precision.
MODULUS_GUARD = 1e-12


@dataclass(frozen=True)
class CoefficientSequence:
    """Finitely supported complex sequence with entries in the open unit disk.

    ``values[k]`` stores the entry at index ``offset + k``.  Exact zeros may
    be stored anywhere; the support window queries ignore leading and
    trailing zeros, while zeros inside the window are kept as identity
    factors.
    """

    offset: int
    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offset", int(self.offset))
        cap = 1.0 - MODULUS_GUARD
        for k, v in enumerate(vals):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError(f"entry {self.offset + k} is not finite")
            if abs(v) >= cap:
                raise DomainError(
                    f"entry {self.offset + k} has modulus {abs(v)!r} >= {cap!r}"
                )

    # -- support window -------------------------------------------------

    def support(self) -> tuple[int, int] | None:
        """(N_min, N_max) of the nonzero entries, or None if all zero."""
        nz = [k for k, v in enumerate(self.values) if v != 0]
        if not nz:
            return None
        return self.offset + nz[0], self.offset + nz[-1]

    def is_zero(self) -> bool:
        return self.support() is None

    def window_entries(self) -> list[tuple[int, complex]]:
        """(n, F_n) for n across the trimmed support window, zeros included."""
        s = self.support()
        if s is None:
            return []
        lo, hi = s[0] - self.offset, s[1] - self.offset
        return list(enumerate(self.values[lo:hi + 1], start=s[0]))

    def moduli(self) -> np.ndarray:
        """|F_n| over the trimmed window (empty array for the zero sequence)."""
        return np.array([abs(v) for _, v in self.window_entries()], dtype=float)

    def scaled(self, factor: float) -> "CoefficientSequence":
        return CoefficientSequence(self.offset, tuple(factor * v for v in self.values))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "offset": self.offset,
            "values": [[v.real, v.imag] for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoefficientSequence":
        """The inverse of ``to_json_dict``; malformed input raises a
        ValueError that names the problem."""
        if not isinstance(d, dict):
            raise ValueError(f"a JSON sequence must be an object, not {type(d).__name__}")
        for key in ("offset", "values"):
            if key not in d:
                raise ValueError(f"JSON sequence has no {key!r}")
        offset = d["offset"]
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ValueError(f"JSON sequence offset {offset!r} is not an integer")
        try:
            vals = tuple(complex(re, im) for re, im in d["values"])
        except (TypeError, ValueError):
            raise ValueError("JSON sequence values must be a list of [re, im] pairs") from None
        return cls(offset, vals)


def sequence_to_text(seq: CoefficientSequence) -> str:
    """Plain-text form: ``offset <int>`` then one ``<re> <im>`` line per entry.

    Floats are written with repr so the text round-trips exactly.
    """
    lines = [f"offset {seq.offset}"]
    for v in seq.values:
        lines.append(f"{v.real!r} {v.imag!r}")
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> CoefficientSequence:
    """Parse the plain-text format; errors carry the offending line number."""
    lines = [ln for ln in text.splitlines()]
    offset = None
    vals: list[complex] = []
    for i, raw in enumerate(lines, start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        if offset is None:
            parts = ln.split()
            if len(parts) != 2 or parts[0] != "offset":
                raise ValueError(f"line {i}: expected 'offset <integer>'")
            try:
                offset = int(parts[1])
            except ValueError:
                raise ValueError(f"line {i}: bad offset {parts[1]!r}") from None
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected '<re> <im>'")
        try:
            v = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"line {i}: bad entry {ln!r}") from None
        if abs(v) >= 1.0 - MODULUS_GUARD:
            raise DomainError(f"line {i}: modulus {abs(v)!r} outside the unit disk")
        vals.append(v)
    if offset is None:
        raise ValueError("line 1: missing 'offset <integer>' header")
    return CoefficientSequence(offset, tuple(vals))


# ---------------------------------------------------------------------------
# the factor kernel


def _log_a_sq(mod: float) -> float:
    """log A_n^2 = -log(1 - |F_n|^2), branch-accurate at both ends."""
    if mod < 0.5:
        return -math.log1p(-mod * mod)
    return -math.log((1.0 - mod) * (1.0 + mod))


def _factor(v):
    """(A_n, B_n) = ((1 - |F_n|^2)^(-1/2), F_n A_n) for an array of entries
    F_n = v, entry by entry.

    |F_n| is ``np.hypot`` of the real and imaginary parts: that is C
    ``hypot``, which the scalar complex ``abs`` calls too, so every entry
    has the bits of the formula on its own scalar entry.  numpy's complex
    ``np.abs`` would not (it differs in the last bit on about a third of
    random entries), and the fold would change.
    """
    m = np.hypot(v.real, v.imag)
    A = 1.0 / np.sqrt((1.0 - m) * (1.0 + m))
    return A, v * A


def _phases(n: int, ts: np.ndarray) -> np.ndarray:
    """e^{2 pi i n t} with the argument reduced before scaling by 2 pi."""
    frac = np.mod(float(n) * ts, 1.0)
    return np.exp(2j * np.pi * frac)


# per grid size M (a power of two): the read-only row _phases(1, j / M)
_ROOTS: dict[int, np.ndarray] = {}


def _grid_phases(n: int, grid: int, odd: bool = False) -> np.ndarray:
    """e^{2 pi i n t} on the grid level ``t = j / grid``, or with ``odd`` on
    its odd points ``(2j + 1) / grid``.

    For a power-of-two ``grid`` the row is gathered from the cached roots of
    unity at ``((n mod grid) * k) mod grid``, with ``n`` reduced as a Python
    int first, so it is exact for any integer ``n``.  Any other grid takes
    ``_phases`` itself.
    """
    ks = np.arange(1, grid, 2) if odd else np.arange(grid)
    if grid & (grid - 1):
        return _phases(n, ks / grid)
    roots = _ROOTS.get(grid)
    if roots is None:
        roots = _phases(1, np.arange(grid) / grid)
        roots.flags.writeable = False
        _ROOTS[grid] = roots
    return roots[n % grid * ks & (grid - 1)]  # (n * k) mod grid


def _step(a, b, A, B, e):
    """One factor of the fold:
        a <- a A_n + b conj(B_n) e^{-2 pi i n t},
        b <- a B_n e^{2 pi i n t} + b A_n.
    """
    return a * A + b * np.conj(B) * np.conj(e), a * B * e + b * A


def _fold(entries, phase, shape) -> tuple[np.ndarray, np.ndarray]:
    """First row (a, b) of the product of the factors (n, F_n), in the order
    the pairs come.

    ``phase(n)`` returns the row e^{2 pi i n t} of the given shape; it is
    called once per nonzero entry, as the fold reaches it (zero entries are
    identity factors).  The ``(A_n, B_n)`` of the nonzero entries come from
    one ``_factor`` call and step as Python scalars.
    """
    entries = [(n, v) for n, v in entries if v != 0]
    A, B = _factor(np.array([v for _, v in entries], dtype=complex))
    a = np.ones(shape, dtype=complex)
    b = np.zeros(shape, dtype=complex)
    for (n, _), An, Bn in zip(entries, A.tolist(), B.tolist()):
        a, b = _step(a, b, An, Bn, phase(n))
    return a, b


def _fold_rows(rows: np.ndarray, phase, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """``_fold`` of several sequences that share their indices, at once.

    ``rows[r, k]`` is entry k of sequence r and ``phase(k)`` its phases on
    ``grid`` points: one row of shape ``(grid,)`` shared by every sequence,
    or one row per sequence, shape ``(len(rows), grid)`` (each sequence at
    its own points).  The result has shape ``(len(rows), grid)``.  All
    ``(A_n, B_n)`` come from one ``_factor`` call over ``rows`` and the step
    is ``_fold``'s elementwise arithmetic, so row r is
    ``_fold(enumerate(rows[r]), phase, grid)`` (with row r of the phases)
    bit for bit, up to the sign of a zero: every entry takes its step, and a
    zero entry is the exact identity factor ``_factor(0) = (1.0, 0j)``,
    whose step returns a and b unchanged but for the sign of a zero part.
    |a| and |b| are bit-identical.

    The step runs in place, in five preallocated buffers, in ``_step``'s
    order of operations.  Every complex product is written into a buffer
    that is not one of its operands: numpy multiplies a one-element array
    written onto itself by its scalar path, which rounds differently.  Only
    the products by the real A_n and the sums go in place.
    """
    A, B = _factor(rows)
    cB = np.conj(B)
    a = np.ones((len(rows), grid), dtype=complex)
    b = np.zeros((len(rows), grid), dtype=complex)
    a2, b2, tmp = np.empty_like(a), np.empty_like(b), np.empty_like(a)
    for k in range(rows.shape[1]):
        e, Ak = phase(k), A[:, k, None]
        np.multiply(b, cB[:, k, None], out=tmp)
        np.multiply(tmp, np.conj(e), out=a2)
        np.add(np.multiply(a, Ak, out=tmp), a2, out=a2)
        np.multiply(a, B[:, k, None], out=tmp)
        np.multiply(tmp, e, out=b2)
        np.add(b2, np.multiply(b, Ak, out=tmp), out=b2)
        a, b, a2, b2 = a2, b2, a, b
    return a, b


def _window_rows(seqs) -> tuple[list, np.ndarray]:
    """``(ns, rows)``: the sequences zero-padded onto the indices ``ns`` of
    their common window that some sequence uses, entry ``ns[k]`` of sequence
    r at ``rows[r, k]``, as ``_fold_rows`` takes them (an unused index would
    only step identity factors).  A zero sequence is a zero row."""
    spans = [seq.support() for seq in seqs]
    lo = min((s[0] for s in spans if s is not None), default=0)
    hi = max((s[1] for s in spans if s is not None), default=lo - 1)
    rows = np.zeros((len(seqs), hi - lo + 1), dtype=complex)
    for r, (seq, s) in enumerate(zip(seqs, spans)):
        if s is not None:
            rows[r, s[0] - lo:s[1] - lo + 1] = seq.values[s[0] - seq.offset:s[1] - seq.offset + 1]
    used = np.flatnonzero(np.any(rows != 0, axis=0))
    return [lo + k for k in used.tolist()], rows[:, used]  # Python ints: any offset


def product_on_grid_arrays(
    seq: CoefficientSequence, ts: np.ndarray, grid: tuple[int, bool] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (a(t), b(t)) over an array of t values, factors in
    increasing n.

    ``grid = (M, odd)`` says that ``ts`` is the level ``j / M`` (``odd``: its
    odd points ``(2j + 1) / M``); the phases are then gathered by
    ``_grid_phases``, with the same result.
    """
    ts = np.asarray(ts, dtype=float)
    if grid is None:
        return _fold(seq.window_entries(), lambda n: _phases(n, ts), ts.shape)
    return _fold(seq.window_entries(), lambda n: _grid_phases(n, *grid), ts.shape)


def linear_fourier_on_grid(entries, grid_size: int) -> np.ndarray:
    """Sum of F_n e^{2 pi i n t} over the pairs (n, F_n), on the uniform
    grid j / grid_size."""
    total = np.zeros(grid_size, dtype=complex)
    for n, v in entries:
        if v != 0:
            total += v * _grid_phases(n, grid_size)
    return total
