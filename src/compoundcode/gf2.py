"""Exact GF(2) linear algebra on packed bit vectors and sparse binary matrices.

Vectors are stored as packed ``uint64`` words (bit ``i`` lives in word
``i >> 6`` at position ``i & 63``).  Matrices are stored row-sparse, as
sorted column indices per row, which makes matrix-vector products cheap.
Elimination-based operations (rank, null space, particular solutions) work
on a dense packed copy of the matrix: at the few-thousand-column scale this
library targets, exactness and simplicity beat asymptotics.

All operations are pure functions on immutable values; nothing here mutates
its inputs, so vectors and matrices can be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_U1 = np.uint64(1)


def _nwords(length: int) -> int:
    return (length + 63) >> 6


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


class BitVector:
    """Immutable vector over GF(2), packed 64 bits per word."""

    __slots__ = ("length", "_words")

    def __init__(self, length: int, words: np.ndarray):
        self.length = int(length)
        self._words = words

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, np.zeros(_nwords(length), dtype=np.uint64))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits,
                         dtype=np.uint64) & _U1
        length = arr.size
        nw = _nwords(length)
        padded = np.zeros(nw * 64, dtype=np.uint64)
        padded[:length] = arr
        shifts = np.arange(64, dtype=np.uint64)
        words = np.bitwise_or.reduce(padded.reshape(nw, 64) << shifts[None, :], axis=1)
        return cls(length, words)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a 0/1 string; leftmost character is index 0."""
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"bit string may contain only 0/1, got {text!r}")
        return cls.from_bits(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
                             if text else np.zeros(0, dtype=np.uint64))

    @classmethod
    def from_support(cls, length: int, indices: Iterable[int]) -> "BitVector":
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= length):
            raise ValueError("support index out of range")
        words = np.zeros(_nwords(length), dtype=np.uint64)
        _set_bits(words, idx)
        return cls(length, words)

    # -- queries -----------------------------------------------------------

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return int((self._words[i >> 6] >> np.uint64(i & 63)) & _U1)

    __getitem__ = get

    def weight(self) -> int:
        """Hamming weight (number of set bits)."""
        return _popcount(self._words)

    def to_array(self) -> np.ndarray:
        """Expand to a uint8 array of 0/1 values."""
        idx = np.arange(self.length)
        return ((self._words[idx >> 6] >> (idx & 63).astype(np.uint64)) & _U1).astype(np.uint8)

    def to_string(self) -> str:
        return "".join("01"[b] for b in self.to_array())

    def support(self) -> np.ndarray:
        return np.nonzero(self.to_array())[0]

    # -- algebra -----------------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.length, self._words ^ other._words)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitVector) and self.length == other.length
                and bool(np.array_equal(self._words, other._words)))

    def __hash__(self) -> int:
        return hash((self.length, self._words.tobytes()))

    def key(self) -> bytes:
        """Hashable packed form, cheaper than hash() for set membership."""
        return self._words.tobytes()

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        s = self.to_string()
        return f"BitVector({s if self.length <= 64 else s[:61] + '...'!s})"


def _set_bits(words: np.ndarray, idx: np.ndarray) -> None:
    # XOR would double-cancel; callers guarantee distinct indices.
    np.bitwise_or.at(words, idx >> 6, _U1 << (idx & 63).astype(np.uint64))


def concat(a: BitVector, b: BitVector) -> BitVector:
    bits = np.concatenate([a.to_array(), b.to_array()])
    return BitVector.from_bits(bits)


class SparseBitMatrix:
    """Binary matrix stored as sorted, distinct column indices per row."""

    __slots__ = ("rows", "cols", "row_support", "_flat_cols", "_row_ids")

    def __init__(self, rows: int, cols: int, row_support: Sequence[np.ndarray]):
        if len(row_support) != rows:
            raise ValueError("row_support length must equal row count")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_support = tuple(np.asarray(s, dtype=np.int64) for s in row_support)
        for s in self.row_support:
            if s.size and (s[0] < 0 or s[-1] >= cols):
                raise ValueError("column index out of range")
            if s.size > 1 and not (np.diff(s) > 0).all():
                raise ValueError("row support must be strictly increasing")
        self._flat_cols = (np.concatenate(self.row_support)
                           if rows else np.zeros(0, dtype=np.int64))
        lens = np.array([s.size for s in self.row_support], dtype=np.int64)
        self._row_ids = np.repeat(np.arange(rows, dtype=np.int64), lens)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: int, cols: int, supports: Sequence[Iterable[int]],
                  reduce_mod2: bool = False) -> "SparseBitMatrix":
        """Build from per-row index lists.

        With ``reduce_mod2`` indices appearing an even number of times cancel
        (and odd repeats collapse to one), so rows produced by samplers that
        draw positions with replacement are normalised here.  Without it,
        duplicate indices are an error.
        """
        norm = []
        for sup in supports:
            s = np.sort(np.asarray(list(sup), dtype=np.int64))
            if reduce_mod2:
                vals, counts = np.unique(s, return_counts=True)
                s = vals[counts % 2 == 1]
            elif s.size > 1 and (np.diff(s) == 0).any():
                raise ValueError("duplicate column index in row (pass reduce_mod2=True)")
            norm.append(s)
        return cls(rows, cols, norm)

    @classmethod
    def identity(cls, n: int) -> "SparseBitMatrix":
        return cls(n, n, [np.array([i], dtype=np.int64) for i in range(n)])

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SparseBitMatrix":
        arr = np.asarray(arr) % 2
        return cls(arr.shape[0], arr.shape[1],
                   [np.nonzero(row)[0].astype(np.int64) for row in arr])

    # -- views -------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        out[self._row_ids, self._flat_cols] = 1
        return out

    def row_slice(self, start: int, stop: int) -> "SparseBitMatrix":
        return SparseBitMatrix(stop - start, self.cols, self.row_support[start:stop])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparseBitMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and all(np.array_equal(a, b)
                        for a, b in zip(self.row_support, other.row_support)))

    def __hash__(self) -> int:  # rarely needed; keep consistent with __eq__
        return hash((self.rows, self.cols,
                     tuple(s.tobytes() for s in self.row_support)))

    def __repr__(self) -> str:
        nnz = self._flat_cols.size
        return f"SparseBitMatrix({self.rows}x{self.cols}, nnz={nnz})"


# ---------------------------------------------------------------------------
# products


def matvec(M: SparseBitMatrix, v: BitVector) -> BitVector:
    """Product *Mv* over GF(2).

    Output bit ``i`` is the parity of ``v`` restricted to row ``i``'s support.
    """
    if v.length != M.cols:
        raise ValueError(f"dimension mismatch: matrix has {M.cols} cols, "
                         f"vector has length {v.length}")
    words = v._words
    bits = (words[M._flat_cols >> 6] >> (M._flat_cols & 63).astype(np.uint64)) & _U1
    ones_per_row = np.bincount(M._row_ids[bits.astype(bool)], minlength=M.rows)
    return BitVector.from_bits(ones_per_row & 1)


# ---------------------------------------------------------------------------
# elimination


def _pack(M: SparseBitMatrix, extra_bits: int = 0) -> np.ndarray:
    """Dense packed copy of M, with room for ``extra_bits`` augmented columns."""
    nw = _nwords(M.cols + extra_bits)
    A = np.zeros((M.rows, nw), dtype=np.uint64)
    for r, sup in enumerate(M.row_support):
        _set_bits(A[r], sup)
    return A


def _rref(A: np.ndarray, ncols: int) -> list[int]:
    """In-place reduced row echelon form over the first ``ncols`` columns.

    Row operations act on the full packed width, so augmented columns stay
    consistent.  Returns the pivot column list (its length is the rank).
    """
    nrows = A.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        w, b = c >> 6, np.uint64(c & 63)
        col = (A[r:, w] >> b) & _U1
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        ones = np.nonzero((A[:, w] >> b) & _U1)[0]
        ones = ones[ones != r]
        if ones.size:
            A[ones] ^= A[r]
        pivots.append(c)
        r += 1
    return pivots


def rank(M: SparseBitMatrix) -> int:
    """GF(2) row rank via Gaussian elimination."""
    return len(_rref(_pack(M), M.cols))


def null_space_basis(M: SparseBitMatrix) -> list[BitVector]:
    """Basis of ``{v : Mv = 0}`` with exactly ``cols - rank(M)`` elements."""
    A = _pack(M)
    pivots = _rref(A, M.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(M.cols):
        if f in pivot_set:
            continue
        fw, fb = f >> 6, np.uint64(f & 63)
        words = np.zeros(_nwords(M.cols), dtype=np.uint64)
        words[f >> 6] |= _U1 << fb
        if pivots:
            colbits = (A[:len(pivots), fw] >> fb) & _U1
            hit = np.array(pivots, dtype=np.int64)[np.nonzero(colbits)[0]]
            if hit.size:
                _set_bits(words, hit)
        basis.append(BitVector(M.cols, words))
    return basis


def solve_particular(M: SparseBitMatrix, b: BitVector) -> BitVector | None:
    """One solution ``y`` of ``My = b``, or ``None`` when the system is infeasible.

    Infeasibility is a normal return, not an error.  Free variables are set
    to zero, so the result is deterministic; XOR with any null-space element
    yields the other solutions.
    """
    if b.length != M.rows:
        raise ValueError(f"dimension mismatch: matrix has {M.rows} rows, "
                         f"vector has length {b.length}")
    A = _pack(M, extra_bits=1)
    aug_w, aug_b = M.cols >> 6, np.uint64(M.cols & 63)
    barr = b.to_array()
    for r in np.nonzero(barr)[0]:
        A[r, aug_w] |= _U1 << aug_b
    pivots = _rref(A, M.cols)
    nr = len(pivots)
    if nr < M.rows and (((A[nr:, aug_w] >> aug_b) & _U1) != 0).any():
        return None
    words = np.zeros(_nwords(M.cols), dtype=np.uint64)
    if pivots:
        rhs = (A[:nr, aug_w] >> aug_b) & _U1
        hit = np.array(pivots, dtype=np.int64)[np.nonzero(rhs)[0]]
        if hit.size:
            _set_bits(words, hit)
    return BitVector(M.cols, words)


# ---------------------------------------------------------------------------
# text interchange format


def matrix_to_text(M: SparseBitMatrix) -> str:
    """Serialize: first line ``rows cols``, then one line of sorted distinct
    column indices per row (empty line for an empty row)."""
    lines = [f"{M.rows} {M.cols}"]
    lines.extend(" ".join(map(str, sup)) for sup in M.row_support)
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> SparseBitMatrix:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix text")
    rows, cols = map(int, lines[0].split())
    if len(lines) < rows + 1:
        raise ValueError(f"expected {rows} row lines, got {len(lines) - 1}")
    supports = [np.array([int(t) for t in lines[1 + r].split()], dtype=np.int64)
                for r in range(rows)]
    return SparseBitMatrix(rows, cols, supports)
