"""Exact linear algebra over GF(2): bit-packed vectors, matrices, subspaces.

Coordinate i of a vector lives at bit position i of an arbitrary-precision
integer (LSB first).  The computations run on int rows; `BitVector`,
`BitMatrix` and `Subspace` are the values of the input and report boundary,
named tuples that check nothing.  Bits cross that boundary as '0'/'1'
strings, coordinate 0 leftmost: `bit_rows` is the one door in, which refuses
bad bits and ragged rows, and `bit_string` the one renderer out.  A
`Subspace`'s canonical RREF basis, with strictly increasing pivot columns, is
a promise of its producers, `kernel` and the isotropic searches, which read
it from `_rref_bits`, so set-level equality is plain tuple equality.  All of
it is immutable and pure; no floats.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence


class BitVector(NamedTuple):
    """Vector in F2^n packed into an int (coordinate i = bit i)."""

    n: int
    bits: int


class BitMatrix(NamedTuple):
    """Dense GF(2) matrix stored as a tuple of int-packed rows (entry j = bit j).

    `row_data` is that tuple; readers fold or compare its rows as ints.
    """

    rows: int
    cols: int
    row_data: tuple[int, ...]

    @classmethod
    def from_bits(cls, rows: int, cols: int, bits: Sequence[int]) -> BitMatrix:
        return cls(rows, cols, tuple(bits))

    def row_bits(self) -> list[int]:
        return list(self.row_data)


def bit_string(bits: int, n: int) -> str:
    """The n coordinates of `bits` as '0'/'1', coordinate 0 leftmost; "" at n = 0."""
    return format(bits, "b").zfill(n)[::-1] if n else ""


def bit_rows(data: Sequence[str]) -> tuple[int, tuple[int, ...]]:
    """(cols, rows) of '0'/'1' strings, character j of a string = bit j of its row.

    At least one row, all of one length; ("",) is one row of no columns.
    """
    if not isinstance(data, (list, tuple)) or not all(isinstance(s, str) for s in data):
        raise ValueError("must be a list of '0'/'1' strings")
    for s in data:
        if set(s) - {"0", "1"}:
            raise ValueError(f"invalid bit string {s!r}")
    if not data:
        raise ValueError("cannot infer column count from zero rows")
    cols = len(data[0])
    if any(len(s) != cols for s in data):
        raise ValueError("ragged rows")
    return cols, tuple(int(s[::-1], 2) if s else 0 for s in data)


_TRANSPOSE_LOOP_AREA = 256  # rows x cols below which the per-bit loop is faster
_TRANSPOSE_BLOCK = 4096  # rows rendered as one string by the packed path
# by row width up to 64 bits, the code of the smallest array item that holds it
_ITEM_CODES = [next(c for c in "BHIQ" if array(c).itemsize * 8 >= w) for w in range(65)]


def _transpose_bits(rows: Sequence[int], cols: int) -> list[int]:
    """Columns of int-packed rows: bit i of out[j] is bit j of rows[i].

    Below _TRANSPOSE_LOOP_AREA entries, or for rows wider than 64 bits, a
    loop over the set bits.  Otherwise each block of r <= _TRANSPOSE_BLOCK
    rows is packed into an array of w-bit items, read as one little-endian
    int and rendered once in binary, most significant digit first.  Bit j of
    the block's row i is then character w - 1 - j + (r - 1 - i) w, so column
    j is the slice from w - 1 - j with stride w, last row first, which
    `int(…, 2)` reads back.  Each step runs at C speed, and one block's
    strings are the only temporaries.
    """
    out = [0] * cols
    if len(rows) * cols < _TRANSPOSE_LOOP_AREA or cols >= len(_ITEM_CODES):
        for i, bits in enumerate(rows):
            while bits:
                low = bits & -bits
                out[low.bit_length() - 1] |= 1 << i
                bits ^= low
        return out
    for start in range(0, len(rows), _TRANSPOSE_BLOCK):
        packed = array(_ITEM_CODES[cols], rows[start:start + _TRANSPOSE_BLOCK])
        if sys.byteorder == "big":
            packed.byteswap()
        width = packed.itemsize * 8
        digits = format(int.from_bytes(packed, "little"), f"0{len(packed) * width}b")
        for j in range(cols):
            out[j] |= int(digits[width - 1 - j::width], 2) << start
    return out


def fold_rows(rows: Sequence[int], bits: int) -> int:
    """XOR of rows[i] over the set bits i of `bits`: the row vector bits . rows."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


@lru_cache(maxsize=1)
def _coordinate_masks(n: int) -> tuple[int, ...]:
    """Bit-sliced coordinates: X[i] has bit v set iff bit i of v is set, v < 2^n.

    fold_rows(X, m) is then the 2^n-bit indicator of parity(m & v), a linear
    functional evaluated at every v at once.  The masks of the last n asked
    for are kept (n ints of 2^n bits, 2.6 MB at n = 20).  Each mask is built
    by doubling a block of period 2^(i+1), so it costs n - i shifts.
    """
    size = 1 << n
    out = []
    for i in range(n):
        half = 1 << i
        mask, width = ((1 << half) - 1) << half, half << 1
        while width < size:
            mask |= mask << width
            width <<= 1
        out.append(mask)
    return tuple(out)


def _quadratic_mask(x: Sequence[int], rows: Sequence[int]) -> int:
    """The points where XOR_i v_i parity(rows[i] & v) is 1, as a mask over x.

    Bit j of row i is the monomial v_j v_i, so bit i is the linear term v_i.
    With the coordinate masks x of `_coordinate_masks` the mask is
    XOR_i x[i] & fold_rows(x, rows[i]), every point at once.
    """
    acc = 0
    for xi, row in zip(x, rows):
        if row:
            acc ^= xi & fold_rows(x, row)
    return acc


def _witt_index(gram: Sequence[int]) -> int:
    """Witt index of the quadratic form Q(v) = sum_{i > j} gram[i][j] v_i v_j on F2^N.

    `gram` holds the N int rows of a symmetric zero-diagonal Gram matrix, the
    polar form B of Q; Q is the refinement that vanishes on the basis vectors.
    A symplectic reduction: the first basis vector e still paired with some f,
    B(e, f) = 1, splits off the plane <e, f>, and every other w becomes
    w + B(w, f) e + B(w, e) f, orthogonal to both.  On the Gram rows that is
    row w ^= row e where B(w, f) = 1 and row w ^= row f where B(w, e) = 1,
    and Q(w) gains B(w, f) Q(e) + B(w, e) Q(f) + B(w, f) B(w, e).  The planes
    give the rank r and the Arf invariant, the sum of Q(e) Q(f); the vectors
    left unpaired span the radical, where Q is linear.  The index is
    r/2 + (N - r), less one when Q is nonzero on the radical or the Arf
    invariant is 1 (Taylor, The Geometry of the Classical Groups, 1992,
    ch. 11).  O(N^2) operations on N-bit ints.
    """
    rows = list(gram)
    n = len(rows)
    q = 0  # bit w: Q of the current basis vector w
    paired = rank = arf = defect = 0
    for e in range(n):
        if paired >> e & 1:
            continue
        row_e = rows[e]
        if not row_e:  # e is orthogonal to everything left: a radical vector
            defect |= q >> e & 1
            continue
        f = row_e & -row_e
        j = f.bit_length() - 1
        row_f = rows[j]
        plane = 1 << e | f
        paired |= f
        rank += 2
        q_e, q_f = q >> e & 1, q >> j & 1
        arf ^= q_e & q_f
        hit_f, hit_e = row_f & ~plane, row_e & ~plane  # B(w, f) and B(w, e)
        q ^= (hit_f if q_e else 0) ^ (hit_e if q_f else 0) ^ (hit_f & hit_e)
        while hit_f:
            low = hit_f & -hit_f
            rows[low.bit_length() - 1] ^= row_e
            hit_f ^= low
        while hit_e:
            low = hit_e & -hit_e
            rows[low.bit_length() - 1] ^= row_f
            hit_e ^= low
    return rank // 2 + n - rank - (defect | arf)


def _echelon_bits(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination of int-packed rows: a table from pivot to echelon row.

    Pivot = lowest set bit (leftmost coordinate), keyed by bit_length
    (column + 1).  An incoming row XORs in only the pivot rows it hits,
    lowest first, until it is zero or has a new pivot, under which it is
    stored.  The rows are not reduced against each other; the table's size
    is the rank of the input, which is all a rank reader needs.
    """
    piv: dict[int, int] = {}
    for v in rows:
        while v:
            p = (v & -v).bit_length()
            b = piv.get(p)
            if b is None:
                piv[p] = v
                break
            v ^= b
    return piv


def _rref_bits(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of int-packed rows, sorted by pivot.

    Pivot = lowest set bit (leftmost coordinate).  Result rows are nonzero,
    mutually reduced, pivots strictly increasing.

    The forward pass is `_echelon_bits`.  The back pass runs from the highest
    pivot down: the rows above a pivot are already reduced, so clearing its
    row's pivot bits with them introduces no new ones.
    """
    piv = _echelon_bits(rows)
    pivots = sorted(piv)
    pivmask = 0
    for p in reversed(pivots):
        b = piv[p]
        hits = (b >> p) & (pivmask >> p)
        while hits:
            low = hits & -hits
            b ^= piv[p + low.bit_length()]
            hits ^= low
        piv[p] = b
        pivmask |= 1 << (p - 1)
    return [piv[p] for p in pivots]


def _reduce_bits(v: int, basis: Sequence[int]) -> int:
    """Reduce v modulo an RREF basis (clears pivot coordinates)."""
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


class Subspace(NamedTuple):
    """Subspace of F2^n as its RREF basis, pivots strictly increasing; not checked."""

    ambient_dim: int
    basis: tuple[BitVector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def kernel(m: BitMatrix) -> Subspace:
    """Canonical right kernel {v : m.v = 0}; dim = cols - rank.

    One int generator per free column, reduced once to the RREF basis.
    """
    reduced = _rref_bits(m.row_data)
    pivot_cols = [(r & -r).bit_length() - 1 for r in reduced]
    pivot_set = set(pivot_cols)
    gens = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for r, p in zip(reduced, pivot_cols):
            if (r >> free) & 1:
                v |= 1 << p
        gens.append(v)
    return Subspace(m.cols, tuple(BitVector(m.cols, b) for b in _rref_bits(gens)))
