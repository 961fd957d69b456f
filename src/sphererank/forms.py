"""Families of alternating bilinear forms on F2^n and quadratic zero search.

A FormFamily holds t alternating forms on F2^n as int Gram rows, `grams`;
`lower` derives per form the int rows of its strictly-lower-triangular half
L (row i, col j entry = gram[i][j] for i > j).  The rows are checked once,
where data enters, in `FormFamily.from_json_dict`; `random_family` builds
symmetric zero-diagonal rows by construction and checks nothing, and
`AlternatingForm` is only a read-only view of one form as a BitMatrix.  The
derived quadratic refinement q_s(e) = e^T L_s e satisfies q_s(basis vector)
= 0 and polarizes to the form: q(u + v) = q(u) + q(v) + (phi_s(u, v))_s.

The lower-triangle convention is frozen: any other triangle choice gives an
equivalent theory but different serialized bits.
"""

from __future__ import annotations

from operator import and_, or_
from typing import NamedTuple, Optional, Sequence

from .errors import GuardExceeded, SchemaError, require_keys
from .gf2 import (BitMatrix, BitVector, Subspace, _coordinate_masks, _quadratic_mask,
                  _transpose_bits, bit_rows, bit_string, fold_rows, kernel)
from .rng import random_bits

COMMON_ZERO_GUARD = 24  # max variable count for the exhaustive zero scan
_BLOCK_VARS = 16  # the zero scan bit-slices 2^16 points at a time
_FIRST_VARS = 8  # for v > 8 the points below 2^8 are scanned first
RANDOM_FAMILY_GUARD = 1 << 20  # max Gram bits t * n(n-1)/2 drawn by random_family


class AlternatingForm(NamedTuple):
    """Read-only view of one form of a FormFamily: its Gram matrix on F2^n.

    Built on demand by `FormFamily.forms`; the family's `grams` are the data.
    """

    n: int
    gram: BitMatrix


class FormFamily(NamedTuple):
    """t alternating forms on F2^n as int Gram rows.

    `grams[s]` holds the n int rows of form s's Gram matrix (entry j of row i
    is bit j), symmetric with a zero diagonal.  The constructor trusts its
    rows: data is checked where it enters, in `from_json_dict`, and
    `random_family` builds alternating rows by construction.
    """

    n: int
    grams: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return len(self.grams)

    @property
    def lower(self) -> tuple[tuple[int, ...], ...]:
        """Each form's rows, row i masked to its bits below i; built per read."""
        masks = [(1 << i) - 1 for i in range(self.n)]
        return tuple([tuple(map(and_, rows, masks)) for rows in self.grams])

    @property
    def forms(self) -> tuple[AlternatingForm, ...]:
        """Each form as an `AlternatingForm` view over a `BitMatrix`, built per call."""
        n = self.n
        return tuple(AlternatingForm(n, BitMatrix(n, n, rows)) for rows in self.grams)

    def beta(self, e: BitVector, e2: BitVector) -> BitVector:
        """Cocycle (e^T L_s e2)_s, a vector of t bits."""
        if e.n != self.n or e2.n != self.n:
            raise ValueError("length mismatch")
        out = 0
        for s, rows in enumerate(self.lower):
            out |= ((fold_rows(rows, e.bits) & e2.bits).bit_count() & 1) << s
        return BitVector(self.t, out)

    def to_json_dict(self) -> dict:
        n = self.n
        return {
            "n": n,
            "t": self.t,
            "forms": [[bit_string(r, n) for r in rows] for rows in self.grams],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> FormFamily:
        require_keys(obj, "n", "t", "forms")
        n, t, forms = obj["n"], obj["t"], obj["forms"]
        failing = []
        if type(n) is not int or n < 1:
            failing.append("n: must be a positive integer")
        if type(t) is not int or t < 1:
            failing.append("t: must be a positive integer")
        if not isinstance(forms, list) or (type(t) is int and len(forms) != t):
            failing.append("forms: must be a list of t matrices")
        if failing:
            raise SchemaError(failing)
        grams = []
        for s, rows in enumerate(forms):
            try:
                cols, rows = bit_rows(rows)
            except ValueError as exc:
                failing.append(f"forms[{s}]: {exc}")
                continue
            if len(rows) != n or cols != n:
                failing.append(f"forms[{s}]: expected {n}x{n} matrix")
                continue
            if tuple(_transpose_bits(rows, n)) != rows:
                failing.append(f"forms[{s}]: gram not symmetric")
            if any(r >> i & 1 for i, r in enumerate(rows)):
                failing.append(f"forms[{s}]: gram diagonal not zero")
            grams.append(rows)
        if failing:
            raise SchemaError(failing)
        return cls(n, tuple(grams))


def quadratic_refinement(fam: FormFamily, e: BitVector) -> BitVector:
    """(e^T L_s e)_s: the central part of the square of a word with a-part e."""
    return fam.beta(e, e)


def common_radical(fam: FormFamily) -> Subspace:
    """Vectors pairing to zero with everything, for every form in the family."""
    stacked = [r for rows in fam.grams for r in rows]
    return kernel(BitMatrix.from_bits(len(stacked), fam.n, stacked))


def random_family(n: int, t: int, seed: int) -> FormFamily:
    """Family with iid fair strictly-lower Gram bits, deterministic in seed.

    Draw order: form index, then row 1..n-1, then column 0..row-1; the
    draws are the bits of one `random_bits` block, lowest first.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    if t * (n * (n - 1) // 2) > RANDOM_FAMILY_GUARD:
        raise GuardExceeded(
            "random_family_bits", f"t * n(n-1)/2 Gram bits exceed {RANDOM_FAMILY_GUARD}"
        )
    bits = random_bits(seed, t * (n * (n - 1) // 2))
    grams = []
    for _ in range(t):
        lower = []
        for i in range(n):  # row i, columns 0..i-1
            lower.append(bits & ((1 << i) - 1))
            bits >>= i
        upper = _transpose_bits(lower, n)
        grams.append(tuple(map(or_, lower, upper)))
    return FormFamily(n, tuple(grams))


# -- quadratic systems -------------------------------------------------------

Monomial = tuple[int, ...]  # sorted variable indices, repeats allowed, len <= 2


class QuadraticSystem(NamedTuple):
    """Polynomials of degree <= 2 over F2 in v variables, as monomial sets; not checked."""

    v: int
    polys: tuple[frozenset[Monomial], ...]

    @classmethod
    def from_lists(cls, v: int, polys: Sequence[Sequence[Sequence[int]]]) -> QuadraticSystem:
        """The system of index lists, each checked; coefficients are mod 2,
        so a monomial listed twice cancels."""
        out = []
        for p in polys:
            monos: set[Monomial] = set()
            for m in p:
                if len(m) > 2:
                    raise ValueError("monomial degree exceeds 2")
                if any(not 0 <= i < v for i in m):
                    raise ValueError("variable index out of range")
                monos ^= {tuple(sorted(m))}
            out.append(frozenset(monos))
        return cls(v, tuple(out))

    @classmethod
    def from_json_dict(cls, obj: dict) -> QuadraticSystem:
        require_keys(obj, "v", "polys")
        v, polys = obj["v"], obj["polys"]
        if type(v) is not int or v < 0:
            raise SchemaError(["v: must be a non-negative integer"])
        # each polynomial is a list of monomials, each a list of variable indices
        if not isinstance(polys, list) or not all(
            isinstance(p, list) and all(isinstance(m, list) and all(type(i) is int for i in m)
                                        for m in p)
            for p in polys
        ):
            raise SchemaError(["polys: must be a list of lists of integer index lists"])
        try:
            return cls.from_lists(v, polys)
        except ValueError as exc:
            raise SchemaError([f"polys: {exc}"]) from exc


def common_zero_quadratics(sys: QuadraticSystem) -> Optional[BitVector]:
    """Some nonzero common zero of all polynomials, or None if none exists.

    Exhaustive over all 2^v - 1 nonzero points, so None is a proof of
    nonexistence.  Returns the numerically smallest zero.

    Each polynomial becomes `_quadratic_mask` rows plus a constant, scanned
    over blocks of 2^16 points: the low 16 coordinates are bit-sliced, the
    high ones fixed per block to all-ones or zero masks.  When v > 8 a first
    pass scans the points below 2^8 alone, so a small zero costs no full block.
    """
    if sys.v > COMMON_ZERO_GUARD:
        raise GuardExceeded(
            "common_zero_quadratics",
            f"{sys.v} variables exceed exhaustive-scan guard {COMMON_ZERO_GUARD}",
        )
    v = sys.v
    polys = []  # (rows, constant): monomial (i, j), i <= j, is bit i of row j
    for p in sys.polys:
        rows = [0] * v
        for mono in p:
            if mono:
                rows[mono[-1]] ^= 1 << mono[0]
        polys.append((rows, () in p))
    main = min(v, _BLOCK_VARS)
    first = [(_FIRST_VARS, 1)] if v > _FIRST_VARS else []  # (sliced vars, block count)
    for low, blocks in first + [(main, 1 << (v - main))]:
        full = (1 << (1 << low)) - 1
        x = list(_coordinate_masks(low))
        for block in range(blocks):
            x[low:] = [full if block >> k & 1 else 0 for k in range(v - low)]
            zero = full ^ (block == 0)  # the point 0 is not a candidate
            for rows, const in polys:
                quad = _quadratic_mask(x, rows)  # the poly vanishes where quad == const
                zero &= quad if const else ~quad
                if not zero:
                    break
            if zero:
                return BitVector(v, block << low | (zero & -zero).bit_length() - 1)
    return None
