"""Homogeneous polynomial algebra over F2 (the cohomology of (Z/2)^n).

Polynomials are sets of exponent tuples with mod-2 coefficients; addition is
symmetric difference, and a power of a linear form is written down term by
term (Frobenius and Lucas), never multiplied out.
Hilbert functions of graded quotients come from the rank of the monomial
multiples of the generators inside one graded piece, and for n homogeneous
generators in n variables regularity is equivalent to the quotient dying at
the Artinian boundary degree sum(d_i - 1) + 1.
"""

from __future__ import annotations

from math import comb, prod
from operator import mul
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .errors import GuardExceeded, NonSquareSystemError, SchemaError, require_keys
from .gf2 import BitMatrix, BitVector, _echelon_bits, _reduce_bits, _rref_bits, fold_rows

if TYPE_CHECKING:
    from .repaction import GroupOracle, MonomialRep

NVARS_GUARD = 16
DEGREE_GUARD = 64
PIECE_GUARD = 1 << 31  # max rows * cols of one graded piece's Macaulay matrix
COLUMN_GUARD = 1 << 18  # max cols, each a monomial in the column table
TERM_GUARD = 1 << 19  # max terms of a power or an Euler class, counted before expanding

Exponents = tuple[int, ...]


def _check_nvars(nvars: int) -> None:
    if nvars < 1 or nvars > NVARS_GUARD:
        raise GuardExceeded("poly_nvars", f"nvars must be in 1..{NVARS_GUARD}")


def _check_degree(degree: int) -> None:
    if degree < 0 or degree > DEGREE_GUARD:
        raise GuardExceeded("poly_degree", f"degree must be in 0..{DEGREE_GUARD}")


def _check_terms(count: int, what: str) -> None:
    if count > TERM_GUARD:
        raise GuardExceeded(
            "poly_terms", f"{what} has up to {count} terms, above guard {TERM_GUARD}"
        )


class GradedPoly(NamedTuple):
    """Homogeneous polynomial: set of exponent tuples sharing a total degree.

    The empty set is the zero polynomial of its declared degree; the marker
    keeps a vanished Euler class distinguishable from the constant 1.
    The constructor checks nothing: the producers of a new nvars or degree
    check the guards, and `from_monomials` checks each monomial.
    """

    nvars: int
    degree: int
    monomials: frozenset[Exponents]

    @classmethod
    def from_monomials(cls, nvars: int, monomials: Sequence[Sequence[int]]) -> GradedPoly:
        """The polynomial of exponent lists from outside the library, each
        checked; coefficients are mod 2, so a monomial listed twice cancels."""
        monos = [tuple(m) for m in monomials]
        if not monos:
            raise ValueError("use GradedPoly.zero for the zero polynomial")
        _check_nvars(nvars)
        degree = sum(monos[0])
        _check_degree(degree)
        odd: set[Exponents] = set()
        for m in monos:
            if len(m) != nvars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent tuple {m}")
            if sum(m) != degree:
                raise ValueError(f"monomial {m} is not of degree {degree}")
            odd ^= {m}
        return cls(nvars, degree, frozenset(odd))

    @classmethod
    def zero(cls, nvars: int, degree: int) -> GradedPoly:
        _check_nvars(nvars)
        _check_degree(degree)
        return cls(nvars, degree, frozenset())

    @classmethod
    def one(cls, nvars: int) -> GradedPoly:
        _check_nvars(nvars)
        return cls(nvars, 0, frozenset({(0,) * nvars}))

    @classmethod
    def linear(cls, nvars: int, coeffs: BitVector) -> GradedPoly:
        if coeffs.n != nvars:
            raise ValueError("coefficient length mismatch")
        _check_nvars(nvars)
        monos = frozenset(
            tuple(1 if j == i else 0 for j in range(nvars))
            for i in range(nvars) if coeffs.bits >> i & 1
        )
        return cls(nvars, 1, monos)

    def is_zero(self) -> bool:
        return not self.monomials

    def linear_coeffs(self) -> int:
        """The coefficients of a linear form, variable i at bit i."""
        if self.degree != 1:
            raise ValueError("not a degree-1 polynomial")
        bits = 0
        for m in self.monomials:
            bits |= 1 << m.index(1)
        return bits

    def __add__(self, other: GradedPoly) -> GradedPoly:
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("can only add within one graded piece")
        return GradedPoly(self.nvars, self.degree, self.monomials ^ other.monomials)

    def __mul__(self, other: GradedPoly) -> GradedPoly:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        _check_degree(self.degree + other.degree)
        acc: set[Exponents] = set()
        for m1 in self.monomials:
            for m2 in other.monomials:
                product = tuple(a + b for a, b in zip(m1, m2))
                acc.symmetric_difference_update({product})
        return GradedPoly(self.nvars, self.degree + other.degree, frozenset(acc))

    def power(self, p: int) -> GradedPoly:
        """The p-th power; for p >= 2 only of a linear form l, written down.

        By Frobenius and Lucas, l^p has one term for each way to give every set
        bit 2^k of p to one of the w variables of l: w^popcount(p) distinct terms.
        """
        if p < 0:
            raise ValueError("negative power")
        if p < 2:
            return self if p else GradedPoly.one(self.nvars)
        if self.degree != 1:
            raise ValueError("a power p >= 2 is only taken of a linear form")
        _check_degree(p)
        support = [m.index(1) for m in self.monomials]
        _check_terms(len(support) ** p.bit_count(), f"l^{p}")
        monos = [(0,) * self.nvars]
        for k in range(p.bit_length()):
            if p >> k & 1:
                monos = [m[:i] + (m[i] + (1 << k),) + m[i + 1:] for m in monos for i in support]
        return GradedPoly(self.nvars, p, frozenset(monos))

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "monomials": sorted(list(m) for m in self.monomials),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> GradedPoly:
        require_keys(obj, "nvars", "monomials")
        nvars, monos = obj["nvars"], obj["monomials"]
        if type(nvars) is not int:
            raise SchemaError(["nvars: must be an integer"])
        if not isinstance(monos, list) or not all(
            isinstance(m, list) and all(type(e) is int for e in m) for m in monos
        ):
            raise SchemaError(["monomials: must be a list of integer exponent lists"])
        if type(obj.get("degree", 0)) is not int:
            raise SchemaError(["degree: must be an integer"])
        try:
            if not monos:
                return cls.zero(nvars, obj.get("degree", 0))
            poly = cls.from_monomials(nvars, monos)
        except ValueError as exc:
            raise SchemaError([f"monomials: {exc}"]) from exc
        if "degree" in obj and obj["degree"] != poly.degree:
            raise SchemaError(["degree: does not match monomials"])
        return poly


class IdealGens:
    """Homogeneous generators of an ideal of F2[x_1..x_n]; the constructor checks them."""

    def __init__(self, nvars: int, gens: tuple[GradedPoly, ...]):
        _check_nvars(nvars)
        if any(g.nvars != nvars for g in gens):
            raise ValueError("generators must share the variable count")
        self.nvars = nvars
        self.gens = gens


def hilbert_function(I: IdealGens, d: int) -> int:
    """dim_F2 of the degree-d piece of F2[x_1..x_n] / I.

    A monomial of degree <= d is coded as the int whose base-(d+1) digits are
    its exponents, so the code of a product is the sum of the codes and each
    column of the Macaulay matrix is found with one dict lookup.  The rows
    stream into `_echelon_bits`: the value is columns minus rank, so the
    forward pass suffices and no row is back-reduced.  The piece is refused
    above COLUMN_GUARD columns or PIECE_GUARD rows * cols.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = I.nvars
    gens = [g for g in I.gens if g.degree <= d and not g.is_zero()]
    ncols = comb(n - 1 + d, n - 1)
    nrows = sum(comb(n - 1 + d - g.degree, n - 1) for g in gens)
    if ncols > COLUMN_GUARD or nrows * ncols > PIECE_GUARD:
        raise GuardExceeded(
            "poly_piece", f"the degree-{d} piece exceeds guard {COLUMN_GUARD} on "
            f"columns or {PIECE_GUARD} on rows * columns"
        )
    weights = [(d + 1) ** i for i in range(n)]

    def codes(degree: int) -> list[int]:  # each monomial of the degree, once
        partial = [(0, degree)]  # (code of the variables so far, degree left)
        for w in weights[:-1]:
            partial = [(c + e * w, r - e) for c, r in partial for e in range(r, -1, -1)]
        return [c + r * weights[-1] for c, r in partial]

    column = {c: i for i, c in enumerate(codes(d))}  # code -> bit index

    def rows() -> Iterator[int]:
        for g in gens:
            gcodes = [sum(map(mul, gm, weights)) for gm in g.monomials]
            for m in codes(d - g.degree):
                row = 0
                for gc in gcodes:
                    row ^= 1 << column[m + gc]
                yield row

    return ncols - len(_echelon_bits(rows()))


def is_regular_sequence(I: IdealGens) -> bool:
    """Regularity of n homogeneous generators in n variables.

    Equivalent to a finite-dimensional quotient; since the ring is generated
    in degree 1, the quotient vanishes in all degrees above the Artinian
    boundary sum(d_i - 1) as soon as it vanishes there, so one Hilbert value
    decides.
    """
    if len(I.gens) != I.nvars:
        raise NonSquareSystemError(
            f"{len(I.gens)} generators in {I.nvars} variables: regularity is only "
            "decidable here for square systems"
        )
    if any(g.degree < 1 for g in I.gens):
        raise ValueError("generators must be homogeneous of degree >= 1")
    cutoff = sum(g.degree - 1 for g in I.gens) + 1
    return hilbert_function(I, cutoff) == 0


def quotient_total_dim(I: IdealGens) -> Optional[int]:
    """Total dimension of the quotient when regular (= prod d_i), else None.

    The one Hilbert value is the one `is_regular_sequence` reads.  For a
    homogeneous regular sequence the Koszul complex is a free resolution, so
    the Hilbert series is prod (1 + t + ... + t^(d_i - 1)) and its values sum
    to prod d_i (Stanley, Hilbert functions of graded algebras, Adv. Math. 28,
    1978); no other piece is reduced.
    """
    if not is_regular_sequence(I):
        return None
    return prod(g.degree for g in I.gens)


# -- Euler classes of induced representations ---------------------------------


def _elementary_abelian_coords(
    G: GroupOracle, e_gens: Sequence[int], expected_rank: int
) -> dict[int, int]:
    """F2 coordinates of the elements of <e_gens>, validated rank.

    <e_gens> is elementary abelian iff its generators square to 1 and commute
    pairwise: O(k^2) products for k generators.  Then each generator outside
    the span so far doubles it and gets the next coordinate bit.
    """
    G.check_ids(e_gens)
    if any(G.mul(g, g) != 0 for g in e_gens) or any(
        G.mul(g, h) != G.mul(h, g) for i, g in enumerate(e_gens) for h in e_gens[:i]
    ):
        raise ValueError("subgroup is not elementary abelian")
    coords = {0: 0}
    for g in e_gens:
        if g not in coords:
            bit = len(coords)  # 2^(basis elements so far)
            coords.update({G.mul(e, g): c | bit for e, c in coords.items()})
    if len(coords) != 1 << expected_rank:
        raise ValueError(
            f"generators span rank {len(coords).bit_length() - 1}, expected {expected_rank}"
        )
    return coords


def euler_class_restriction(rep: MonomialRep, e_gens: Sequence[int], e_rank: int) -> GradedPoly:
    """Euler class of the induced sphere restricted to an elementary abelian E.

    Decomposes rep|E into +-1 characters by the trace formula, as one
    Walsh-Hadamard transform of the traces indexed by E's coordinates; a
    trivial summand kills the class (zero marker), otherwise the class is the
    product of the nontrivial character linear forms with their
    multiplicities.  The zero marker is built before any trace is read, so
    the variable and degree guards hold at once, and the product is refused
    above TERM_GUARD monomials of its degree before any factor is expanded.
    """
    if e_rank < 1:
        raise ValueError(f"e_rank must be >= 1, got {e_rank}")
    coords = _elementary_abelian_coords(rep.group, e_gens, e_rank)
    zero = GradedPoly.zero(e_rank, rep.dim)
    size = 1 << e_rank
    mult = [0] * size
    for e, c in coords.items():
        mult[c] = rep.trace(e)
    h = 1
    while h < size:  # mult[c] becomes the sum of (-1)^(c . x) trace(x) over x in E
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                mult[j], mult[j + h] = mult[j] + mult[j + h], mult[j] - mult[j + h]
        h *= 2
    if any(total < 0 or total % size for total in mult):
        raise AssertionError("character multiplicities are not nonnegative integers")
    mult = [total // size for total in mult]
    if sum(mult) != rep.dim:
        raise AssertionError("multiplicities do not sum to the representation dimension")
    if mult[0] > 0:
        return zero
    _check_terms(comb(rep.dim + e_rank - 1, e_rank - 1), f"the Euler class of degree {rep.dim}")
    euler = GradedPoly.one(e_rank)
    for c in range(1, size):
        if mult[c]:
            euler = euler * GradedPoly.linear(e_rank, BitVector(e_rank, c)).power(mult[c])
    return euler


# -- linear actions on the degree-one part ------------------------------------


class LinearAction:
    """Invertible generators acting on the span of the degree-1 variables; checked."""

    def __init__(self, nvars: int, generators: tuple[BitMatrix, ...]):
        _check_nvars(nvars)
        for m in generators:
            if m.rows != nvars or m.cols != nvars:
                raise ValueError("generators must be nvars x nvars")
            if len(_echelon_bits(m.row_data)) != nvars:
                raise ValueError("generators must be invertible")
        self.nvars = nvars
        self.generators = generators


class PowerSpanResult(NamedTuple):
    stable: bool  # span{y_i^p} is carried into itself by every generator
    permuted: bool  # every generator permutes the lines {y_1 .. y_n}


def power_span_test(act: LinearAction, ys: Sequence[GradedPoly], p: int) -> PowerSpanResult:
    """Stability of span{y_i^p} and permutation of {y_i} under the action."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    if any(y.degree != 1 or y.nvars != act.nvars for y in ys):
        raise ValueError("ys must be degree-1 forms in the action's variables")
    lines = [y.linear_coeffs() for y in ys]
    if len(_echelon_bits(lines)) != len(ys):
        raise ValueError("ys must be linearly independent")
    index: dict[Exponents, int] = {}  # a column per monomial, given when first seen

    def packed_power(line: int) -> int:
        # set the bits in a bytearray, then build the int once: `bits |= 1 << c`
        # would copy the whole int per monomial
        monos = GradedPoly.linear(act.nvars, BitVector(act.nvars, line)).power(p).monomials
        columns = [index.setdefault(m, len(index)) for m in monos]
        packed = bytearray((len(index) + 7) >> 3)
        for c in columns:
            packed[c >> 3] |= 1 << (c & 7)
        return int.from_bytes(packed, "little")

    span = _rref_bits([packed_power(y) for y in lines])
    images = [fold_rows(g.row_data, y) for g in act.generators for y in lines]  # g(y^p) = g(y)^p
    stable = not any(_reduce_bits(packed_power(gy), span) for gy in images)
    return PowerSpanResult(stable, set(images) <= set(lines))
