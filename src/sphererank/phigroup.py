"""Class-2 nilpotent 2-groups presented by a family of alternating forms.

An element is the integer id a | b << n of its normal form (a, b): the a-part
in F2^n sits in the low n bits and the central b-part in F2^t above them.  The
product twists the b-part by the cocycle beta built from the strictly-lower
Gram triangles, so [a_i, a_j] lands on the prescribed form values.  The
b-generators are central and squares land in them: (a, b)^2 = (0, q(a)), so
(a, b)^-1 = (a, b + q(a)) and the order is read off q.

The rank computation reduces to the largest subspace of the a-space on which
every form vanishes and the quadratic refinement is zero; two searches are
provided, a canonical exhaustive enumeration and a branch-and-bound, the
first serving as the correctness oracle for the second.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import GuardExceeded
from .forms import FormFamily, common_radical, quadratic_refinement, random_family
from .gf2 import (BitVector, Subspace, _coordinate_masks, _echelon_bits, _quadratic_mask,
                  _reduce_bits, _rref_bits, _transpose_bits, _witt_index, fold_rows)
from .rng import derive_seed

ISOTROPIC_EXHAUSTIVE_GUARD = 16
ISOTROPIC_EXHAUSTIVE_BUDGET = 40_000_000  # work units, see _max_isotropic_exhaustive
ISOTROPIC_BNB_GUARD = 20
SEARCH_TRIAL_BUDGET = 1 << 23  # work units, see search_forms
_COLUMN_FILTER_MIN = 128  # candidates in a node before its filter reads columns
_PENCIL_MODULI = (0b111, 0b1011, 0b10011)  # x^2+x+1, x^3+x+1, x^4+x+1: GF(4), GF(8), GF(16)


class PhiGroup:
    """The group presented by a FormFamily; order 2^(n+t).

    Elements are ids a | b << n (see the module docstring): the identity is 0,
    the generator a_i is 1 << i and the central b_s is 1 << (n + s).  `mul` is
    the product on ids, caching per a-part the row folds the cocycle needs.
    """

    def __init__(self, fam: FormFamily):
        self.fam = fam
        self.n = n = fam.n
        self.t = fam.t
        amask = (1 << n) - 1
        lower = fam.lower
        folds: dict[int, list[int]] = {}  # a-part -> per-form row fold, lazily

        def mul(i: int, j: int) -> int:
            a1, a2 = i & amask, j & amask
            fold = folds.get(a1)
            if fold is None:
                fold = folds[a1] = [fold_rows(rows, a1) for rows in lower]
            beta = 0
            for s, acc in enumerate(fold):
                beta |= ((acc & a2).bit_count() & 1) << s
            return (a1 ^ a2) | ((i >> n) ^ (j >> n) ^ beta) << n

        self.mul = mul

    @property
    def order(self) -> int:
        return 1 << (self.n + self.t)

    def rows(self) -> list[tuple[int, ...]]:
        """The Cayley table as tuple rows, from 4^n products rather than order^2.

        `mul` adds the b-parts by XOR, so the product of a1 | b1 << n and
        a2 | b2 << n is mul(a1, a2) ^ (b1 ^ b2) << n: one row of products per
        a-part, shifted per b-part, fills in every row.
        """
        n, size = self.n, 1 << self.t
        mul, a_ids = self.mul, range(1 << n)
        blocks = []  # per a1, the products (a1, 0)(a2, b) over a2, one list per b
        for a1 in a_ids:
            base = [mul(a1, a2) for a2 in a_ids]
            blocks.append([[x ^ b << n for x in base] for b in range(size)])
        table = []
        for b1 in range(size):  # row a1 | b1 << n, in id order
            for own in blocks:
                row: list[int] = []
                for b2 in range(size):
                    row += own[b1 ^ b2]
                table.append(tuple(row))
        return table

    def b_ids(self) -> list[int]:
        """Ids of the central generators b_0, ..., b_{t-1}."""
        return [1 << (self.n + s) for s in range(self.t)]


class CenterResult(NamedTuple):
    a_radical: Subspace  # a-parts of central elements
    rank: int  # rank of the elementary abelian part of the center


def center(G: PhiGroup) -> CenterResult:
    """The center of G: a-parts form the common radical of the family.

    The reported rank is t plus the dimension of the q-kernel inside the
    radical (q is linear there since all forms vanish); central elements
    with q nonzero have order 4 and are counted by center_order4_dim.
    """
    radical = common_radical(G.fam)
    q_rows = [quadratic_refinement(G.fam, v).bits for v in radical.basis]
    q_rank = len(_echelon_bits(q_rows))
    return CenterResult(radical, G.t + radical.dim - q_rank)


def center_order4_dim(G: PhiGroup, c: Optional[CenterResult] = None) -> int:
    """Dimension of the image of q on the radical: independent order-4 central directions.

    Pass `c = center(G)` when it is already at hand; otherwise it is computed.
    """
    radical, rank = c if c is not None else center(G)
    return G.t + radical.dim - rank


# -- maximal isotropic q-zero subspace search --------------------------------


class IsotropicResult(NamedTuple):
    dim: int
    witness: Subspace


_ONE_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(mask: int) -> bytes:
    """Byte k is bit k of mask (0 or 1), up to its highest set bit: one pass
    over the binary digits, lowest first, for `itertools.compress`."""
    return bin(mask)[:1:-1].encode().translate(_ONE_BITS)


def _qzero_vectors(fam: FormFamily) -> list[int]:
    """All nonzero a-vectors with q(v) = 0, ascending.

    Bit-sliced over all 2^n vectors at once: q_s(v) = XOR_i v_i parity(L_s[i] & v)
    is the quadratic of `_quadratic_mask` with rows L_s, whose diagonal is zero,
    and q(v) = 0 off the union of the masks where some q_s is 1.
    """
    x = _coordinate_masks(fam.n)
    nonzero = 0
    for rows in fam.lower:
        nonzero |= _quadratic_mask(x, rows)
    zero = ((1 << (1 << fam.n)) - 1) ^ nonzero ^ 1
    flags = _bit_flags(zero)
    return list(compress(range(len(flags)), flags))


def _gf_mul(x: int, y: int, modulus: int) -> int:
    """Product in GF(2)[x] / (modulus): carry-less multiply, then reduce."""
    top = 1 << (modulus.bit_length() - 1)
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x & top:
            x ^= modulus
    return acc


@lru_cache(maxsize=None)
def _pencil_points(n: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """The points (1 : c) of the pencil scan in order, as (k, c, pairs) at this n.

    GF(2^k) is GF(2)[x] / (modulus) with alpha = x, and c is written in the
    basis 1, alpha, ..., alpha^(k-1).  T_c[a] holds Tr(c alpha^(a + b)) at bit
    b; pairs[a] is (S_1[a], S_c[a]), where S_c[a] is T_c[a] with bit b moved
    to bit b n (see `_witt_ceilings`).  The first point is (1 : 1) over GF(2);
    then, per field of `_PENCIL_MODULI`, one Frobenius-orbit representative c
    of the elements outside every proper subfield.  Conjugate points give the
    same Witt index, because the forms are defined over GF(2).
    """
    points = [(1, 1, ((1, 1),))]
    for modulus in _PENCIL_MODULI:
        k = modulus.bit_length() - 1
        trace_mask = 0  # bit m: Tr(alpha^m) = sum of the k conjugates of alpha^m
        for m in range(k):
            x = acc = 1 << m
            for _ in range(k - 1):
                x = _gf_mul(x, x, modulus)
                acc ^= x
            trace_mask |= acc << m  # acc is 0 or 1

        def spread_table(c: int) -> list[int]:
            powers = [c]  # c alpha^m for m <= 2k - 2
            for _ in range(2 * k - 2):
                powers.append(_gf_mul(powers[-1], 2, modulus))
            return [sum(((powers[a + b] & trace_mask).bit_count() & 1) << b * n for b in range(k))
                    for a in range(k)]

        one = spread_table(1)
        for c in range(2, 1 << k):
            conjugates = [c]  # c, c^2, c^4, ...: k distinct unless c is in a proper subfield
            for _ in range(k - 1):
                conjugates.append(_gf_mul(conjugates[-1], conjugates[-1], modulus))
            if len(set(conjugates)) == k and c == min(conjugates):
                points.append((k, c, tuple(zip(one, spread_table(c)))))
    return tuple(points)


def _witt_ceilings(fam: FormFamily) -> Iterator[int]:
    """Witt indices that bound the isotropic q-zero dim from above, lazily:
    witt(q_s) for each form, then, for t = 2, witt_K(q_0 + c q_1) for each
    point (1 : c) of `_pencil_points`.

    A subspace U on which every q_s vanishes gives a U (x) K on which every
    Q_c = q_0 + c q_1 vanishes, so dim U <= witt_K(Q_c) for every field K
    (Elman, Karpenko and Merkurjev, The Algebraic and Geometric Theory of
    Quadratic Forms, 2008; Scharlau, Math. Z. 147, 1976); the single forms
    are the points (1 : 0) and (0 : 1) over GF(2).  Each q_s is the
    refinement of its Gram rows that vanishes on the basis vectors, so
    `gf2._witt_index` reads it off `fam.grams[s]`; for t = 1 the one value
    is the exact answer.  Q_c on K^n, K = GF(2^k), is read over GF(2) as the
    trace form Tr Q_c on GF(2)^(kn), with coordinate a n + i the coefficient
    of alpha^a in x_i.  Its Gram block (a, b) is T_1[a][b] gram_0 +
    T_c[a][b] gram_1, with no diagonal terms, so row a n + i is
    gram_0[i] * S_1[a] ^ gram_1[i] * S_c[a]: free of carries, since a Gram
    row has n bits.  The trace form has the defect of Q_c: it is nonzero on
    the radical exactly when Q_c is, since Q_c(lambda z) = lambda^2 Q_c(z)
    there, and its Arf invariant is the trace of that of Q_c.  So
    witt(Tr Q_c) = k witt_K(Q_c) - defect and witt_K = witt(Tr Q_c) // k.
    Every value is at least (n - 1) // 2, and at least 1 when n >= 1, since
    every q_s and every Q_c vanishes on e_0.
    """
    yield from map(_witt_index, fam.grams)
    if fam.t == 2:
        grams = list(zip(*fam.grams))
        for k, _, pairs in _pencil_points(fam.n):
            yield _witt_index([x * s_1 ^ y * s_c for s_1, s_c in pairs for x, y in grams]) // k


def _max_isotropic_exhaustive(fam: FormFamily) -> tuple[int, ...]:
    """Visit every q-zero totally isotropic subspace exactly once; returns the
    RREF basis of the first largest one.

    States are canonical RREF bases; extensions branch on every remaining
    compatible candidate coset, deduplicated through a visited set.  No
    bounds are applied, so this is the oracle for the branch-and-bound and
    shares no code with `_bnb_node`: it reduces modulo the whole new basis.
    Work is capped at ISOTROPIC_EXHAUSTIVE_BUDGET units: 32 per candidate
    tried (one RREF each) and, per new subspace, t + 1 per candidate of its
    parent, for the t form filters and the reduction.  A unit costs 0.03 to
    0.25 us, so a search the budget admits ends in about 10 s or less on a
    2-core Xeon; the all-zero family at n = 8 reaches it in 6-9 s.
    """
    gram_rows = fam.grams
    best: tuple[int, ...] = ()
    visited: set[tuple[int, ...]] = {()}
    stack: list[tuple[tuple[int, ...], list[int]]] = [((), _qzero_vectors(fam))]
    work = 0
    while stack:
        basis, cand = stack.pop()
        work += 32 * len(cand)
        for w in cand:
            new_basis = tuple(_rref_bits(list(basis) + [w]))
            if new_basis in visited:
                continue
            visited.add(new_basis)
            work += len(cand) * (len(gram_rows) + 1)
            if work > ISOTROPIC_EXHAUSTIVE_BUDGET:
                raise GuardExceeded("max_isotropic_exhaustive", f"n={fam.n}: the search needs "
                                    f"more than {ISOTROPIC_EXHAUSTIVE_BUDGET} work units")
            # phi_s(c, w) = parity(c & m_s); w itself passes and reduces to 0
            rest = cand
            for rows in gram_rows:
                m = fold_rows(rows, w)
                rest = [c for c in rest if not (c & m).bit_count() & 1]
            if len(new_basis) > len(best):
                best = new_basis
            reduced = {_reduce_bits(c, new_basis) for c in rest}
            reduced.discard(0)
            stack.append((new_basis, sorted(reduced)))
    return best


def _weight_order(vectors: Iterable[int]) -> list[int]:
    """Sorted by (weight, value): a stable sort by weight of the ascending list."""
    return sorted(sorted(vectors), key=int.bit_count)


def _bnb_node(gram_rows: tuple[tuple[int, ...], ...], best: list,
              basis: tuple[int, ...], cand: list[int]) -> None:
    """One node of the branch-and-bound; `best` holds [dim, basis, ceiling].

    dim and basis are the incumbent; once dim reaches the ceiling the whole
    search stops.  `best` changes only on a strictly larger dim, so a ceiling
    no subspace can exceed cuts only work that could not change the answer.
    A module function rather than a recursive closure, so the candidate lists
    are freed when the search returns, not at the next cyclic garbage
    collection.

    Popping v = cand[k] keeps the later candidates c with every
    parity(c & gram_s . v) even.  The first two candidates, and every
    candidate of a list shorter than _COLUMN_FILTER_MIN, filter the list
    form by form.  From the third on, a longer list is filtered by columns:
    the node transposes it once into n masks over its indices (bit i of
    cols[j] is bit j of cand[i]), so the indices that clash with v under
    form s are the one mask fold_rows(cols, gram_s . v), O(n) big-int XORs
    for the whole list.  The survivors are the indices above k outside
    their union, read off in index order, so every child list, node and
    witness is the one the list filter gives.  A transposition costs about
    1.3 list passes, and a decision of `search_forms` mostly stops at its
    first candidate, hence the third; on a shorter list the t n / 2 mask
    steps per candidate cost more than the list passes they replace.
    """
    d = len(basis)
    if d > best[0]:
        best[0] = d
        best[1] = basis
    for k, v in enumerate(cand):
        if best[0] >= best[2]:
            return
        # any extension by e needs 2^e - 1 distinct candidate cosets.  No bound
        # from the rank of cand[k:] is tighter: m distinct nonzero vectors
        # span at least m.bit_length() dimensions
        if d + (len(cand) - k + 1).bit_length() - 1 <= best[0]:
            return
        # c is compatible with v when phi_s(c, v) = parity(c & m_s) is 0 for
        # every s
        rest = cand[k + 1:]
        if k < 2 or len(cand) < _COLUMN_FILTER_MIN:  # each form filters the last one's survivors
            for rows in gram_rows:
                m = fold_rows(rows, v)
                rest = [c for c in rest if not (c & m).bit_count() & 1]
        else:
            if k == 2:  # bit i of cols[j] is bit j of cand[i]
                cols = _transpose_bits(cand, len(gram_rows[0]))
                full = (1 << len(cand)) - 1
            clash = 0  # bit i: cand[i] clashes with v under some form
            for rows in gram_rows:
                clash |= fold_rows(cols, fold_rows(rows, v))
            rest = compress(rest, _bit_flags((full ^ clash) >> (k + 1)))
        # v and every candidate are reduced modulo the basis, so reducing
        # modulo basis + v can only clear the lowest bit p of v
        p = v & -v
        reduced = {c ^ v if c & p else c for c in rest}
        _bnb_node(gram_rows, best, basis + (v,), _weight_order(reduced))


def _bnb(fam: FormFamily, floor: int, ceiling: int) -> list:
    """Branch and bound from the root: weight-ordered candidates, the coset
    counting bound, and a stop at the ceiling.

    Returns `best` = [dim, basis, ceiling] (see _bnb_node).  The incumbent
    starts at dim `floor` with an empty basis.  The ceiling starts at
    `ceiling` and takes the minimum of `_witt_ceilings` while it is above the
    target max(floor, (n - 1) // 2, 1), stopping once it reaches it: no Witt
    index is below (n - 1) // 2 or below 1, and a ceiling at the floor
    settles the answer, so a `ceiling` at or below the target computes none.
    The returned ceiling is the smaller of `ceiling` and every value when the
    scan runs to its end; otherwise it lies between that and the target.  The
    root candidates, the q-zero vectors, are read only when floor < ceiling,
    so a decision a ceiling settles builds no candidate list.  Every node
    works on n-bit ints only.

    Below the ceiling the unit path runs first: it keeps each basis vector
    e_i, in order, that pairs to 0 under every form with the units already
    kept.  If it keeps `ceiling` of them they are the answer, and no
    candidate list is built.  That is the first path of `_bnb_node`, so the
    witness is the same: every e_i is q-zero; `_weight_order` puts the units
    first, ascending; reducing by a unit pivot changes no other unit, so each
    node's list starts with the units its basis leaves compatible, and no
    other vector reduces to an incompatible one; and a node at depth d of the
    path holds the 2^(ceiling - d) - 1 nonzero sums of the units still to
    come, so the coset bound cannot cut it.  A unit path that stops short
    leaves the search as it was.
    """
    target = max(floor, (fam.n - 1) // 2, 1)
    if ceiling > target:
        for witt in _witt_ceilings(fam):
            ceiling = min(ceiling, witt)
            if ceiling <= target:
                break
    best: list = [floor, (), ceiling]
    if floor < ceiling:
        kept: list[int] = []
        clash = 0  # bit j: e_j pairs to 1 with a kept unit under some form
        for i, rows in enumerate(zip(*fam.grams)):
            if not clash >> i & 1:
                kept.append(1 << i)
                if len(kept) == ceiling:
                    return [ceiling, tuple(kept), ceiling]
                for row in rows:
                    clash |= row
        _bnb_node(fam.grams, best, (), _weight_order(_qzero_vectors(fam)))
    return best


def max_isotropic_qzero(fam: FormFamily, mode: str = "branch_and_bound") -> IsotropicResult:
    """Largest subspace where every form and the quadratic refinement vanish.

    Vanishing on a basis (pairwise form values and q of each basis vector)
    forces vanishing on the whole subspace by polarization.
    """
    if mode == "exhaustive":
        if fam.n > ISOTROPIC_EXHAUSTIVE_GUARD:
            raise GuardExceeded(
                "max_isotropic_exhaustive",
                f"n={fam.n} exceeds exhaustive guard {ISOTROPIC_EXHAUSTIVE_GUARD}",
            )
        basis = _max_isotropic_exhaustive(fam)
    elif mode == "branch_and_bound":
        if fam.n > ISOTROPIC_BNB_GUARD:
            raise GuardExceeded(
                "max_isotropic_bnb",
                f"n={fam.n} exceeds branch-and-bound guard {ISOTROPIC_BNB_GUARD}",
            )
        basis = _rref_bits(list(_bnb(fam, 0, fam.n)[1]))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = fam.n
    return IsotropicResult(len(basis), Subspace(n, tuple(BitVector(n, b) for b in basis)))


def group_rank(G: PhiGroup) -> int:
    """Largest rank of an elementary abelian subgroup: t + max isotropic dim."""
    return G.t + max_isotropic_qzero(G.fam).dim


class SearchResult(NamedTuple):
    family: Optional[FormFamily]
    trial_index: Optional[int]
    condition_holds: bool  # 2n < t(k-1), reported but not enforced
    trials_run: int
    skipped_guard: Optional[str] = None


def search_forms(n: int, t: int, k: int, trials: int, seed: int) -> SearchResult:
    """Randomized search for a family whose isotropic q-zero dim is < k.

    Trial families draw from per-trial derived seeds, so the outcome is
    deterministic in (n, t, k, trials, seed) and the returned family is the
    qualifying one of smallest trial index.  The rank condition 2n < t(k-1)
    is reported so callers can interpret an empty result, but families are
    searched either way.  Each trial only decides whether the dim is < k,
    with a branch-and-bound that starts at k - 1 and stops at the first
    subspace of dim k, without computing the maximum.  That search walks the
    unit path of `_bnb` first, so a trial whose unit path keeps k basis
    vectors (most trials at k = 2) runs no q-zero scan and no node; its
    answer and witness are those of the search's first path.  Instances
    beyond the rank-search guard still accept their parameters: the
    condition is reported, trials are skipped, and the skipped guard is
    named.  The same holds for a search over SEARCH_TRIAL_BUDGET work units,
    2^n + 128 t per trial: the q-zero scan and its list grow with 2^n, and
    the family draw, which dominates below n = 8, with t.  A trial reads
    `_witt_ceilings` only while its ceiling k is above max(k - 1,
    (n - 1) // 2, 1), so only for k > (n - 1) // 2 and k > 1, and stops at
    the first value below k, which decides the trial.  When t = 2 and k > (n - 1) // 2 a trial is
    charged 16 n^2 more for the pencil, seven symplectic reductions of at
    most 4n rows, which it may scan (it cannot at k = 1).  A unit costs at
    most about 0.45 us, so a search the budget admits spends at most about
    4 s on a 2-core Xeon outside its branch-and-bound nodes.  n, t or k
    below 1, or a negative trial count, raises ValueError.
    """
    for name, value in (("n", n), ("t", t), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    condition = 2 * n < t * (k - 1)
    if trials > 0 and n > ISOTROPIC_BNB_GUARD:
        return SearchResult(None, None, condition, 0, "max_isotropic_bnb")
    units = (1 << n) + (t << 7)
    if t == 2 and k > (n - 1) // 2:
        units += n * n << 4
    if trials * units > SEARCH_TRIAL_BUDGET:
        return SearchResult(None, None, condition, 0, "search_trials")
    for trial in range(trials):
        fam = random_family(n, t, derive_seed(seed, trial))
        if _bnb(fam, k - 1, k)[0] < k:
            return SearchResult(fam, trial, condition, trial + 1)
    return SearchResult(None, None, condition, trials)


class ExtensionProfile(NamedTuple):
    """Shape of 1 -> (Z/2)^T -> G -> (Z/2)^N -> 1 with V maximal elementary abelian."""

    T: int
    N: int
    v_witness: Subspace  # the a-part U of the chosen V


def extension_profile(G: PhiGroup, mode: str = "branch_and_bound") -> ExtensionProfile:
    """Profile from a maximal isotropic witness U: T = t + dim U, N = n - dim U.

    Validates by direct group arithmetic that the lift V = {(u, f) : u in U}
    is elementary abelian.  V is normal by construction: it contains every
    b_s, so it contains the commutator subgroup [G, G].
    """
    res = max_isotropic_qzero(G.fam, mode=mode)
    lifts = [v.bits for v in res.witness.basis] + G.b_ids()
    for g in lifts:
        if G.mul(g, g) != 0:
            raise AssertionError("lifted subgroup contains an element of order 4")
        for h in lifts:
            if G.mul(g, h) != G.mul(h, g):
                raise AssertionError("lifted subgroup is not abelian")
    return ExtensionProfile(T=G.t + res.dim, N=G.n - res.dim, v_witness=res.witness)
