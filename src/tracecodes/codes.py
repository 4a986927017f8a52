"""Defining sets, codeword compositions and the exhaustive-enumeration oracle.

The code attached to a defining set D is the image of a |-> (Tr(a*x)
for x in D) over all a in F_r.  :func:`orbit_compositions` counts the
symbols of one codeword per orbit of a |-> c*a^(p^i) (c in F_p^*), and,
for D in Tr(x) = b with p not dividing m, per orbit in W = ker Tr only,
as a + t (t in F_p) moves every symbol by t*b; it never materializes the
full codeword matrix.  :func:`cwe_from_compositions` folds those
compositions with the orbit weights, and the dimension falls out of the
zero-composition frequency (the kernel of the linear map a |-> codeword),
so no codeword hashing is needed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from math import gcd
from operator import itemgetter

from .errors import (
    BudgetExceededError,
    DegreeTooSmallError,
    EmptyConstraintError,
    MixedContextError,
    NonPowerCodewordCountError,
    NotFrobeniusStableError,
)
from .fields import FieldContext
from .parallel import fork_map

DEFAULT_BUDGET = 10**8


# ----------------------------------------------------------------------
# Defining sets
# ----------------------------------------------------------------------

class DefiningSet:
    """A defining set held as the discrete logs of its nonzero elements,
    read off ``ctx.trace_exp``: alpha^k lies in {Tr(x) = b, Tr(x^2) = c}
    iff trace_exp[k] = b and trace_exp[2k mod (r - 1)] = c.  The logs
    ascend, so coordinate order is reproducible: 0 first when
    ``has_zero``, then alpha^k for each k in ``logs``."""

    __slots__ = ("ctx", "logs", "has_zero", "trace_value", "trace_square_value", "exclude_zero")

    def __init__(self, ctx: FieldContext, logs: tuple[int, ...], has_zero: bool,
                 trace_value: int | None, trace_square_value: int | None, exclude_zero: bool):
        self.ctx = ctx
        self.logs = logs
        self.has_zero = has_zero
        self.trace_value = trace_value
        self.trace_square_value = trace_square_value
        self.exclude_zero = exclude_zero

    def __len__(self) -> int:
        return len(self.logs) + self.has_zero

    @property
    def in_closed_form_scope(self) -> bool:
        """Whether the closed forms describe this set: {Tr(x) = b,
        Tr(x^2) = 0} with b nonzero."""
        return self.trace_value not in (None, 0) and self.trace_square_value == 0

    @property
    def label(self) -> str:
        parts = []
        if self.trace_value is not None:
            parts.append(f"Tr(x)={self.trace_value}")
        if self.trace_square_value is not None:
            parts.append(f"Tr(x^2)={self.trace_square_value}")
        if self.exclude_zero:
            parts.append("x!=0")
        return ", ".join(parts)


def _indices_of(values: bytes | list[int], value: int) -> list[int]:
    """The ascending k with values[k] == value, for a slice of trace_exp,
    bytes or a list: each ``index`` call scans in C."""
    found, index, k = [], values.index, -1
    try:
        while True:
            k = index(value, k + 1)
            found.append(k)
    except ValueError:
        return found


def build_defining_set_general(ctx: FieldContext, trace_value: int | None = None,
                               trace_square_value: int | None = None,
                               exclude_zero: bool = False) -> DefiningSet:
    """All x satisfying the conjunction of the present constraints.  x = 0
    satisfies a present constraint iff its value is 0."""
    if trace_value is None and trace_square_value is None:
        raise EmptyConstraintError("at least one trace constraint is required")
    logs = range(ctx.r - 1)
    if trace_value is not None:
        trace_value %= ctx.p
        logs = _indices_of(ctx.trace_exp, trace_value)
    if trace_square_value is not None:
        value = trace_square_value = trace_square_value % ctx.p
        # Tr(x^2) for x = alpha^k is trace_exp[2k mod (r - 1)], and as r - 1 is
        # even, that is sq[k mod h] for sq = trace_exp[0::2], h = (r - 1)/2
        sq, h = ctx.trace_exp[0::2], (ctx.r - 1) // 2
        if trace_value is None:  # every log: each hit k of sq, and k + h
            half = _indices_of(sq, value)
            logs = half + [k + h for k in half]
        else:  # the ascending Tr = b logs, read below h and from h on
            i = bisect_left(logs, h)
            logs = [k for k in logs[:i] if sq[k] == value] + \
                [k for k in logs[i:] if sq[k - h] == value]
    has_zero = not exclude_zero and trace_value in (None, 0) and trace_square_value in (None, 0)
    return DefiningSet(ctx=ctx, logs=tuple(logs), has_zero=has_zero, trace_value=trace_value,
                       trace_square_value=trace_square_value, exclude_zero=exclude_zero)


def build_defining_set(ctx: FieldContext, b: int = 1) -> DefiningSet:
    """The main defining set {x : Tr(x) = b, Tr(x^2) = 0}.

    Requires m > 2.  b = 0 is allowed but is flagged as outside the
    scope of the closed-form predictions, which cover b in F_p^* only.
    """
    if ctx.m <= 2:
        raise DegreeTooSmallError("code construction needs extension degree m > 2")
    return build_defining_set_general(ctx, trace_value=b, trace_square_value=0)


# ----------------------------------------------------------------------
# Complete weight enumerator and weight distribution
# ----------------------------------------------------------------------

class CompleteWeightEnumerator:
    """Composition -> frequency multiset for one code; compositions are
    tuples (k_0, ..., k_{p-1}) summing to the length n."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: dict[tuple[int, ...], int]):
        self.p = p
        self.n = n
        self.terms = terms

    def total(self) -> int:
        return sum(self.terms.values())

    def zero_composition(self) -> tuple[int, ...]:
        return tuple([self.n] + [0] * (self.p - 1))

    def distinct_codewords(self) -> int:
        zero_freq = self.terms.get(self.zero_composition(), 0)
        if zero_freq <= 0:
            raise NonPowerCodewordCountError("zero codeword missing from enumeration")
        total = self.total()
        if total % zero_freq:
            raise NonPowerCodewordCountError(
                f"total {total} not divisible by zero-codeword fiber {zero_freq}")
        return total // zero_freq

    def dimension(self) -> int:
        distinct = self.distinct_codewords()
        k = 0
        v = distinct
        while v % self.p == 0:
            v //= self.p
            k += 1
        if v != 1:
            raise NonPowerCodewordCountError(f"{distinct} distinct codewords is not a power of {self.p}")
        return k

    def weight_distribution(self) -> "WeightDistribution":
        counts: dict[int, int] = {}
        for comp, freq in self.terms.items():
            w = self.n - comp[0]
            counts[w] = counts.get(w, 0) + freq
        return WeightDistribution(n=self.n, k=self.dimension(), counts=counts)


class WeightDistribution:
    __slots__ = ("n", "k", "counts")

    def __init__(self, n: int, k: int, counts: dict[int, int]):
        self.n = n
        self.k = k
        self.counts = counts

    def minimum_distance(self) -> int:
        return min(w for w, c in self.counts.items() if w > 0 and c > 0)

    def summary(self, p: int) -> "CodeSummary":
        """[n, k, d] plus the Griesmer and MDS classification."""
        d = self.minimum_distance()
        gsum = griesmer_lower_bound(self.k, d, p)
        return CodeSummary(n=self.n, k=self.k, d=d, griesmer_sum=gsum,
                           griesmer_optimal=(gsum == self.n), mds=(d == self.n - self.k + 1))


# ----------------------------------------------------------------------
# Exhaustive enumeration
# ----------------------------------------------------------------------

def _frobenius_orbits(p: int, size: int, las=None) -> list[tuple[int, int]]:
    """(representative, orbit size) for every orbit of t |-> p*t on
    Z/size, or on ``las``, an ascending union of such orbits;
    representatives ascending."""
    seen = bytearray(size)
    reps = []
    for la in range(size) if las is None else las:
        if seen[la]:
            continue
        s = 0
        t = la
        while not seen[t]:
            seen[t] = 1
            s += 1
            t = t * p % size
        reps.append((la, s))
    return reps


def _translates(p: int, m: int, in_trace_hyperplane: bool) -> bool:
    """Whether the walk takes one codeword per coset of F_p.  On a set in
    Tr(x) = b, Tr((a + t)*x) = Tr(a*x) + t*b for t in F_p.  For p not
    dividing m, Tr(t) = m*t, so W = ker Tr is a complement of F_p, stable
    under F_p^* and Frobenius, and a = w + t splits F_r.  For p | m, x - 1
    is a repeated factor of x^m - 1, and no Frobenius-stable complement
    of F_p exists."""
    return in_trace_hyperplane and m % p != 0


def translation_shift(dset: DefiningSet) -> int | None:
    """b when :func:`orbit_compositions` walks the nonzero elements of
    W = ker Tr for ``dset`` in Tr(x) = b, else None: the codeword of
    w + t, t in F_p, is that of w with every symbol moved by t*b."""
    ctx = dset.ctx
    return dset.trace_value if _translates(ctx.p, ctx.m, dset.trace_value is not None) else None


def _orbit_count(p: int, m: int, in_trace_hyperplane: bool = False) -> int:
    """Number of orbits of t |-> p*t on Z/N, N = (r - 1)/(p - 1), or, where
    :func:`_translates`, on the logs of W = ker Tr in it, by Burnside: the
    map has order m and p^i fixes gcd(p^i - 1, N) residues.  Of those,
    only the p^(g - 1) lines of F_(p^g), g = gcd(i, m), that leave W lie
    outside it: a fixed line of w with w^(p^i) = c*w, c != 1, has
    Tr(w) = c*Tr(w), so Tr(w) = 0."""
    size = (p**m - 1) // (p - 1)
    fixed = [gcd(p**i - 1, size) for i in range(m)]
    if _translates(p, m, in_trace_hyperplane):
        fixed = [f - p ** (gcd(i, m) - 1) for i, f in enumerate(fixed)]
    return sum(fixed) // m


def enumeration_cost(p: int, m: int, n: int, in_trace_hyperplane: bool) -> int:
    """Cost of :func:`orbit_compositions` on n elements of F_{p^m}, in
    symbol evaluations: :func:`_orbit_count` orbits times :func:`_rep_cost`,
    the price of one composition in the kernel that this price picks.
    ``in_trace_hyperplane`` tells a set in Tr(x) = b (main, d1)."""
    return _orbit_count(p, m, in_trace_hyperplane) * _rep_cost(p, p**m, n)


def check_budget(cost: int, budget: int) -> None:
    """BudgetExceededError when ``cost`` symbol evaluations exceed ``budget``."""
    if cost > budget:
        raise BudgetExceededError(
            f"{cost} symbol evaluations exceed the budget of {budget}")


def relabelling(p: int, c: int) -> list[int]:
    """Scaling a codeword by c in F_p^* sends symbol v to c*v: the scaled
    composition is ``[comp[w] for w in relabelling(p, c)]``, comp read at w/c."""
    inverse = pow(c, -1, p)
    return [w * inverse % p for w in range(p)]


# Per representative, the bitset kernel does one shift and p - 1 AND and
# bit_count passes over ints of 2(r - 1) bits, the symbol kernel n list
# reads.  Measured best-of-3 on a 2-core box, Python 3.11.7, over twelve
# (p, m, set) points from (3,8) to (37,3): 2.5-8.1 ns per 64-bit word of
# a mask against 62-150 ns per symbol, a ratio of 12-26 (60 at (37,3)).
_WORDS_PER_SYMBOL = 20


def _rep_cost(p: int, r: int, n: int) -> int:
    """Symbol evaluations per representative on n elements of F_r in the
    kernel that runs: n reads, or, when fewer and p < 256, the bitset
    walk's p - 1 passes over ceil(2(r - 1)/64) words at _WORDS_PER_SYMBOL."""
    bits = -(-(p - 1) * -(-2 * (r - 1) // 64) // _WORDS_PER_SYMBOL)
    return min(n, bits) if p < 256 else n


def _symbol_walk(ctx: FieldContext, dset: DefiningSet):
    """The per-symbol kernel: a function from la to the composition of
    the codeword of alpha^la, which reads Tr(alpha^(la + dl)) for each
    log dl of D, one at a time."""
    p, rm1, tr_exp, d_logs = ctx.p, ctx.r - 1, ctx.trace_exp, dset.logs
    zero_in = int(dset.has_zero)

    def composition(la):
        counts = [0] * p
        counts[0] = zero_in
        shift = la - rm1  # index shift + dl names entry (la + dl) % rm1, negative or not
        for dl in d_logs:
            counts[tr_exp[shift + dl]] += 1
        return tuple(counts)
    return composition


def _bit_walk(ctx: FieldContext, dset: DefiningSet):
    """The bitset kernel, same contract as :func:`_symbol_walk`.  Bit k
    of ``ctx.trace_masks[rho]`` is set iff Tr(alpha^k) = rho, for
    k < 2(r - 1), and dmask has bit dl set for each log dl of D; then the
    codeword of alpha^la has (trace_masks[rho] & dmask << la).bit_count()
    symbols rho, and symbol 0 fills the rest of its n."""
    p, n, rm1 = ctx.p, len(dset), ctx.r - 1
    assert p < 256  # one byte per trace value
    masks = ctx.trace_masks[1:]
    digits = bytearray(b"0") * rm1
    for dl in dset.logs:
        digits[dl] = 49
    dmask = int(digits[::-1], 2)

    def composition(la):
        dsh = dmask << la
        counts = [(mask & dsh).bit_count() for mask in masks]
        return (n - sum(counts), *counts)
    return composition


def _representatives(ctx: FieldContext, dset: DefiningSet) -> list[tuple[int, int]]:
    """The (la, s) orbits that :func:`orbit_compositions` walks: every
    orbit of Z/N, or, where :func:`translation_shift` is not None, those
    of the la with Tr(alpha^la) = 0, the logs of W = ker Tr; Tr(c*x) =
    c*Tr(x) makes that a property of la mod N."""
    size = (ctx.r - 1) // (ctx.p - 1)
    las = None
    if translation_shift(dset) is not None:
        las = _indices_of(ctx.trace_exp[:size], 0)
    return _frobenius_orbits(ctx.p, size, las)


def orbit_compositions(ctx: FieldContext, dset: DefiningSet,
                       workers: int = 1) -> list[tuple[int, int, tuple[int, ...]]]:
    """(la, s, composition of the codeword of alpha^la) for each orbit of
    la |-> p*la of :func:`_representatives`, la ascending.

    The orbit, of size s, stands for the s*(p - 1) elements
    a = c*(alpha^la)^(p^i), c = alpha^(j*N) in F_p^*: for a Frobenius-stable
    D (checked first) a's codeword permutes that of c*alpha^la, whose
    composition is the representative's under :func:`relabelling`.
    Where :func:`translation_shift` gives b, each of those a also stands
    for a + t, t in F_p^*, its symbols moved by t*b, and a = t itself is
    left to the reader (:func:`cwe_from_compositions`).
    The kernel, bitset where :func:`_rep_cost` is below n, else per-symbol,
    gives each composition.  ``workers`` > 1 splits the representatives
    across up to that many processes, this one included, with at least two
    representatives each (:func:`parallel.fork_map`); the result is
    identical for every worker count.
    """
    if dset.ctx is not ctx:
        raise MixedContextError("defining set belongs to a different field context")
    p, rm1, n = ctx.p, ctx.r - 1, len(dset)
    d_logs = dset.logs
    log_set = set(d_logs)
    if any(dl * p % rm1 not in log_set for dl in d_logs):
        raise NotFrobeniusStableError("defining set is not closed under x |-> x^p")
    reps = _representatives(ctx, dset)
    composition = (_bit_walk if _rep_cost(p, ctx.r, n) < n else _symbol_walk)(ctx, dset)

    def walk(chunk):
        return [(la, s, composition(la)) for la, s in chunk]
    workers = min(workers, len(reps) // 2)
    if workers <= 1:
        return walk(reps)
    size = -(-len(reps) // workers)
    chunks = fork_map(walk, [reps[i:i + size] for i in range(0, len(reps), size)])
    return [rep for chunk in chunks for rep in chunk]


def exhaustive_cwe(ctx: FieldContext, dset: DefiningSet, budget: int = DEFAULT_BUDGET,
                   workers: int = 1) -> CompleteWeightEnumerator:
    """Exact complete weight enumerator over all p^m codeword indices:
    :func:`cwe_from_compositions` of the :func:`orbit_compositions`.
    ``budget`` bounds :func:`enumeration_cost`, checked before any walk."""
    n = len(dset)
    check_budget(enumeration_cost(ctx.p, ctx.m, n, dset.trace_value is not None), budget)
    return cwe_from_compositions(ctx.p, n, orbit_compositions(ctx, dset, workers),
                                 shift=translation_shift(dset))


def cwe_from_compositions(p: int, n: int, compositions,
                          shift: int | None = None) -> CompleteWeightEnumerator:
    """The (la, s, composition) list of :func:`orbit_compositions` on a set
    of n elements, weighted by orbit size under each of the p - 1
    relabellings, each followed, for ``shift`` not None
    (:func:`translation_shift`), by the p moves by t*shift.  Then the
    codewords of a in F_p that the walk leaves out: with a shift, a = t has
    every symbol t*shift; without, a = 0 alone, the zero codeword."""
    # The maps a |-> c*a + t form a group, so the compositions of one class
    # share their images, each distinct one copies / len(members) times
    # (orbit-stabiliser): each class is mapped once, its weights summed.
    # Each distinct relabelling is moved, so a stabiliser in F_p^* saves
    # its moves.  A relabelling is one C-level itemgetter call; a move by
    # u sends symbol v to v + u, so it rotates the composition, and the
    # moves of x by u = 1, ..., p - 1 are the slices (x + x)[p - u:2p - u].
    relabels = [itemgetter(*relabelling(p, c)) for c in range(1, p)]
    starts = range(p - 1, 0, -1) if shift else ()
    copies = (p - 1) * (1 if shift is None else p)
    class_of: dict[tuple[int, ...], list[int]] = {}
    classes = []  # ({image: weight}, weight), the weight a 1-cell list
    for _, s, comp in compositions:
        weight = class_of.get(comp)
        if weight is None:
            weight = [0]
            scaled = dict.fromkeys([perm(comp) for perm in relabels])
            members = dict.fromkeys([*scaled, *[x2[i:i + p] for x2 in [x * 2 for x in scaled]
                                                for i in starts]], weight)
            class_of.update(members)
            classes.append((members, weight))
        weight[0] += s
    terms = {}
    for members, (freq,) in classes:
        # classes share no image: dict.fromkeys and update reuse the hashes
        # stored in ``members``
        terms.update(dict.fromkeys(members, freq * (copies // len(members))))
    for t in range(1 if shift is None else p):
        u = t * shift % p if t else 0
        constant = tuple(n if v == u else 0 for v in range(p))
        terms[constant] = terms.get(constant, 0) + 1
    return CompleteWeightEnumerator(p=p, n=n, terms=terms)


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------

def trace_pair_table(ctx: FieldContext) -> dict[tuple[int, int], int]:
    """Counts of x with (Tr(x^2), Tr(x)) = (A, B), for every pair."""
    # Tr(x^2) for x = alpha^k is trace_exp[2k mod (r - 1)]: trace_exp[0::2]
    # twice over, as r - 1 is even
    counts = Counter(zip(ctx.trace_exp[0::2] * 2, ctx.trace_exp))
    counts[0, 0] += 1  # x = 0
    p = ctx.p
    return {(a_val, b_val): counts[a_val, b_val] for a_val in range(p) for b_val in range(p)}


# ----------------------------------------------------------------------
# Summary and classification
# ----------------------------------------------------------------------

class CodeSummary:
    __slots__ = ("n", "k", "d", "griesmer_sum", "griesmer_optimal", "mds")

    def __init__(self, n: int, k: int, d: int, griesmer_sum: int, griesmer_optimal: bool,
                 mds: bool):
        self.n = n
        self.k = k
        self.d = d
        self.griesmer_sum = griesmer_sum
        self.griesmer_optimal = griesmer_optimal
        self.mds = mds


def griesmer_lower_bound(k: int, d: int, p: int) -> int:
    """sum of ceil(d / p^i) for i < k; a length lower bound for [n,k,d]."""
    return sum(-(-d // p**i) for i in range(k))


def summarize(cwe: CompleteWeightEnumerator, p: int) -> CodeSummary:
    return cwe.weight_distribution().summary(p)

