"""Exact joint distributions on {0,1}^n and permutation-ordered MMSE search.

Everything here is computed directly from an explicit table of 2**n weights,
so results are exact up to float rounding and serve as the brute-force oracle
for the bound modules. Bit k of a weight index (bit 0 least significant)
stores coordinate x_{k+1}; coordinates are numbered 1..n throughout.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, check_int, check_open, check_range

__all__ = [
    "MAX_COORDS",
    "EXHAUSTIVE_CAP",
    "ExplicitPmf",
    "entropy",
    "entropy_many",
    "conditional_mmse",
    "noisy_conditional_mmse",
    "mmse_along_permutation",
    "worst_case_mmse",
    "worst_case_mmse_many",
    "best_case_mmse_given_output",
    "best_case_mmse_given_output_many",
    "apply_bsc",
    "apply_bsc_many",
    "markov_joint_pmf",
    "greedy_permutation",
    "counterexample_pmf",
    "random_pmf",
    "read_pmf",
    "write_pmf",
]

MAX_COORDS = 16
EXHAUSTIVE_CAP = 8
# read_pmf reads at most 32 bytes a weight at MAX_COORDS; write_pmf uses <= 24
_MAX_PMF_BYTES = 32 << MAX_COORDS

# greedy_permutation treats values this close to a step's largest as tied
_GREEDY_TIE = 1e-12

# the smallest positive double: dividing by it leaves a zero-mass context's
# a b = 0 at 0, and max(tot, it) is tot for every positive tot
_MIN_POSITIVE = float(np.nextafter(0.0, 1.0))

# weight vectors further than this from unit mass are rejected, closer ones
# are renormalized
_SUM_TOL = 1e-9

# _by_stacks cuts each group of same-n pmfs into stacks of at most this many
# doubles (512 KiB): of expanded cost tables in the order searches, one
# member at n = 8 and 303 at n = 4; of weight tables in apply_bsc_many and
# entropy_many, one member at n = 16 and 4,096 at n = 4; of the any-order
# oracle's per-order sums in validate, n! 2**n doubles a member, 170 at
# n = 4 and 17 at n = 5
_STACK_ENTRIES = 1 << 16


class ExplicitPmf:
    """Immutable pmf over {0,1}^n stored as a flat table of 2**n weights.

    The coordinate count n is inferred from the table length. Negative,
    non-finite, or badly normalized weights are rejected at construction.
    Since the weights never change, the order searches keep what they derive
    from them in a private memo: the clean step tables (read-only) and the
    result of worst_case_mmse. A pickled or copied pmf gets the same weights,
    bit for bit, and an empty memo.
    """

    __slots__ = ("n", "weights", "_memo")

    def __init__(self, weights: Iterable[float]) -> None:
        try:
            arr = np.array(np.asarray(weights, dtype=float).ravel(), dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"weights must be real numbers: {exc}") from exc
        size = int(arr.size)
        if size < 2 or size & (size - 1):
            raise DomainError(f"need a power-of-two number of weights >= 2, got {size}")
        n = size.bit_length() - 1
        if n > MAX_COORDS:
            raise DimensionError(f"n={n} exceeds the {MAX_COORDS}-coordinate cap")
        _normalize_rows(arr.reshape(1, size))
        self._store(arr)

    def _store(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "n", arr.size.bit_length() - 1)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ExplicitPmf is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the weights alone, so the memo starts
        # empty
        return _restore_pmf, (self.weights,)

    def __repr__(self) -> str:
        return f"ExplicitPmf(n={self.n})"


def _restore_pmf(weights: np.ndarray) -> ExplicitPmf:
    """Rebuild a pickled or copied ExplicitPmf, or wrap a row that
    _mix_rows returned. Its weights were already checked and normalized, so
    they are copied bit for bit: normalizing them again could move them by a
    rounding."""
    pmf = object.__new__(ExplicitPmf)
    pmf._store(np.array(weights, dtype=float))
    return pmf


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """ExplicitPmf's weight checks on a (B, 2**n) stack of weight tables, one
    a row, the batch riding as the leading axis: the checks cover the whole
    stack at once (every weight finite and nonnegative, each row's sum within
    _SUM_TOL of 1), and then each row is divided, in place, by its own sum."""
    if not np.isfinite(rows).all():
        raise DomainError("weights must all be finite")
    if (rows < 0.0).any():
        raise DomainError("weights must be nonnegative")
    totals = rows.sum(axis=1)
    for total in totals.tolist():
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"weights sum to {total!r}, further than {_SUM_TOL} from 1")
    rows /= totals[:, None]
    return rows


def _check_pmf(name: str, pmf) -> ExplicitPmf:
    if not isinstance(pmf, ExplicitPmf):
        raise DomainError(f"{name} must be an ExplicitPmf, got {type(pmf).__name__}")
    return pmf


def _check_pmfs(pmfs) -> list[ExplicitPmf]:
    try:
        pmfs = list(pmfs)
    except TypeError as exc:
        raise DomainError(f"pmfs must be an iterable of ExplicitPmf: {exc}") from exc
    return [_check_pmf("pmf", pmf) for pmf in pmfs]


def _check_permutation(pmf: ExplicitPmf, order: Sequence[int]) -> tuple[int, ...]:
    out = tuple(check_int("order entry", j, 1, pmf.n) for j in order)
    if sorted(out) != list(range(1, pmf.n + 1)):
        raise DomainError(f"order {tuple(order)!r} is not a permutation of 1..{pmf.n}")
    return out


def _marginal(weights: np.ndarray, n: int, coords: Sequence[int]) -> np.ndarray:
    """Flat marginal over ascending `coords`; bit k of the result indexes coords[k]."""
    keep = set(coords)
    drop = tuple(n - j for j in range(1, n + 1) if j not in keep)
    t = weights.reshape((2,) * n)
    if drop:
        t = t.sum(axis=drop)
    return t.reshape(-1)


def _channel_mix(m: np.ndarray, t: int, alpha: float, inner: int = 1) -> np.ndarray:
    """Replace bit t of a flat joint table by its symmetric-flip output; with
    `inner`, bit t of the index over contiguous blocks of that many entries."""
    m3 = m.reshape(-1, 2, inner << t)
    return ((1.0 - alpha) * m3 + alpha * m3[:, ::-1, :]).reshape(-1)


def _row_entropies(rows: np.ndarray) -> list[float]:
    """The entropy of each row of a (B, 2**n) stack of weight tables, the
    batch riding as the leading axis: one rows * log2(rows) and a sum per
    row when no weight in the stack is 0, otherwise each row's sum over its
    positive weights alone."""
    if rows.all():
        return (-(rows * np.log2(rows)).sum(axis=1)).tolist()
    # 0.0 - x is -x bit for bit, but +0.0 where a point mass sums to 0.0
    return [0.0 - float((pos * np.log2(pos)).sum()) for pos in (row[row > 0.0] for row in rows)]


def entropy(pmf: ExplicitPmf) -> float:
    """Shannon entropy of the joint law, in bits."""
    return _row_entropies(_check_pmf("pmf", pmf).weights[None])[0]


def entropy_many(pmfs: Iterable[ExplicitPmf]) -> list[float]:
    """entropy of each pmf, in input order and with the same results, the
    pmfs of one n taken as stacks of rows."""
    return _by_stacks(_check_pmfs(pmfs), _row_entries,
                      lambda stack: _row_entropies(np.array([p.weights for p in stack])))


def _conditional_mmse(pmf: ExplicitPmf, target: int, given: Sequence[int], alpha: float) -> float:
    """E[Var(X_target | X_given, each seen through flip rate alpha)]: the sum
    of _mmse_kernel over the contexts of the given bits. At alpha = 0 the
    channel mix would leave the table unchanged, so it is skipped."""
    target = check_int("target", target, 1, _check_pmf("pmf", pmf).n)
    given = tuple(sorted({check_int("conditioning coordinate", j, 1, pmf.n) for j in given}))
    if target in given:
        raise DomainError(f"target {target} also appears in the conditioning set")
    coords = tuple(sorted(given + (target,)))
    m = _marginal(pmf.weights, pmf.n, coords)
    t = coords.index(target)
    if alpha:
        for s in range(len(coords)):
            if s != t:
                m = _channel_mix(m, s, alpha)
    m = m.reshape(-1, 2, 1 << t)
    return float(_mmse_kernel(m[:, 0], m[:, 1]).sum())


def conditional_mmse(pmf: ExplicitPmf, target: int, given: Sequence[int] = ()) -> float:
    """Exact E[Var(X_target | X_given)] under the stored joint law.

    `given` may be empty; the target must not appear in it.
    """
    return _conditional_mmse(pmf, target, given, 0.0)


def noisy_conditional_mmse(
    pmf: ExplicitPmf, target: int, given: Sequence[int], alpha: float
) -> float:
    """E[Var(X_target | noisy versions of X_given)], each conditioning bit
    observed through an independent symmetric channel with flip rate alpha."""
    return _conditional_mmse(pmf, target, given, check_range("alpha", alpha, 0.0, 0.5))


def mmse_along_permutation(pmf: ExplicitPmf, order: Sequence[int]) -> float:
    """Sum of conditional bit variances taken in the given prediction order.

    The one-pmf, one-order case of _mmse_along_orders_many, which validate
    runs on all n! orders of every pmf of one n at once. It shares no code
    with the subset search, which validate checks against it.
    """
    order = _check_permutation(_check_pmf("pmf", pmf), order)
    return float(_mmse_along_orders_many([pmf], [order])[0, 0])


def _mmse_along_orders_many(pmfs: Sequence[ExplicitPmf],
                            orders: Sequence[Sequence[int]]) -> np.ndarray:
    """mmse_along_permutation of every pmf (all of one n, not checked) along
    every order in `orders` (each a permutation of 1..n, not checked), as a
    (pmfs, orders) array, in one pass over the transposes of every (pmf,
    order) pair, gathered as one transpose of the pmfs' stacked weight
    tables per order.

    Each transpose puts the table's axes in prediction order, last
    coordinate first: splitting the last axis gives that coordinate's term,
    the sum of a b / (a + b) over its contexts, and summing it away leaves
    the marginal of the ones before it. A zero-mass context (a = b = 0)
    divides by the smallest positive double instead and so adds 0. Every
    pair's terms are then added in prediction order.
    """
    n = pmfs[0].n
    count = len(pmfs) * len(orders)
    # axis 0 of the stack holds the pmf, and axis n + 1 - j coordinate j; a
    # lone pmf's table is its own stack, not a copy
    stack = np.array([pmf.weights for pmf in pmfs]) if len(pmfs) > 1 else pmfs[0].weights
    w = stack.reshape((-1,) + (2,) * n)
    t = np.array([w.transpose([0] + [n + 1 - j for j in order]) for order in orders])
    terms = np.empty((n, count))
    for i in range(n - 1, -1, -1):
        a, b = t[..., 0], t[..., 1]
        t = a + b
        # an oracle for _mmse_kernel (worst-case-dominates), so it keeps its own a b / (a + b)
        ctx = a * b
        ctx /= np.maximum(t, _MIN_POSITIVE)
        np.add.reduce(ctx.reshape(count, -1), axis=1, out=terms[i])
    return np.add.accumulate(terms, axis=0)[-1].reshape(len(orders), len(pmfs)).T


def _check_table_size(n: int) -> None:
    """Refuse n above EXHAUSTIVE_CAP before any all-subset table is built.

    The cost table expands to 2 n 3**(n-1) floats; scoring one order at
    n = 14 peaked near 1 GB, and each two more bits cost about 10x."""
    if n > EXHAUSTIVE_CAP:
        raise DimensionError(f"n={n} above the exhaustive-search cap {EXHAUSTIVE_CAP}")


def _expand(t: np.ndarray, k: int) -> np.ndarray:
    """Append to each of the first k axes, each of size 2, the entry that
    sums it out.

    Afterwards index 0 or 1 on such an axis fixes the coordinate's value and
    index 2 leaves it unobserved, so every subset marginal sits in one
    3-valued table, each derived from its parent by summing one axis. The
    axes after the first k ride along: every sum adds whole contiguous
    blocks of them, and _build_cost_tables' batch of pmfs rides along as
    the last of them. The table is written into one new array, axis k-1
    first, each sum reading the entries the later axes already hold.
    """
    out = np.empty((3,) * k + t.shape[k:])
    out[(slice(2),) * k] = t
    for i in range(k - 1, -1, -1):
        head = (slice(2),) * i
        np.add(out[head + (0, ...)], out[head + (1, ...)], out=out[head + (2, ...)])
    return out


def _fold(r: np.ndarray, k: int) -> np.ndarray:
    """Sum per-context values of an _expand table into one value per subset.

    On each of the first k axes, index 0 becomes the unobserved entry and
    index 1 the sum over both observed values, so with the k axes folded
    their flat index is the subset mask (axis 0 holds the highest
    coordinate); the trailing axes ride along as in _expand,
    _build_cost_tables' batch of pmfs last. The axes fold first to last into
    one new array, the first read from r and the others in place; r itself
    is left as it was.
    """
    if not k:
        return r
    out = np.empty((2,) + r.shape[1:])
    src = r
    for i in range(k):
        head = (slice(2),) * i
        np.add(src[head + (0, ...)], src[head + (1, ...)], out=out[head + (1, ...)])
        out[head + (0, ...)] = src[head + (2, ...)]
        src = out
    return out[(slice(2),) * k]


@functools.cache
def _cost_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index arrays of _build_cost_tables at n coordinates, read-only:
    the gather that regroups the weights, and the (mask, bit) scatter of the
    result.

    masks[c, j-1] is the (n-1)-bit context index c with a 0 put in at bit
    j-1, and the gather puts the weight with x_j = x and the other
    coordinates given by c at flat index (c, j-1, x): the context bits lead
    and the (target, x_target) block of 2 n weights is a contiguous inner
    run. Only sizes the cap admits are built, so the cache holds at most
    EXHAUSTIVE_CAP plans.
    """
    _check_table_size(n)
    packed = np.arange(1 << (n - 1))[:, None]
    bit = np.arange(n)
    masks = (packed & ((1 << bit) - 1)) | ((packed >> bit) << (bit + 1))
    gather = (masks[:, :, None] | (np.arange(2) << bit[:, None])).reshape(-1)
    for arr in (gather, masks, bit):
        arr.setflags(write=False)
    return gather, masks, bit


def _mmse_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b / (a + b): each context's MMSE term; 0 at zero mass, where a b = 0
    is divided by the smallest double."""
    tot = a + b
    ctx = a * b
    ctx /= np.maximum(tot, _MIN_POSITIVE, out=tot)
    return ctx


def _entropy_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) h(b / (a + b)) = -a log2(a / (a + b)) - b log2(b / (a + b)):
    each context's entropy term, >= 0 exactly as no mass exceeds its
    context's; a zero mass adds +0 (the log taken is the smallest double's)."""
    tot = a + b
    np.maximum(tot, _MIN_POSITIVE, out=tot)
    ctx = np.zeros_like(tot)
    r = np.empty_like(tot)  # one scratch array: a new one per term cost ~50% more
    for m in (a, b):
        np.divide(m, tot, out=r)
        np.maximum(r, _MIN_POSITIVE, out=r)
        np.log2(r, out=r)
        r *= m
        ctx -= r
    return ctx


def _build_cost_tables(weights: np.ndarray, alpha: float, kernel) -> np.ndarray:
    """cost[mask, j-1, ...] = the sum of `kernel` over the contexts of the
    mask bits, each bit seen through a symmetric channel with flip rate
    alpha: E[Var(X_j | mask)] for _mmse_kernel, H(X_j | mask) for
    _entropy_kernel. `weights` is one pmf's table of 2**n weights, or a
    (2**n, B) stack of B tables, one a column; the result has the same
    trailing batch axis.

    All targets are handled at once: the weights are regrouped by (the
    other coordinates, j, x_j). Every other coordinate passes through the
    channel and is expanded to its subset marginals; x_j splits each
    context's mass into the kernel's (a, b); and the contexts fold to masks.
    The batch rides along as the last axis through the gather, the channel,
    _expand, the kernel and _fold, every step elementwise across it, so each
    member's table is the one it would get alone. Entries whose mask
    contains j are NaN.
    """
    size, batch = weights.shape[0], weights.shape[1:]
    n = size.bit_length() - 1
    gather, masks, bit = _cost_plan(n)
    t = weights.take(gather, axis=0)
    if alpha:
        # the context index counts the blocks of 2 n weights, each a batch
        for s in range(n - 1):
            t = _channel_mix(t, s, alpha, 2 * n * math.prod(batch))
    t = _expand(t.reshape((2,) * (n - 1) + (n, 2) + batch), n - 1)
    x = (slice(None),) * n  # x_j is axis n, after the context bits and j
    folded = _fold(kernel(t[x + (0,)], t[x + (1,)]), n - 1)
    cost = np.full((size, n) + batch, np.nan)
    cost[masks, bit] = folded.reshape((-1, n) + batch)
    return cost


def _cost_tables(pmfs: Sequence[ExplicitPmf], alpha: float, kernel) -> list[np.ndarray]:
    """_build_cost_tables of pmfs of one n, a lone pmf's as it is and the
    others' as one stack. Each kernel's clean table (alpha = 0) is built
    once per pmf and kept read-only in its memo."""
    new = pmfs if alpha else [p for p in pmfs if kernel not in p._memo]
    if len(new) > 1:
        stack = _build_cost_tables(np.array([p.weights for p in new]).T, alpha, kernel)
        # one copy puts the batch first, each member's table contiguous
        tables = list(np.ascontiguousarray(stack.transpose(2, 0, 1)))
    else:
        tables = [_build_cost_tables(p.weights, alpha, kernel) for p in new]
    if alpha:
        return tables
    for pmf, table in zip(new, tables):
        table.setflags(write=False)
        pmf._memo[kernel] = table
    return [p._memo[kernel] for p in pmfs]


def _cost_table(pmf: ExplicitPmf, kernel=_mmse_kernel) -> np.ndarray:
    """The clean (2**n, n) cost table of one pmf: the one-member, alpha = 0
    case of _cost_tables."""
    return _cost_tables([pmf], 0.0, kernel)[0]


def _along_order(table: np.ndarray, order: Sequence[int]) -> list[float]:
    """table[mask, j-1] for each j of the order, mask holding the coordinates
    ordered before j."""
    out: list[float] = []
    mask = 0
    for j in order:
        out.append(float(table[mask, j - 1]))
        mask |= 1 << (j - 1)
    return out


@functools.cache
def _lattice(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """For each subset size k = 1..n: the masks of that size, per mask the k
    masks one coordinate smaller, and for each of those the flat index
    pred * n + j - 1 into a (2**n, n) step table of the coordinate j that
    was removed.

    Built once per n and read-only; only sizes the cap admits are built, so
    the cache holds at most EXHAUSTIVE_CAP lattices."""
    _check_table_size(n)
    masks = np.arange(1 << n)
    has = (masks[:, None] >> np.arange(n)) & 1 == 1
    size = has.sum(axis=1)
    levels = []
    for k in range(1, n + 1):
        sub = np.flatnonzero(size == k)
        col = np.nonzero(has[sub])[1].reshape(-1, k)
        pred = sub[:, None] ^ (1 << col)
        level = (sub, pred, pred * n + col)
        for arr in level:
            arr.setflags(write=False)
        levels.append(level)
    return tuple(levels)


def _best_orders(n: int, steps: Sequence[np.ndarray],
                 pick_max: bool) -> list[tuple[float, tuple[int, ...]]]:
    """Optimal additive prediction order of each (2**n, n) step table, by one
    dynamic program over the subsets of all of them.

    `step[mask, j-1]` is the cost of predicting coordinate j after the ones
    in mask. Forward over subsets of growing size,

        best[S] = opt_j (best[S without j] + step[S without j, j-1]),

    which is exactly the max (or min) of the left-to-right sums of all n!
    orders, since rounded addition is monotone. The returned order is the
    lexicographically first one whose every prefix is optimal for its set.
    The tables' subsets are disjoint copies in one lattice, so each result
    is the one its table would get alone: copy b's masks are offset by
    b 2**n and its step indices by b 2**n n. A lone table reads _lattice(n)
    as it is; a stack's offset lattice is built per call.
    """
    count, size = len(steps), 1 << n
    lattice = _lattice(n)
    if count > 1:
        off = np.arange(count)[:, None, None] << n
        lattice = [(off[:, 0] + sub, off + pred, off * n + idx) for sub, pred, idx in lattice]
    flat = np.concatenate(steps, axis=None)
    best = np.zeros(count * size)
    tight = []
    for sub, pred, idx in lattice:
        cand = best.take(pred)
        cand += flat.take(idx)
        best[sub] = top = cand.max(axis=-1) if pick_max else cand.min(axis=-1)
        tight.append(cand == top[..., None])

    # reach[S]: a chain of tight edges leads from S to its copy's full set
    reach = np.zeros(count * size, dtype=bool)
    reach[size - 1::size] = True
    for (sub, pred, _), edge in zip(reversed(lattice), reversed(tight)):
        reach[pred[edge & reach[sub][..., None]]] = True

    # the walk reads Python floats, which add exactly as float64 scalars do;
    # copy b's masks carry b in their bits from n up
    best, reach = best.tolist(), reach.tolist()
    found = []
    for base, step in zip(range(0, count * size, size), steps):
        order: list[int] = []
        mask = base
        for _ in range(n):
            here, row = best[mask], step[mask - base].tolist()
            j = next(j for j in range(n)
                     if not mask >> j & 1 and reach[mask | 1 << j]
                     and here + row[j] == best[mask | 1 << j])
            order.append(j + 1)
            mask |= 1 << j
        found.append((best[mask], tuple(order)))
    return found


def _table_entries(n: int) -> int:
    """The doubles of one member's expanded cost table, 2 n 3**(n-1), once n
    is held to the cap."""
    _check_table_size(n)
    return 2 * n * 3 ** (n - 1)


def _row_entries(n: int) -> int:
    """The doubles of one member's weight table."""
    return 1 << n


def _by_stacks(pmfs: Sequence[ExplicitPmf], entries, run) -> list:
    """run(stack) over the pmfs grouped by n, each group cut in input order
    into stacks of at most _STACK_ENTRIES doubles, entries(n) a member; run
    returns one result per member, and the results come back in input order.
    Every group's entries(n) is taken before any stack is run."""
    groups: dict[int, list[int]] = {}
    for i, pmf in enumerate(pmfs):
        groups.setdefault(pmf.n, []).append(i)
    per = {n: max(1, _STACK_ENTRIES // entries(n)) for n in groups}
    out: list = [None] * len(pmfs)
    for n, idx in groups.items():
        for s in range(0, len(idx), per[n]):
            cut = idx[s:s + per[n]]
            for i, found in zip(cut, run([pmfs[i] for i in cut])):
                out[i] = found
    return out


def _search(pmfs: Sequence[ExplicitPmf], alpha: float,
            pick_max: bool) -> list[tuple[float, tuple[int, ...]]]:
    """The optimal MMSE order of each pmf of one stack, each bit seen through
    flip rate alpha."""
    return _best_orders(pmfs[0].n, _cost_tables(pmfs, alpha, _mmse_kernel), pick_max)


def worst_case_mmse(pmf: ExplicitPmf) -> tuple[float, tuple[int, ...]]:
    """Max of mmse_along_permutation over all n! orders, found exactly by a
    dynamic program over coordinate subsets.

    Returns (value, order), the order being the lexicographically first one
    whose every prefix is optimal. Refuses n above EXHAUSTIVE_CAP. The result
    is kept in the pmf's memo, so later calls on the same pmf return it.
    """
    return worst_case_mmse_many([pmf])[0]


def worst_case_mmse_many(pmfs: Iterable[ExplicitPmf]) -> list[tuple[float, tuple[int, ...]]]:
    """worst_case_mmse of each pmf, in input order, with the same results and
    memo: the pmfs without a kept result are searched in lockstep, grouped
    by n. Refuses n above EXHAUSTIVE_CAP before any search."""
    pmfs = _check_pmfs(pmfs)
    todo = [pmf for pmf in pmfs if "worst" not in pmf._memo]
    searched = _by_stacks(todo, _table_entries, lambda stack: _search(stack, 0.0, pick_max=True))
    for pmf, found in zip(todo, searched):
        pmf._memo["worst"] = found
    return [pmf._memo["worst"] for pmf in pmfs]


def best_case_mmse_given_output(pmf: ExplicitPmf, alpha: float) -> tuple[float, tuple[int, ...]]:
    """Min over prediction orders of the chained MMSE of each bit given noisy
    observations of the bits ordered before it, found exactly by a dynamic
    program over coordinate subsets.

    Returns (value, order), the order being the lexicographically first one
    whose every prefix is optimal. Refuses n above EXHAUSTIVE_CAP.
    """
    return best_case_mmse_given_output_many([pmf], alpha)[0]


def best_case_mmse_given_output_many(
    pmfs: Iterable[ExplicitPmf], alpha: float
) -> list[tuple[float, tuple[int, ...]]]:
    """best_case_mmse_given_output of each pmf at one alpha, in input order
    and with the same results, searched in lockstep, grouped by n. Refuses n
    above EXHAUSTIVE_CAP before any search."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    return _by_stacks(_check_pmfs(pmfs), _table_entries,
                      lambda stack: _search(stack, alpha, pick_max=False))


def _mix_rows(rows: np.ndarray, alpha: float) -> np.ndarray:
    """The output laws of a (B, 2**n) stack of weight tables, one a row, the
    batch riding as the leading axis: _channel_mix bit by bit over the whole
    stack (inner 1, as every row is 2**n long and so no block crosses a row),
    then _normalize_rows, whose checks cover the whole stack."""
    size = rows.shape[1]
    w = rows.reshape(-1)
    for t in range(size.bit_length() - 1):
        w = _channel_mix(w, t, alpha)
    return _normalize_rows(w.reshape(-1, size))


def apply_bsc(pmf: ExplicitPmf, alpha: float) -> ExplicitPmf:
    """Law of the output when every coordinate passes through an independent
    symmetric channel with flip rate alpha."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    return _restore_pmf(_mix_rows(_check_pmf("pmf", pmf).weights[None], alpha)[0])


def apply_bsc_many(pmfs: Iterable[ExplicitPmf], alpha: float) -> list[ExplicitPmf]:
    """apply_bsc of each pmf at one alpha, in input order and with the same
    weights, the pmfs of one n mixed as stacks of rows. Every pmf and alpha
    is checked before any mixing."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    return _by_stacks(_check_pmfs(pmfs), _row_entries, lambda stack: [
        _restore_pmf(row) for row in _mix_rows(np.array([p.weights for p in stack]), alpha)])


def markov_joint_pmf(n: int, q: float) -> ExplicitPmf:
    """Joint law of n steps of the stationary symmetric Markov chain that
    flips with probability q, started from a fair bit."""
    q = check_range("q", q, 0.0, 0.5)
    n = check_int("n", n, 1, MAX_COORDS, DimensionError)
    w = np.array([0.5, 0.5])
    for m in range(2, n + 1):
        top = (np.arange(w.size) >> (m - 2)) & 1
        stay = np.where(top == 0, 1.0 - q, q)
        move = np.where(top == 0, q, 1.0 - q)
        w = np.concatenate([w * stay, w * move])
    return ExplicitPmf(w)


def greedy_permutation(pmf: ExplicitPmf) -> tuple[int, ...]:
    """Order the coordinates by repeatedly taking the hardest one to predict
    from those already chosen, reading the pmf's clean cost table.

    Tie rule: among the remaining coordinates, the smallest index whose
    value is within 1e-12 (absolute, _GREEDY_TIE) of the largest wins. So
    coordinates that tie mathematically go in index order even where their
    computed values differ by a rounding: every bit of markov_joint_pmf has
    variance 1/4, and its greedy order starts at coordinate 1. Refuses n
    above EXHAUSTIVE_CAP, like every other order search here.
    """
    cost = _cost_table(_check_pmf("pmf", pmf))
    remaining = list(range(pmf.n))
    order: list[int] = []
    mask = 0
    while remaining:
        row = cost[mask].tolist()
        top = max(row[j] for j in remaining)
        j = next(j for j in remaining if top - row[j] <= _GREEDY_TIE)
        order.append(j + 1)
        remaining.remove(j)
        mask |= 1 << j
    return tuple(order)


def counterexample_pmf(eps: float) -> ExplicitPmf:
    """Two-bit family P(0,0) = 1/2, P(1,0) = eps, P(0,1) = 0, P(1,1) = 1/2 - eps
    used to probe whether higher single-bit variance should be predicted first."""
    eps = check_open("eps", eps, 0.0, 0.5)
    return ExplicitPmf([0.5, eps, 0.0, 0.5 - eps])


def random_pmf(n: int, seed: int) -> ExplicitPmf:
    """Deterministic random pmf: 2**n uniform draws, normalized."""
    n = check_int("n", n, 1, MAX_COORDS, DimensionError)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    w = rng.random(1 << n)
    return ExplicitPmf(w / w.sum())


def _write_text(path, text: str) -> None:
    """Write ASCII text to path in place: open without O_TRUNC, write, then cut
    a regular file to the new length so a shorter rewrite leaves no stale tail.
    Devices such as /dev/null are not truncated (ftruncate fails on them); a
    symlink is written through. Like open(path, "w"), this is not atomic."""
    data = text.encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_pmf(pmf: ExplicitPmf, path) -> None:
    """Write the text format read_pmf expects: n on the first line, then one
    weight per line in round-trippable precision.

    An existing file is overwritten in place and then cut to length, not
    opened with O_TRUNC: ext4 (auto_da_alloc, its default) starts a flush
    when a file truncated to zero is closed, and the next truncating open
    waits for it, about 60 ms a file on a 2-core VM. Renaming a temporary
    file over the old one stalled as long."""
    lines = [str(_check_pmf("pmf", pmf).n)]
    lines.extend(repr(float(v)) for v in pmf.weights)
    _write_text(path, "\n".join(lines) + "\n")


def read_pmf(path) -> ExplicitPmf:
    """Parse a pmf file: first token n, then 2**n weights, whitespace-separated."""
    # read as bytes: bytes.decode("ascii") needs no codec lookup, a text-mode
    # open does
    with open(path, "rb") as fh:
        data = fh.read(_MAX_PMF_BYTES + 1)
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: pmf file is not ASCII ({exc})") from exc
    if len(text) > _MAX_PMF_BYTES:
        raise DomainError(f"{path}: pmf file longer than {_MAX_PMF_BYTES} bytes")
    tokens = text.split()
    if not tokens:
        raise DomainError(f"{path}: empty pmf file")
    try:
        n = int(tokens[0])
        vals = [float(tok) for tok in tokens[1:]]
    except ValueError as exc:
        raise DomainError(f"{path}: malformed pmf file ({exc})") from exc
    if n < 1 or n > MAX_COORDS:
        raise DomainError(f"{path}: coordinate count {n} outside 1..{MAX_COORDS}")
    if len(vals) != 1 << n:
        raise DomainError(f"{path}: expected {1 << n} weights for n={n}, got {len(vals)}")
    return ExplicitPmf(vals)
