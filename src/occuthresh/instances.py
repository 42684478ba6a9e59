"""Configuration-model instances of the d-regular r-in-k occupation problem.

A configuration wires the ``d*n`` variable half-edges (v-edges) to the
``k*m`` constraint half-edges (f-edges) by a single flat permutation:
v-edge ``(i, h)`` lives at index ``i*d + h`` and f-edge ``(a, h')`` at
``a*k + h'`` (zero-based; display is one-based).  Sampling is a
Fisher-Yates shuffle (Knuth, TAOCP vol. 2, Algorithm P) whose bounded
draws come from the SplitMix64 stream of the seed (Steele, Lea & Flood,
OOPSLA 2014) by rejection below the largest multiple of each bound.  The
stream is a pure function of (seed, index), so identical seeds give
identical instances on every platform.

Shuffles run a block of seeds at a time: the draws of every seed form
one array, and the Fisher-Yates swaps of all of the block's rows are
resolved together by a sort and pointer jumping, in a number of numpy
calls that grows with log n, not with n.  Two jumping rounds run over
every slot of the block; after them only the few pointers still moving
jump again.  A configuration drawn alone is the block of its one seed,
so it has the bits it has in any block.  Callers with many seeds
(``sample_simple``, the cycle census, satisfiability sweeps) draw them
in the blocks of ``_seed_blocks``, which bounds memory by the block, not
by the number of seeds.

Seed splitting: child ``i`` of a master seed is the ``(i+1)``-st output
of the SplitMix64 sequence started at the master seed.  Callers
parallelize by handing each task its own child seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .errors import ParameterError, ParseError, RetryLimitError
from .numerics import LogReal, log_falling
from .parallel import worker_count

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # SplitMix64 output function (Steele/Lea/Flood finalizer).
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def splitmix64_outputs(seed, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the SplitMix64 stream of ``seed``.

    ``seed`` is an int, or a uint64 array of seeds, which gives one row
    of outputs per seed.
    """
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    if isinstance(seed, np.ndarray):
        return _mix64_array(seed[:, None] + steps)
    return _mix64_array(np.uint64(seed & _M64) + steps)


def child_seed(master: int, index: int) -> int:
    """Deterministic per-task seed: output ``index+1`` of the master stream."""
    if index < 0:
        raise ParameterError(f"child index must be nonnegative, got {index}")
    return int(splitmix64_outputs(master, index, 1)[0])


def _permutations(seeds, n: int) -> np.ndarray:
    """Uniform permutations of range(n), one row per seed: Fisher-Yates on its stream.

    Step ``i = n-1 .. 1`` swaps slot ``i`` with slot ``u mod (i+1)``,
    where ``u`` is the next stream output at most ``top``: one less than
    the largest multiple of ``i+1`` up to 2^64.  Outputs above ``top``
    are skipped, so every residue is equally likely.  The draws of all
    seeds are tested at once; in a row with a rejected draw the first
    one is dropped, the later ones move up a step, the next stream
    output joins at the end, and the test runs again.

    The swaps are not run one step at a time.  No step after step ``i``
    touches slot ``i``, so it ends with what the slot ``j`` that step
    ``i`` picks held just before: ``j`` itself if no earlier step (a
    larger index) picked ``j``, else what slot ``t`` held just before
    step ``t``, for ``t`` the last of those to run (the smallest).  What
    slot ``t`` held just before step ``t`` follows the same rule, along
    chains of increasing steps.  One stable sort of each row's picks
    groups the steps by the slot they pick, which gives every chain's
    first link, and pointer jumping finds the end of every chain in
    O(log n) rounds: two over all slots of all rows at once, then rounds
    over the shrinking set of pointers that moved in the round before.
    Most chains are short, so that set is about an eighth of the slots
    after the second round.  One seed costs about what it costs in a
    block.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    bounds = np.arange(n, 1, -1).astype(np.uint64)
    top = ~((np.uint64(0) - bounds) % bounds)
    draws = splitmix64_outputs(seeds, 0, n - 1)
    for row in np.flatnonzero((draws > top).any(axis=1)):
        seed, row_draws, read = int(seeds[row]), draws[row], n - 1
        rejected = np.flatnonzero(row_draws > top)
        while rejected.size:
            kept = np.delete(row_draws, rejected[0])
            row_draws = np.append(kept, splitmix64_outputs(seed, read, 1))
            read += 1
            rejected = np.flatnonzero(row_draws > top)
        draws[row] = row_draws
    rows = seeds.size
    size = rows * n
    # picks[c, i]: the slot step i swaps with slot i in row c (step 0 picks 0)
    np.remainder(draws, bounds, out=draws)
    picks = np.zeros((rows, n), dtype=np.min_scalar_type(n))
    picks[:, :0:-1] = draws
    # Indices below are flat, row c offset by c*n.  by_pick lists the steps
    # grouped by the slot they pick, in increasing order within a group, and
    # ends[t] is the slot that step by_pick[t] picks.
    base = np.arange(0, size, n)[:, None]
    order = np.argsort(picks, axis=1, kind="stable")
    order += base
    by_pick = order.ravel()
    ends = (picks + base).ravel().take(by_pick)
    later = ends[1:] == ends[:-1]  # by_pick[t + 1] is in the group of by_pick[t]
    # held[s] ends as what slot s holds just before step s.  It first points
    # to the smallest step above s that picks s, or to s where there is
    # none: the first step of the group of s, unless that is s itself (a
    # step picks no slot above it, so s comes first in its group).
    own = by_pick == ends
    first = ~own
    first[1:] &= own[:-1] | ~later
    # Selects here are arithmetic, as np.where mispredicts on a random
    # mask: the steps not first write to the spare entry held[size].
    target = ends - size
    target *= first
    target += size
    held = np.arange(size + 1)
    held[target] = by_pick
    # Pointer jumping along the chains, which rise from slot to step: a
    # pointer moves to where its target points, until the target points to
    # itself.  Most chains are short, so after two rounds over every slot
    # only the pointers that moved in the last round jump again.
    held = held.take(held)
    jumped = held.take(held)
    moving = np.flatnonzero(jumped != held)
    held = jumped
    at = held.take(moving)
    while moving.size:
        jumped = held.take(at)
        held[moving] = jumped
        moved = jumped != at
        moving, at = moving[moved], jumped[moved]
    # Each step takes what the next larger step of its group held, or the
    # picked slot itself if it is the largest: ends[t] moves by the
    # difference where later[t].
    taken = held.take(by_pick[1:])
    taken -= ends[:-1]
    taken *= later
    ends[:-1] += taken
    out = np.empty((rows, n), dtype=np.int64)
    out.ravel()[by_pick] = ends
    out -= base
    return out


@dataclass(frozen=True)
class Params:
    """Instance family parameters; the family is nonempty iff k divides d*n."""

    n: int
    d: int
    k: int
    r: int

    def __post_init__(self):
        if self.k < 2 or self.d < 2:
            raise ParameterError(f"need k >= 2 and d >= 2, got k={self.k}, d={self.d}")
        if not 1 <= self.r <= self.k - 1:
            raise ParameterError(f"need 1 <= r <= k-1, got r={self.r}, k={self.k}")
        if self.n < 1:
            raise ParameterError(f"need n >= 1, got n={self.n}")
        if (self.d * self.n) % self.k != 0:
            raise ParameterError(
                f"empty family: k={self.k} does not divide d*n={self.d * self.n}"
            )

    @property
    def m(self) -> int:
        return self.d * self.n // self.k

    @property
    def n_slots(self) -> int:
        return self.d * self.n


def _check_permutations(wirings: np.ndarray):
    """Raise ParameterError unless every row of ``wirings`` permutes range(row length)."""
    rows, slots = wirings.shape
    if wirings.min() < 0 or wirings.max() >= slots:
        raise ParameterError("wiring entries out of range")
    # entries in range, so row r's marks stay in row r of the flat array
    seen = np.zeros(rows * slots, dtype=bool)
    seen[wirings + np.arange(0, rows * slots, slots)[:, None]] = True
    if not seen.all():
        raise ParameterError("wiring is not a permutation")


@dataclass(frozen=True)
class Configuration:
    """A bijection from v-edges to f-edges, stored as a flat permutation."""

    params: Params
    wiring: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.wiring)
        slots = self.params.n_slots
        if w.shape != (slots,):
            raise ParameterError(f"wiring must have length {slots}, got shape {w.shape}")
        if w.dtype.kind not in "iu":  # integer arrays, as the sampler's rows, pass unchecked
            if w.dtype.kind != "f" or not np.all((w == np.trunc(w)) & (w >= 0) & (w < slots)):
                raise ParameterError(f"wiring entries must be integers in [0, {slots})")
        w = w.astype(np.int64, copy=False)
        object.__setattr__(self, "wiring", w)
        _check_permutations(w[None, :])

    def inverse_wiring(self) -> np.ndarray:
        inv = np.empty_like(self.wiring)
        inv[self.wiring] = np.arange(self.wiring.size, dtype=np.int64)
        return inv

    def constraint_members(self) -> np.ndarray:
        """(m, k) array: variable wired into each f-edge slot of each constraint."""
        p = self.params
        return (self.inverse_wiring() // p.d).reshape(p.m, p.k)


# Cap on rows * n_slots * k for a block of configurations drawn at once.
# The shuffle of a block holds about a dozen arrays of rows * n_slots
# entries and its l <= 2 census (d-1)/2 keys per slot, so a block's
# memory stays bounded whatever the number of seeds.
_BLOCK_ENTRIES = 1 << 16


def _block_rows(params: Params) -> int:
    """Rows of a block of sampled configurations."""
    return max(1, _BLOCK_ENTRIES // (params.n_slots * params.k))


def _seed_blocks(params: Params, count: int, threads: int = 1):
    """Child-seed indices ``0 .. count-1`` cut into consecutive blocks.

    Blocks have ``_block_rows`` rows, fewer where that gives each worker
    ``parallel_map`` starts at ``threads`` a block; the last one may be
    partial.
    """
    rows = min(_block_rows(params), -(-count // max(1, worker_count(threads, count))))
    return (range(lo, min(lo + rows, count)) for lo in range(0, count, rows))


def _sample_block(params: Params, seed: int, block: range) -> np.ndarray:
    """Wirings of child seeds ``block`` of ``seed``, one checked row each."""
    seeds = splitmix64_outputs(seed, block.start, len(block))
    wirings = _permutations(seeds, params.n_slots)
    _check_permutations(wirings)
    return wirings


def sample_configuration(params: Params, seed: int) -> Configuration:
    """Uniform configuration via seeded Fisher-Yates on the d*n slots."""
    return Configuration(params, _permutations([seed & _M64], params.n_slots)[0])


def _wedges(params: Params, wirings: np.ndarray, dtype) -> tuple:
    """Constraints (a, b) of each variable's C(d, 2) slot pairs ("wedges").

    Two (rows, n*C(d, 2)) arrays of ``dtype``: wedge ``v*C(d, 2) + j``,
    the j-th of variable v, in row i joins the slots of v that row i
    wires to constraints a[i, v*C(d, 2) + j] and b[i, v*C(d, 2) + j].
    The wedges are one axis, not (n, C(d, 2)), so no operation on them
    runs numpy's slow loop over a short last axis.
    """
    p = params
    con = wirings.astype(dtype)
    con //= p.k
    ii, jj = np.triu_indices(p.d, k=1)
    starts = np.arange(0, p.n_slots, p.d)[:, None]  # each variable's first slot
    return con.take((starts + ii).ravel(), axis=1), con.take((starts + jj).ravel(), axis=1)


def _two_cycle_counts(params: Params, wirings: np.ndarray) -> np.ndarray:
    """Two-cycles of each row of a block: wedges whose two slots meet one constraint."""
    a, b = _wedges(params, wirings, np.int64)
    return np.count_nonzero(a == b, axis=1)


def count_two_cycles(cfg: Configuration) -> int:
    """Pairs of v-edges of one variable wired to f-edges of one constraint."""
    return int(_two_cycle_counts(cfg.params, cfg.wiring[None, :])[0])


def sample_simple(params: Params, seed: int, max_attempts: int = 1000) -> Configuration:
    """Rejection-sample a configuration with no two-cycles.

    Attempt ``i`` uses child seed ``i`` of ``seed``, so the accepted
    instance is a deterministic function of the master seed.  Attempts
    are drawn a block at a time, never past ``max_attempts``, and the
    first one without a two-cycle is accepted.
    """
    if max_attempts < 1:
        raise ParameterError(f"need max_attempts >= 1, got {max_attempts}")
    for block in _seed_blocks(params, max_attempts):
        wirings = _sample_block(params, seed, block)
        simple = np.flatnonzero(_two_cycle_counts(params, wirings) == 0)
        if simple.size:
            return Configuration(params, wirings[simple[0]])
    raise RetryLimitError(
        f"no simple configuration in {max_attempts} attempts", attempts=max_attempts
    )


def expected_redundant_exact(params: Params) -> LogReal:
    """Exact expected number of redundant constraint pairs, in log scale.

    C(m,2) * (n)_k * k! * (d(d-1))^k * (dn-2k)! / (dn)!, which is zero
    when n < k: no constraint then has k distinct variables.
    """
    n, d, k, m = params.n, params.d, params.k, params.m
    dn = d * n
    if dn < 2 * k:
        raise ParameterError(f"need d*n >= 2k, got d*n={dn}, k={k}")
    if m < 2:
        return LogReal.zero()
    value = (
        log(m * (m - 1) / 2.0)
        + log_falling(n, k)
        + lgamma(k + 1)
        + k * log(d * (d - 1))
        + lgamma(dn - 2 * k + 1)
        - lgamma(dn + 1)
    )
    return LogReal(value)


_CONFIGURATION_FIELDS = {"n": int, "d": int, "k": int, "r": int, "m": int, "wiring": [int]}


def _format_value(value) -> str:
    if type(value) in (int, float):  # first, as every entry of a list comes here
        return repr(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_format_value, value)) + "]"
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def format_fields(pairs) -> list[str]:
    """One ``key = value`` line per ``(key, value)`` pair, in the given order.

    Numbers are written with ``repr``, numpy scalars as the Python
    numbers they hold, so a float keeps every bit; booleans are written
    in lower case, and arrays, lists and tuples as ``[a, b, ...]``.
    """
    return [f"{key} = {_format_value(value)}" for key, value in pairs]


def serialize(cfg: Configuration) -> str:
    """Canonical text form; field order fixed as n, d, k, r, m, wiring."""
    p = cfg.params
    pairs = zip(_CONFIGURATION_FIELDS, (p.n, p.d, p.k, p.r, p.m, cfg.wiring))
    return "\n".join(format_fields(pairs)) + "\n"


def _parse_value(value: str, kind, key: str, line: int):
    # ``kind`` is int, [int] or [float]; lists come back as numpy arrays
    try:
        if kind is int:
            return int(value)
        (item,) = kind
        if not (value.startswith("[") and value.endswith("]")):
            raise ValueError
        body = value[1:-1].strip()
        entries = [item(tok) for tok in body.split(",")] if body else []
        return np.array(entries, dtype=np.int64 if item is int else float)
    except ValueError:
        wanted = "an integer" if kind is int else f"a bracketed list of {kind[0].__name__}s"
        raise ParseError(f"could not parse value for {key!r}: must be {wanted}", line=line) from None
    except OverflowError:
        raise ParseError(f"{key} entries must fit in a signed 64-bit integer", line=line) from None


def read_fields(text: str, kinds: dict):
    """Read a ``key = value`` document into dicts of its values and 1-based lines.

    ``kinds`` maps each key, in document order, to ``int``, ``[int]`` or
    ``[float]``, a list ``[a, b, ...]`` read into an int64 or float64
    array.  Blank lines and lines starting with '#' are skipped.  A line
    without '=', a key out of order or past the end of ``kinds``, or a
    value that does not parse raises :class:`ParseError` on its line, and
    keys left unread do on the line after the last key read.
    """
    expect = iter(kinds)
    values, lines = {}, {}
    last = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        wanted = next(expect, None)
        if wanted is None:
            raise ParseError(f"unexpected extra field {key!r}", line=lineno)
        if key != wanted:
            raise ParseError(f"expected field {wanted!r}, got {key!r}", line=lineno)
        values[key] = _parse_value(value.strip(), kinds[key], key, lineno)
        lines[key] = last = lineno
    missing = list(expect)
    if missing:
        raise ParseError(f"missing fields {missing}", line=last + 1)
    return values, lines


def deserialize(text: str) -> Configuration:
    """Parse the canonical text form; '#' lines are ignored as comments.

    Malformed documents and non-permutation wirings raise
    :class:`ParseError` with the offending line; families with
    ``d*n != k*m`` raise :class:`ParameterError`.
    """
    fields, lines = read_fields(text, _CONFIGURATION_FIELDS)
    params = Params(n=fields["n"], d=fields["d"], k=fields["k"], r=fields["r"])
    if fields["m"] != params.m:
        raise ParameterError(f"stated m={fields['m']} but d*n/k={params.m}")
    try:
        return Configuration(params, fields["wiring"])
    except ParameterError as exc:
        raise ParseError(str(exc), line=lines["wiring"]) from None
