"""Configuration-model instances of the d-regular r-in-k occupation problem.

A configuration wires the ``d*n`` variable half-edges (v-edges) to the
``k*m`` constraint half-edges (f-edges) by a single flat permutation:
v-edge ``(i, h)`` lives at index ``i*d + h`` and f-edge ``(a, h')`` at
``a*k + h'`` (zero-based; display is one-based).  Sampling is a
Fisher-Yates shuffle (Knuth, TAOCP vol. 2, Algorithm P) whose bounded
draws come from the SplitMix64 stream of the seed (Steele, Lea & Flood,
OOPSLA 2014) by rejection below the largest multiple of each bound.  The
stream is a pure function of (seed, index), so identical seeds give
identical instances on every platform, and a shuffle takes all of its
draws in one array.

Seed splitting: child ``i`` of a master seed is the ``(i+1)``-st output
of the SplitMix64 sequence started at the master seed.  Callers
parallelize by handing each task its own child seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .errors import ParameterError, ParseError, RetryLimitError
from .numerics import LogReal

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


def splitmix64_outputs(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the SplitMix64 stream."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    states = np.uint64(seed & _M64) + idx * np.uint64(_GOLDEN)
    return _mix64_array(states)


def child_seed(master: int, index: int) -> int:
    """Deterministic per-task seed: output ``index+1`` of the master stream."""
    if index < 0:
        raise ParameterError(f"child index must be nonnegative, got {index}")
    return int(splitmix64_outputs(master, index, 1)[0])


def _permutation(seed: int, n: int) -> np.ndarray:
    """Uniform permutation of range(n): Fisher-Yates on the stream of ``seed``.

    Step ``i = n-1 .. 1`` swaps slot ``i`` with slot ``u mod (i+1)``,
    where ``u`` is the next stream output at most ``top``: one less than
    the largest multiple of ``i+1`` up to 2^64.  Outputs above ``top``
    are skipped, so every residue is equally likely.  All draws are
    tested at once: the first rejected one is dropped, the later ones
    move up a step, the next stream output joins at the end, and the
    test runs again.
    """
    bounds = np.arange(n, 1, -1).astype(np.uint64)
    top = ~((np.uint64(0) - bounds) % bounds)
    draws = splitmix64_outputs(seed, 0, n - 1)
    read = n - 1
    rejected = np.flatnonzero(draws > top)
    while rejected.size:
        draws = np.append(np.delete(draws, rejected[0]), splitmix64_outputs(seed, read, 1))
        read += 1
        rejected = np.flatnonzero(draws > top)
    arr = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), (draws % bounds).tolist()):
        arr[i], arr[j] = arr[j], arr[i]
    return np.asarray(arr, dtype=np.int64)


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


@dataclass(frozen=True)
class Configuration:
    """A bijection from v-edges to f-edges, stored as a flat permutation."""

    params: Params
    wiring: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.wiring, dtype=np.int64)
        object.__setattr__(self, "wiring", w)
        slots = self.params.n_slots
        if w.shape != (slots,):
            raise ParameterError(f"wiring must have length {slots}, got shape {w.shape}")
        seen = np.zeros(slots, dtype=bool)
        if w.min() < 0 or w.max() >= slots:
            raise ParameterError("wiring entries out of range")
        seen[w] = True
        if not seen.all():
            raise ParameterError("wiring is not a permutation")

    def inverse_wiring(self) -> np.ndarray:
        inv = np.empty_like(self.wiring)
        inv[self.wiring] = np.arange(self.wiring.size, dtype=np.int64)
        return inv

    def constraint_members(self) -> np.ndarray:
        """(m, k) array: variable wired into each f-edge slot of each constraint."""
        p = self.params
        return (self.inverse_wiring() // p.d).reshape(p.m, p.k)


def sample_configuration(params: Params, seed: int) -> Configuration:
    """Uniform configuration via seeded Fisher-Yates on the d*n slots."""
    return Configuration(params, _permutation(seed, params.n_slots))


def count_two_cycles(cfg: Configuration) -> int:
    """Pairs of v-edges of one variable wired to f-edges of one constraint."""
    p = cfg.params
    con_of_slot = cfg.wiring // p.k
    var_of_slot = np.arange(p.n_slots, dtype=np.int64) // p.d
    keys = var_of_slot * p.m + con_of_slot
    _, counts = np.unique(keys, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def sample_simple(params: Params, seed: int, max_attempts: int = 1000) -> Configuration:
    """Rejection-sample a configuration with no two-cycles.

    Attempt ``i`` uses child seed ``i`` of ``seed``, so the accepted
    instance is a deterministic function of the master seed.
    """
    if max_attempts < 1:
        raise ParameterError(f"need max_attempts >= 1, got {max_attempts}")
    for attempt in range(max_attempts):
        cfg = sample_configuration(params, child_seed(seed, attempt))
        if count_two_cycles(cfg) == 0:
            return cfg
    raise RetryLimitError(
        f"no simple configuration in {max_attempts} attempts", attempts=max_attempts
    )


def expected_redundant_exact(params: Params) -> LogReal:
    """Exact expected number of redundant constraint pairs, in log scale.

    C(m,2) * (n)_k * k! * (d(d-1))^k * (dn-2k)! / (dn)!
    """
    n, d, k, m = params.n, params.d, params.k, params.m
    dn = d * n
    if dn < 2 * k:
        raise ParameterError(f"need d*n >= 2k, got d*n={dn}, k={k}")
    if m < 2:
        return LogReal.zero()
    value = (
        log(m * (m - 1) / 2.0)
        + (lgamma(n + 1) - lgamma(n - k + 1))
        + lgamma(k + 1)
        + k * log(d * (d - 1))
        + lgamma(dn - 2 * k + 1)
        - lgamma(dn + 1)
    )
    return LogReal(value)


_FIELD_ORDER = ("n", "d", "k", "r", "m", "wiring")


def serialize(cfg: Configuration) -> str:
    """Canonical text form; field order fixed as n, d, k, r, m, wiring."""
    p = cfg.params
    wiring = ", ".join(str(int(x)) for x in cfg.wiring)
    return (
        f"n = {p.n}\n"
        f"d = {p.d}\n"
        f"k = {p.k}\n"
        f"r = {p.r}\n"
        f"m = {p.m}\n"
        f"wiring = [{wiring}]\n"
    )


def read_fields(text: str, order: tuple[str, ...]):
    """Yield ``(key, value, line)`` for each ``key = value`` line of a document.

    Blank lines and lines starting with '#' are skipped.  The keys must
    follow ``order``; a line without '=', a key out of order or a key
    past the end of ``order`` raises :class:`ParseError` with its 1-based
    line number, and so do keys left unread at the end, on the line
    after the last key read.
    """
    expect = iter(order)
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
        last = lineno
        yield key, value.strip(), lineno
    missing = list(expect)
    if missing:
        raise ParseError(f"missing fields {missing}", line=last + 1)


def deserialize(text: str) -> Configuration:
    """Parse the canonical text form; '#' lines are ignored as comments.

    Malformed documents and non-permutation wirings raise
    :class:`ParseError` with the offending line; families with
    ``d*n != k*m`` raise :class:`ParameterError`.
    """
    fields = {}
    for key, value, line in read_fields(text, _FIELD_ORDER):
        if key == "wiring":
            if not (value.startswith("[") and value.endswith("]")):
                raise ParseError("wiring must be a bracketed integer list", line=line)
            body = value[1:-1].strip()
            try:
                entries = [int(tok) for tok in body.split(",")] if body else []
                fields[key] = np.array(entries, dtype=np.int64)
            except ValueError:
                raise ParseError("wiring entries must be integers", line=line) from None
            except OverflowError:
                raise ParseError("wiring entries must fit in a signed 64-bit integer", line=line) from None
        else:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ParseError(f"field {key!r} must be an integer", line=line) from None
    params = Params(n=fields["n"], d=fields["d"], k=fields["k"], r=fields["r"])
    if fields["m"] != params.m:
        raise ParameterError(f"stated m={fields['m']} but d*n/k={params.m}")
    try:
        return Configuration(params, fields["wiring"])
    except ParameterError as exc:
        # wiring is the last field, so its line is the last one read
        raise ParseError(str(exc), line=line) from None
