"""Seed derivation and uniform-draw sources.

Everything stochastic in this package consumes nothing but uniforms in
[0, 1); Poisson counts, channel choices, and flash coordinates are all
obtained from uniforms by inverse-CDF transforms.  That keeps the
generator-backed simulation path and the pre-committed bit-string path
(deterministic realizations) on a single code path producing the same law.

Per-run seeds are derived from a master seed with SplitMix64:

    seed_i = finalize(master_seed + (i + 1) * 0x9E3779B97F4A7C15  mod 2^64)

where ``finalize`` is the SplitMix64 finalizer (xor-shift/multiply chain).
This exact function is part of the reproducibility contract: archived runs
are replayable from (master_seed, i) alone.
"""

from __future__ import annotations

import functools

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_INV_2_32 = 1.0 / (1 << 32)

BITS_PER_UNIFORM = 32


class BitsExhausted(RuntimeError):
    """A bit-driven run asked for more uniforms than its budget holds.

    ``label`` names the draw that starved, as a string or as a tuple of
    parts that are joined here, so that draws only pay for the name when
    one is needed.
    """

    def __init__(self, label, consumed: int, budget: int):
        if isinstance(label, tuple):
            label = "".join(map(str, label))
        self.draw_label = label
        self.consumed = consumed
        self.budget = budget
        super().__init__(
            f"bit budget exhausted at draw {label!r}: "
            f"{consumed} of {budget} bits already consumed"
        )


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the seed for run ``index`` from a 64-bit master seed.

    The counter scheme is splittable: distinct indices map to
    statistically independent 64-bit seeds, and the mapping is fixed
    across releases.
    """
    return splitmix64(master_seed + (index + 1) * _GOLDEN)


class GeneratorSource:
    """Uniform source backed by numpy's PCG64, seeded once per run."""

    __slots__ = ("_next",)

    def __init__(self, seed: int):
        self._next = np.random.Generator(np.random.PCG64(seed)).random

    def uniform(self, label: str | tuple = "") -> float:
        return self._next()


class BitSource:
    """Uniform source that consumes a pre-committed bit string.

    Each uniform eats ``BITS_PER_UNIFORM`` = 32 bits, mapped MSB-first to
    u = word / 2^32, so resolution is 2^-32.  Once the string is spent,
    further draws raise :class:`BitsExhausted` naming the draw that
    starved.
    """

    __slots__ = ("_words", "_pos", "_n_bits")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be a flat array of 0/1")
        if bits.size and bits.max() > 1:
            raise ValueError("bits must contain only 0 and 1")
        self._n_bits = bits.size
        n_words = bits.size // BITS_PER_UNIFORM
        packed = np.packbits(bits[: n_words * BITS_PER_UNIFORM])
        self._words = packed.view(">u4").astype(np.uint64)
        self._pos = 0

    @property
    def bits_consumed(self) -> int:
        return self._pos * BITS_PER_UNIFORM

    def uniform(self, label: str | tuple = "") -> float:
        if self._pos >= self._words.size:
            raise BitsExhausted(label, self.bits_consumed, self._n_bits)
        u = float(self._words[self._pos]) * _INV_2_32
        self._pos += 1
        return u


def random_bits(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    """Draw a fair bit string of length ``n_bits`` as a uint8 0/1 array."""
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)


# --- vectorized streams -----------------------------------------------------
#
# The ensemble kernel draws the uniforms of thousands of runs at once.  It
# reproduces, bit for bit, what ``GeneratorSource(seed).uniform`` returns:
# numpy's SeedSequence (pool size 4) turns the 64-bit seed into four 64-bit
# words, PCG64 seeds its 128-bit LCG from them, and ``Generator.random``
# maps each XSL-RR output x to (x >> 11) * 2^-53 (O'Neill, "PCG", 2014;
# NumPy NEP 19 fixes these streams).  All arithmetic is in uint32/uint64
# arrays, where numpy wraps modulo the word size exactly as the C code does.
#
# Each stream has its own cursor, its LCG state.  ``draw`` computes the
# next values of each stream, as many as that stream is asked for, and
# ``skip`` jumps a stream over values nobody reads in one step, without
# computing them.  Either way the stream ends where ``lengths[i]`` calls of
# ``GeneratorSource(seed).uniform`` would leave it, so a value drawn after
# a skip is the value the scalar source draws there.

_U32 = np.uint32
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_DOUBLE = 1.0 / (1 << 53)


def mix_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``[mix_seed(master_seed, i) for i in range(start, stop)]`` as uint64."""
    z = np.arange(start + 1, stop + 1, dtype=_U64) * _U64(_GOLDEN) + _U64(master_seed & _MASK64)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _seed_sequence_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, uint64) for each 64-bit seed.

    A seed below 2^32 is one entropy word and a larger one two; padding
    with a zero word gives the same pool, so every seed is mixed as two.
    """
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & 0xFFFFFFFF
        value = value * _U32(hash_const)
        return value ^ (value >> _U32(16))

    def mix(x, y):
        result = _SS_MIX_L * x - _SS_MIX_R * y
        return result ^ (result >> _U32(16))

    zero = np.zeros(seeds.shape, dtype=_U32)
    entropy = ((seeds & _M32).astype(_U32), (seeds >> _U64(32)).astype(_U32), zero, zero)
    pool = [hashmix(word) for word in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    hash_const = _SS_INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ _U32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & 0xFFFFFFFF
        value = value * _U32(hash_const)
        state.append((value ^ (value >> _U32(16))).astype(_U64))
    # uint32 words little-endian into uint64 words
    return [state[2 * i] | (state[2 * i + 1] << _U64(32)) for i in range(4)]


def _mulhi64(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, on 32-bit limbs b = b1 b0."""
    a0, a1 = a & _M32, a >> _U64(32)
    # no sum below can carry out of 64 bits
    low = a1 * b0 + ((a0 * b0) >> _U64(32))
    mid = a0 * b1 + (low & _M32)
    return a1 * b1 + (low >> _U64(32)) + (mid >> _U64(32))


def _mul128(hi, lo, factor) -> tuple[np.ndarray, np.ndarray]:
    """Low 128 bits of (hi, lo) * factor, as (hi, lo)."""
    f_hi, f_lo, f_lo0, f_lo1 = factor
    return _mulhi64(lo, f_lo0, f_lo1) + lo * f_hi + hi * f_lo, lo * f_lo


def _add128(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(a + b) mod 2^128 of two (hi, lo) pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _words128(values) -> tuple:
    """128-bit constants as arrays: hi, lo and the 32-bit limbs of lo."""
    hi = np.array([v >> 64 for v in values], dtype=_U64)
    lo = np.array([v & _MASK64 for v in values], dtype=_U64)
    return hi, lo, lo & _M32, lo >> _U64(32)


# A draw computes its values a batch of at most `_batch` steps at a time,
# over the streams that still need values: value j of a batch comes from
# the state mult_j * s + incr_j * inc, with mult_j and incr_j from
# _jump_table, so a batch needs no step-by-step recurrence.  incr_j * inc
# does not depend on the state, so each stream computes it once, for
# j = 1.._batch.  The width is at most _JUMP and keeps a batch within
# _JUMP_CELLS values, which stay in cache: few streams get wide batches,
# thousands of streams narrow ones.  A row's last batch may compute a few
# values past its length; its cursor still stops at the length.
_JUMP = 64
_JUMP_CELLS = 1 << 14


@functools.cache
def _jump_table(size: int) -> tuple[tuple, tuple]:
    """The words of (mult_d, incr_d) for d = 0 .. size - 1, cached by size:
    d LCG steps take a state s to mult_d * s + incr_d * inc (mod 2^128),
    with mult_d = M^d and incr_d = M^(d-1) + ... + M + 1."""
    mult, incr, mults, incrs = 1, 0, [], []
    for _ in range(size):
        mults.append(mult)
        incrs.append(incr)
        mult, incr = (mult * _PCG_MULT) & _MASK128, (incr * _PCG_MULT + 1) & _MASK128
    return _words128(mults), _words128(incrs)


class PCG64Streams:
    """One numpy PCG64 stream per seed, each with its own cursor.

    Stream i yields the values that
    ``np.random.Generator(np.random.PCG64(seeds[i])).random()`` would, in
    order.  ``draw(lengths)`` returns each stream's next ``lengths[i]``
    values and ``skip(lengths)`` passes over them; both advance stream i
    by exactly ``lengths[i]``.
    """

    __slots__ = ("_hi", "_lo", "_inc", "_mults", "_incs", "_batch")

    def __init__(self, seeds: np.ndarray):
        seeds = np.asarray(seeds, dtype=_U64)
        state_hi, state_lo, seq_hi, seq_lo = _seed_sequence_words(seeds)
        # pcg_setseq_128_srandom_r: state 0, inc = (seq << 1) | 1, step
        # (giving inc), add the initial state, step
        self._inc = inc = (
            (seq_hi << _U64(1)) | (seq_lo >> _U64(63)),
            (seq_lo << _U64(1)) | _U64(1),
        )
        self._batch = max(1, min(_JUMP, _JUMP_CELLS // max(1, seeds.size)))
        # mult_j and incr_j for j = 1..batch, as columns
        self._mults, incrs = (
            tuple(w[1 : self._batch + 1, None] for w in words) for words in _jump_table(_JUMP + 1)
        )
        # incr_j * inc of each stream, (batch, streams): every draw reuses it
        self._incs = _mul128(*inc, incrs)
        state = _add128(inc, (state_hi, state_lo))
        self._hi, self._lo = _add128(_mul128(*state, tuple(w[0] for w in self._mults)), inc)

    def _states(self, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The states of streams ``rows`` after 1..k <= batch steps from
        their cursors, as (k, rows) arrays; moves no cursor."""
        return _add128(
            _mul128(self._hi[rows], self._lo[rows], tuple(w[:k] for w in self._mults)),
            (self._incs[0][:k, rows], self._incs[1][:k, rows]),
        )

    def draw(self, lengths) -> np.ndarray:
        """The next ``lengths[i]`` values of each stream i, left-aligned in
        row i of a (streams, max length) array.  A cell past its stream's
        length holds 0 or a value the stream has not yet reached."""
        lengths = np.asarray(lengths, dtype=np.intp)
        out = np.zeros((lengths.size, int(lengths.max(initial=0))))
        for start in range(0, out.shape[1], self._batch):
            rows = np.flatnonzero(lengths > start)
            if rows.size == lengths.size:  # every stream: views, not copies
                rows = slice(None)
            k = min(self._batch, out.shape[1] - start)
            hi, lo = self._states(rows, k)
            out[rows, start : start + k] = _next_double(hi, lo).T
            last = (np.minimum(lengths[rows] - start, k) - 1, np.arange(hi.shape[1]))
            self._hi[rows], self._lo[rows] = hi[last], lo[last]
        return out

    def skip(self, lengths) -> None:
        """Advance each stream i by ``lengths[i]`` values in one jump:
        state <- M^d s + (M^(d-1) + ... + M + 1) inc with d = lengths[i],
        from _jump_table's words for d."""
        rows = np.flatnonzero(lengths)
        if rows.size == 0:  # the flash path skips nothing
            return
        steps = np.asarray(lengths)[rows]
        table = _jump_table(1 << int(steps.max()).bit_length())
        mults, incrs = (tuple(w[steps] for w in words) for words in table)
        self._hi[rows], self._lo[rows] = _add128(
            _mul128(self._hi[rows], self._lo[rows], mults),
            _mul128(self._inc[0][rows], self._inc[1][rows], incrs),
        )

    def random(self, k: int) -> np.ndarray:
        """The next k values of every stream, (streams, k)."""
        return self.draw(np.full(self._lo.size, k))


def _next_double(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The XSL-RR output of each 128-bit state, then Generator.random's
    next_double."""
    x = hi ^ lo
    rot = hi >> _U64(58)
    x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (x >> _U64(11)).astype(np.float64) * _TO_DOUBLE
