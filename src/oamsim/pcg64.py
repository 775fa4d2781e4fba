"""The uniform draws of numpy's ``default_rng(seed)``, bit for bit, for a
batch of seeds, without loading numpy's random module.

The stream is O'Neill's PCG64, a 128-bit LCG read through the XSL-RR output
(Harvey Mudd College report HMC-CS-2014-0905), seeded through her
seed_seq_fe hash as numpy's SeedSequence runs it: the seed's little-endian
32-bit words mix into a pool of four, which hashes to the words that set
the state and the increment. numpy keeps no promise that its streams stay
the same across versions (NEP 19); this module fixes the one that the mask
search's starts come from.

The hash runs on uint32 arrays, one element a seed, whose products wrap as
the C code's do. The LCG runs on one Python integer that holds each seed's
state in a lane of its own, wide enough that no step carries into the next.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# bits of a seed's lane; (state + inc) * multiplier + inc stays below 2**258
_LANE = 320


def _hash_constants(init, mult, count):
    """The (xor, multiplier) uint32 pairs of ``count`` successive hashes:
    each hash xors with the running constant, which it then multiplies by
    ``mult`` to get its multiplier and the next hash's xor."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c[:-1], np.uint32)[:, None], np.array(c[1:], np.uint32)[:, None]


def _hash(values, xor, mult):
    v = (values ^ xor) * mult
    return v ^ (v >> 16)


def _mix(x, y):
    v = x * 0xCA01F9DD - y * 0x4973F715
    return v ^ (v >> 16)


def _state_words(seeds):
    """(8, len(seeds)) uint32: the words SeedSequence(seed).generate_state
    gives for the PCG64 seed, in their little-endian order."""
    lengths = np.array([max(1, -(-s.bit_length() // 32)) for s in seeds])
    n_words = max(4, int(lengths.max()))
    words = np.array([[s >> 32 * j & _MASK32 for s in seeds] for j in range(n_words)], np.uint32)
    xor, mult = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * n_words)
    pool = _hash(words[:4], xor[:4], mult[:4])  # a missing word hashes as 0
    for i in range(4):  # each pool word into the other three
        others = [j for j in range(4) if j != i]
        pool[others] = _mix(pool[others], _hash(pool[i], xor[4 + 3 * i:7 + 3 * i],
                                                mult[4 + 3 * i:7 + 3 * i]))
    for j in range(4, n_words):  # each further word into all four, where a seed has it
        h = _hash(words[j], xor[4 * j:4 * j + 4], mult[4 * j:4 * j + 4])
        pool = np.where(j < lengths, _mix(pool, h), pool)
    xor, mult = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
    return _hash(np.tile(pool, (2, 1)), xor, mult)


def uniform(seeds, low: float, high: float, size: int):
    """(len(seeds), size) array whose row i equals
    ``default_rng(seeds[i]).uniform(low, high, size)`` element for element,
    for int seeds >= 0."""
    n = len(seeds)
    words = _state_words(seeds)
    ones = int.from_bytes((b"\x01" + bytes(_LANE // 8 - 1)) * n, "little")
    mask = _MASK128 * ones

    def lanes(order):
        """The 128-bit integers of these state words, one to a lane."""
        buf = np.zeros((n, _LANE // 32), "<u4")
        buf[:, :4] = words[order].T
        return int.from_bytes(buf.tobytes(), "little")

    # the words pair into 64-bit (a, b, c, d), which seed the LCG with state
    # a * 2**64 + b and sequence c * 2**64 + d: inc = 2 * sequence + 1, and
    # the state steps from 0, adds its seed and steps again
    inc = ((lanes([6, 7, 4, 5]) << 1) + ones) & mask
    state = ((lanes([2, 3, 0, 1]) + inc) * _MULTIPLIER + inc) & mask
    steps = []
    for _ in range(size):
        state = (state * _MULTIPLIER + inc) & mask
        steps.append(state.to_bytes(n * _LANE // 8, "little"))
    drawn = np.frombuffer(b"".join(steps), "<u8").reshape(size, n, _LANE // 64)
    hi = drawn[..., 1]
    x, rot = drawn[..., 0] ^ hi, hi >> 58  # XSL-RR: xor the halves, rotate right
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (low + (high - low) * ((x >> 11) * 2.0 ** -53)).T.copy()
