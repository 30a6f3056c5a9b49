"""nomamec._philox against numpy's Generator(Philox(SeedSequence(master, spawn_key=key))).

numpy is the reference here only; no runtime path imports it.
"""

import math
import random
import types

import numpy as np

from nomamec import _philox
from nomamec._philox import Stream


def numpy_generator(master, key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(master, spawn_key=key)))


def test_matches_numpy_on_20000_streams(monkeypatch):
    # the tail path (layer 0) calls log1p and the wedge path exp, so
    # counting both shows each path ran
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(math, name)(x)
        return call

    monkeypatch.setattr(_philox, "math",
                        types.SimpleNamespace(log1p=counted("log1p"), exp=counted("exp")))
    rnd = random.Random(2027)
    # half the streams share a master, so cached key prefixes are reused
    shared = [rnd.getrandbits(130) for _ in range(5)]
    for k in range(20000):
        if k % 2:
            master = rnd.choice(shared)
        else:
            bits = rnd.choice((1, 32, 33, 64, 65, 97, 128, 129, 200))
            master = rnd.getrandbits(bits) | 1 << (bits - 1)
        # key words below 2^32 are one word each; a wider one is two
        key = tuple(rnd.getrandbits(rnd.choice((2, 8, 32, 32, 40)))
                    for _ in range(rnd.randint(1, 3)))
        # the channel draw's pattern; every tenth stream runs past its
        # first blocks
        normals = 43 if k % 10 == 0 else 2
        ours, ref = Stream(master, key), numpy_generator(master, key)
        got = [ours.random(), *(ours.standard_normal() for _ in range(normals)), ours.random()]
        want = [ref.random(), *(ref.standard_normal() for _ in range(normals)), ref.random()]
        assert got == want, (master, key)
    assert calls["log1p"] > 0 and calls["exp"] > 0, calls


def test_counter_carries_like_numpy():
    # Philox increments its 256-bit counter before each block, carrying
    # from each 64-bit word into the next
    rnd = random.Random(5)
    for ctr in (0, 12345, 2**64 - 1, 2**128 - 1, 2**192 - 1, 2**256 - 2, 2**256 - 1):
        key = rnd.getrandbits(128)
        want = np.random.Philox(key=key, counter=ctr).random_raw(8).tolist()
        got = []
        for step in (1, 2):
            got += _philox._block((ctr + step) % 2**256, key & (2**64 - 1), key >> 64)
        assert got == want, hex(ctr)


def test_tables_are_numpys():
    # ziggurat tables as numpy's compiled library holds them
    assert len(_philox._KI) == len(_philox._WI) == len(_philox._FI) == 256
    assert _philox._KI[0] == 0x000EF33D8025EF6A
    assert _philox._WI[0] == 8.683627060801306e-16
    assert _philox._FI[0] == 1.0 and _philox._FI[255] == 0.001260285930498598
