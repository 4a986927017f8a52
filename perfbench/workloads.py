"""Workload definitions and the seed-derived CLI inputs.

A workload is a fixed list of CLI invocations (a "job").  The seed picks
the flags that must not change the result: a nonzero ``--b`` for
``build``/``sweep`` and a non-default irreducible ``--modulus`` for
``build``/``verify``.  Seed 0 means the CLI defaults.  ``--b`` is not
passed to ``verify`` and ``--modulus`` not to ``sweep``, because both
flags are ignored there.

Moduli are generated here, not by the package, so that one seed gives
the same inputs to every version of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (command, items, extra flags).  An item is one (p, m) pair of a build or
# verify invocation, or the primes of one sweep invocation at m = 3.  Each
# invocation takes about a second or less, so that a run holds many
# samples of it.  Sizes and time splits are in README.md.
FULL = {
    "enumerate": ("build", [(3, 8), (7, 5), (11, 4)], ["--workers", "2"]),
    "verify": ("verify", [(3, 6), (5, 4), (3, 3), (3, 5)], ["--scope", "all"]),
    "sweep": ("sweep", [(3, 5, 7, 11, 13, 17, 19, 23), (29, 31), (37,)], []),
}

# Tiny sizes with the same shape, for the benchmark's own tests.
QUICK = {
    "enumerate": ("build", [(3, 5), (5, 3)], ["--workers", "2"]),
    "verify": ("verify", [(3, 4), (5, 3)], ["--scope", "all"]),
    "sweep": ("sweep", [(3, 5), (7,)], []),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what its output must satisfy."""
    command: str
    argv: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by monic b over F_p (coefficients low degree first)."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return a[:db]


def _monic(p: int, deg: int, tail: int) -> list[int]:
    coeffs = []
    for _ in range(deg):
        tail, c = divmod(tail, p)
        coeffs.append(c)
    return coeffs + [1]


def is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for tail in range(p**d):
            if not any(_poly_rem(f, _monic(p, d, tail), p)):
                return False
    return True


def default_modulus(p: int, m: int) -> list[int]:
    """The CLI default: the irreducible with the smallest tail read as a
    low-degree-first base-p integer."""
    tail = 0
    while not is_irreducible(_monic(p, m, tail), p):
        tail += 1
    return _monic(p, m, tail)


def random_modulus(rng: random.Random, p: int, m: int) -> list[int]:
    """A uniformly drawn monic irreducible other than the CLI default."""
    default = default_modulus(p, m)
    while True:
        f = _monic(p, m, rng.randrange(p**m))
        if f != default and is_irreducible(f, p):
            return f


def _sweep_b(rng: random.Random, primes) -> int:
    return rng.choice([b for b in range(1, 64) if all(b % p for p in primes)])


def make_job(workload: str, seed: int, quick: bool = False) -> list[Invocation]:
    """The fixed list of CLI invocations of one workload for one seed."""
    command, items, extra = (QUICK if quick else FULL)[workload]
    rng = random.Random(f"{workload}:{seed}")
    job = []
    if command == "sweep":
        for primes in items:
            argv = ["sweep", "--p-list", ",".join(map(str, primes)), "--m-list", "3"]
            if seed:
                argv += ["--b", str(_sweep_b(rng, primes))]
            job.append(Invocation(command, tuple(argv + extra),
                                  tuple((p, 3) for p in primes)))
        return job
    for p, m in items:
        argv = [command, "--p", str(p), "--m", str(m)]
        if seed:
            if command == "build":
                argv += ["--b", str(rng.randrange(1, p))]
            argv += ["--modulus", ",".join(map(str, random_modulus(rng, p, m)))]
        job.append(Invocation(command, tuple(argv + extra), ((p, m),)))
    return job
