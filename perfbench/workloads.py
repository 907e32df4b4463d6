"""Seeded inputs of the three workloads.

The same seed always yields the same operations; arctanpoly only ever sees
the generated command lines and session steps.

* ``verify``: the CI command ``verify --suite all --max-n 150``; its inputs
  are the same for every seed, as a CI run's are.
* ``cli``: cycles of ten one-shot commands, shuffled within each cycle.
  Every cycle holds the same command mix, and one ``poly`` member with n in
  the top size stratum, so that each run covers the whole size range.
* ``session``: one library session walks n upward to about 700 and touches
  the family builders, the derivative, the tan multiple and, every fourth
  step, the root set.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

VERIFY_ARGV = ["verify", "--suite=all", "--max-n=150"]
CLI_CYCLE_LEN = 10
SESSION_TOP = 700
SESSION_ROOT_CAP = 120
SESSION_ROOTS_EVERY = 4

# Traced runs replay a fixed prefix of the op stream, so their counts repeat
# exactly for a given seed.
TRACE_CLI_CYCLES = 2


def _rational(rng: random.Random, bound: int, avoid_unit: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if not (avoid_unit and abs(x) == 1):
            return x


def verify_ops(seed: int):
    """Endless stream of verify invocations (seed-independent)."""
    del seed
    return itertools.repeat(VERIFY_ARGV)


def _cli_cycle(rng: random.Random) -> list[list[str]]:
    # Ranges stay inside what the CLI handles without a robustness defect:
    # P_n for n > about 1400 exceeds Python's 4300-digit int-to-str limit,
    # and so can a derivative at a rational with a large denominator.
    cycle = [
        ["poly", f"--kind={rng.choice(('beta', 'alpha'))}", f"--n={rng.randint(1400, 1500)}"],
        ["poly", f"--kind={rng.choice(('beta', 'alpha'))}", f"--n={rng.randint(200, 1399)}"],
        ["poly", "--kind=p", f"--n={rng.randint(200, 1000)}"],
        ["poly", "--kind=pi", f"--n={rng.randint(10, 80)}"],
        ["deriv", "--func=arctan", f"--n={rng.randint(1, 1000)}", f"--x={_rational(rng, 6)}"],
        [
            "deriv",
            "--func=artanh",
            f"--n={rng.randint(1, 1000)}",
            f"--x={_rational(rng, 6, avoid_unit=True)}",
        ],
        ["roots", f"--kind={rng.choice(('beta', 'alpha'))}", f"--n={rng.randint(1, 120)}"],
        ["pi", f"--method={rng.choice(('euler', 'beta'))}", f"--tol=1e-{rng.randint(30, 100)}"],
        [
            "series",
            f"--kind={rng.choice(('euler', 'beta'))}",
            f"--x={_rational(rng, 2)}",
            f"--terms={rng.randint(1, 300)}",
        ],
        ["connect", "--what=tan", f"--n={rng.randint(1, 500)}"],
    ]
    for argv in cycle:
        if argv[0] == "poly":
            argv.append("--format=json")
        elif argv[0] == "series":
            argv.append("--format=csv")
    rng.shuffle(cycle)
    return cycle


def cli_ops(seed: int):
    """Endless stream of one-shot CLI invocations."""
    rng = random.Random(f"cli:{seed}")
    while True:
        yield from _cli_cycle(rng)


def session_steps(seed: int, index: int) -> list[dict]:
    """Steps of session ``index`` of a run: n, the derivative point and the
    root-set size (0 for none)."""
    rng = random.Random(f"session:{seed}:{index}")
    steps = []
    n = 0
    sizes: list[int] = []
    while True:
        # Step sizes 5..15 each once per block of eleven, in seeded order:
        # every session then visits n evenly, and since a step's cost grows
        # steeply with n, the median step does not hinge on the draw.
        if not sizes:
            sizes = list(range(5, 16))
            rng.shuffle(sizes)
        n += sizes.pop()
        if n > SESSION_TOP:
            return steps
        roots = min(n, SESSION_ROOT_CAP) if len(steps) % SESSION_ROOTS_EVERY == 0 else 0
        steps.append({"n": n, "x": str(_rational(rng, 6)), "roots": roots})


def trace_ops(workload: str, seed: int) -> list:
    """The fixed op list a traced run replays."""
    if workload == "verify":
        return [VERIFY_ARGV]
    if workload == "cli":
        return list(itertools.islice(cli_ops(seed), TRACE_CLI_CYCLES * CLI_CYCLE_LEN))
    return [session_steps(seed, 0)]


def option(argv: list[str], name: str) -> str | None:
    for token in argv[1:]:
        if token.startswith(f"--{name}="):
            return token.split("=", 1)[1]
    return None


def mix_shares(workload: str, ops: list) -> dict[str, float]:
    """Measured shares of the op properties later claims may cite.

    ``ops`` are CLI argv lists for ``verify`` and ``cli`` and session step
    lists (one per session) for ``session``.
    """
    if workload == "session":
        steps = [step for session in ops for step in session]
        if not steps:
            return {}
        grow = 0
        for session in ops:
            top = -1
            for step in session:
                grow += step["n"] > top
                top = max(top, step["n"])
        return {
            "steps_growing_prefix_cache": grow / len(steps),
            "steps_with_roots": sum(1 for s in steps if s["roots"]) / len(steps),
        }
    if not ops:
        return {}
    shares = {}
    for command in sorted({argv[0] for argv in ops}):
        shares[f"command.{command}"] = sum(1 for a in ops if a[0] == command) / len(ops)
    big_cached = 0
    for argv in ops:
        n = int(option(argv, "n") or 0)
        cached_poly = argv[0] == "poly" and option(argv, "kind") in ("beta", "alpha", "pi")
        tan = argv[0] == "connect" and option(argv, "what") == "tan"
        big_cached += (cached_poly or tan) and n >= 500
    shares["builds_cached_member_n_ge_500"] = big_cached / len(ops)
    return shares
