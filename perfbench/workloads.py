"""The benchmark's workloads: fixed pools of seeded instances and the CLI call
made on each.

Sizes and generator seeds are fixed here, so every instance, and therefore
every reference digest in reference.json, is the same on every run.  The
benchmark's --seed only fixes the order in which a pass visits the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("setcover", "mincut", "steinertree", "steinerforest")
GRAPH_KINDS = KINDS[1:]


@dataclass(frozen=True)
class Case:
    """One instance of a pool and the `krobust` call timed on it."""

    name: str
    kind: str
    n: int
    actions: int
    horizon: int
    gen_seed: int
    command: str
    flags: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]


def _solve(kind: str, n: int, seed: int, flags: tuple[str, ...] = ()) -> Case:
    """`krobust solve` on gen_random(kind, n, 3n, T=3, seed), the shape of
    the ROADMAP baseline table."""
    return Case(f"{kind}-n{n}-s{seed}", kind, n, 3 * n, 3, seed, "solve", flags)


def _solves(kind: str, sizes, flags: tuple[str, ...] = ()) -> list[Case]:
    return [_solve(kind, n, seed, flags) for n in sizes for seed in (1, 2)]


# Every call is kept short (under about 0.5s), so that the speed probe timed
# just before it (run.py) describes the machine state it ran in, and every
# pool to a few seconds, so that each instance is called several times in one
# run.  Each pool has at least 32 instances, so the tail sample has ten above
# it well past the median.

def solve_large() -> list[Case]:
    # The largest sizes that fit: parsing dominates set cover, the graph
    # primitives the other kinds, and the oracle does no work.
    return (_solves("setcover", (160, 200, 240, 280))
            + _solves("mincut", (30, 36, 42, 48))
            + _solves("steinertree", (24, 30, 36, 42))
            + _solves("steinerforest", (30, 36, 42, 48)))


def compare_tiny() -> list[Case]:
    # The shape of the test suite's tiny_batch: the exact oracle does nearly
    # all of the work.  Instances 0-10 of each kind: instance 11 takes 1-2.4s
    # a call, too long for the probe before it to describe its machine state.
    cases = []
    for kind in KINDS:
        for i in range(11):
            n = 3 + i % 4
            cases.append(Case(f"{kind}-{i}", kind, n, max(n - 1, 5 + i % 6),
                              1 + i % 3, i, "compare"))
    return cases


def solve_preprocess() -> list[Case]:
    # The guess-grid loop runs once per distinct edge cost, over many small
    # rescaled graphs.  Cost scaling is graph-only (the CLI rejects it for set
    # cover), so the set cover cases here are plain solves: they keep
    # setcover_s defined on every workload and take a small share of a pass.
    flags = ("--preprocess", "cost-scaling")
    cases = _solves("setcover", (60, 80, 100, 120))
    for kind in GRAPH_KINDS:
        cases += _solves(kind, (14, 16, 18, 20), flags)
    return cases


WORKLOADS = {
    "solve-large": solve_large,
    "compare-tiny": compare_tiny,
    "solve-preprocess": solve_preprocess,
}
