"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed-composition list of CLI operations (the argv a user
would type after ``agcodes``). Each list is made of strata: a stratum fixes
the command, field, curve and size parameters that drive the cost, and the
seed draws only the parameters that leave the cost class unchanged (the
twist place, strategy seed and trial budget, radii and distance targets
inside the budget, point subsets of a fixed size, the operation order). Two
seeds therefore give different inputs with nearly the same amount of work,
which is what keeps run-to-run spread small.

Placeholders in an argv: ``{out}`` is a fresh output directory for that
operation, ``{tmp}`` the run's scratch root (where set-up artifacts live).
Every drawn input is valid: distinct points, radii and heights inside the
library's guards and distance budgets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("section-build", "center-search", "verify")

WHY = {
    "section-build": (
        "combined/sections ops: phi0_projective and enumerate_sections do the "
        "work (twisted divisors shift it to enumeration); center search stays small"
    ),
    "center-search": (
        "exhaustive xing builds: kernels.center_search does nearly all the work, "
        "driven by word count (Hermitian) or center count (P1 GF(7))"
    ),
    "verify": (
        "verify/replay/proposition/census/bounds on set-up artifacts: pairwise "
        "distance and the symbolic multiplicity audit, the other uses of the layers"
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI operation plus what its output must show.

    ``expect`` holds values the harness computes independently of the
    library (section counts, census totals, pair counts, table rows).
    """

    argv: tuple[str, ...]
    q: int | None = None
    curve: str | None = None
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def kind(self) -> str:
        return " ".join(self.argv[:2])

    def resolve(self, tmp: str, out: str) -> list[str]:
        return [a.replace("{tmp}", tmp).replace("{out}", out) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    setup: tuple[Op, ...]
    ops: tuple[Op, ...]
    why: str

    def fields_and_curves(self):
        """(q, curve kind or None) for every field and curve the lists use."""
        seen = []
        for op in self.setup + self.ops:
            if op.q is not None and (op.q, op.curve) not in seen:
                seen.append((op.q, op.curve))
        return seen


def _op(*argv, q=None, curve=None, **expect) -> Op:
    return Op(tuple(str(a) for a in argv), q, curve, expect)


def ball_size(n: int, radius: int, alphabet_size: int) -> int:
    """Hamming-ball size, computed here so census checks do not trust the library."""
    return sum(math.comb(n, i) * (alphabet_size - 1) ** i for i in range(radius + 1))


def _twist(rng: random.Random, q: int) -> str:
    """A one-place degree-zero twist: +1 at the place x + a, -1 at infinity."""
    return f"{rng.randrange(q)},1:1;inf:-1"


# ---------------------------------------------------------------------------
# section-build

def _combined(rng, q, h, strategy, twisted):
    n = q + 1  # combined builds evaluate at every point of P1(GF(q))
    s0 = rng.randint(0, min(q - 1, (2 * n - 2 * h - 1) // 4))
    d0 = rng.randint(1, 2 * n - 4 * s0 - 2 * h)  # 2h <= 2N - 4 s0 - d0
    if strategy is None:
        strategy = rng.choice(("random", "greedy"))
    argv = ["combined", "build", "--q", q, "--divisor", _twist(rng, q) if twisted else "0",
            "--h", h, "--s0", s0, "--d0", d0, "--strategy", strategy]
    if strategy != "exhaustive":
        argv += ["--seed", rng.randrange(1 << 31), "--trials", rng.choice((16, 32, 64))]
    return _op(*argv, "--out", "{out}", q=q, curve="p1", claimed=d0)


def _enumerate(rng, q, h, twisted):
    # the section count of any degree-zero divisor on P1 is q^(2h+1)
    return _op("sections", "enumerate", "--q", q,
               "--divisor", _twist(rng, q) if twisted else "0", "--h", h,
               "--out", "{out}", q=q, curve="p1", count=q ** (2 * h + 1))


# (count, q, h, strategy, twisted); strategy None = seeded random/greedy.
# Cost classes, cheapest first: q<=5 h=1 (~0.05 s), q=3 h=2 (~0.1 s, the
# median falls inside this group), q=7 h=1, twisted q=5, q=4 h=2 (~0.4 s,
# the 90th percentile falls inside this group), one q=5 h=2 (~1.5 s).
_SECTION_STRATA = (
    (3, 3, 1, "exhaustive", False),
    (3, 3, 2, "exhaustive", False),
    (1, 3, 1, "exhaustive", True),
    (7, 3, 2, None, False),
    (4, 4, 1, None, False),
    (6, 4, 2, None, False),
    (4, 5, 1, None, False),
    (1, 5, 2, None, False),
    (3, 7, 1, None, False),
    (2, 3, 1, None, True),
    (2, 4, 1, None, True),
    (2, 5, 1, None, True),
)
_ENUM_STRATA = ((3, 2, False), (4, 2, False), (5, 1, False), (3, 1, True), (4, 1, True))


def _section_build(rng):
    ops = [_combined(rng, q, h, s, t) for c, q, h, s, t in _SECTION_STRATA for _ in range(c)]
    ops += [_enumerate(rng, q, h, t) for q, h, t in _ENUM_STRATA]
    return (), ops


# ---------------------------------------------------------------------------
# center-search

def _xing(rng, q, curve, deg, m, n, strategy="exhaustive", subset=None, radius_max=2):
    """xing build on m * P_inf (P1: every affine point; Hermitian: the q0^3
    affine points; P1 with D = 0 also the point at infinity). ``subset``
    evaluates on that many distinct points."""
    if curve == "p1" and deg == 0:
        n += 1
    radii = []
    for r in range(m):
        # 0 <= s_r < N(q-1)/q and the floor d0 = (m+1)N - 2 sum (m+1-r)s_r - deg > 0
        cap = min(radius_max, (n * (q - 1) - 1) // q)
        radii.append(rng.randint(0, cap))
    npts = n if subset is None else subset
    while (m + 1) * npts - 2 * sum((m + 1 - r) * s for r, s in enumerate(radii)) - deg <= 0:
        radii[rng.randrange(m)] = 0
    argv = ["xing", "build", "--q", q, "--curve", curve, "--divisor", f"inf:{deg}",
            "--m", m, "--radii", ",".join(str(s) for s in radii), "--strategy", strategy]
    if strategy != "exhaustive":
        argv += ["--seed", rng.randrange(1 << 31), "--trials", rng.choice((16, 32, 64))]
    if subset is not None:
        argv += ["--points", ",".join(str(i) for i in sorted(rng.sample(range(n), subset)))]
    claimed = (m + 1) * npts - 2 * sum((m + 1 - r) * s for r, s in enumerate(radii)) - deg
    return _op(*argv, "--out", "{out}", q=q, curve=curve, claimed=claimed)


def _xing_census(rng, q, deg, m):
    n = q  # verify averaging runs on P1 without the point at infinity
    radii = [rng.randint(0, min(1, (n * (q - 1) - 1) // q)) for _ in range(m)]
    expected = q ** (deg + 1)
    for s in radii:
        expected *= ball_size(n, s, q)
    return _op("verify", "averaging", "--kind", "xing", "--q", q, "--divisor", f"inf:{deg}",
               "--m", m, "--radii", ",".join(str(s) for s in radii),
               q=q, curve="p1", census=expected)


def _center_search(rng):
    # cost classes, cheapest first (42 ops): heuristics, census, P1 GF(5)
    # inf:2 and 6-point subsets (< 0.045 s, ranks 0-13); Hermitian inf:2 and
    # inf:3 on 7 points (~0.06 s, ranks 14-26, the median at ranks 20-21 sits
    # in the middle); P1 GF(5) inf:3 and P1 GF(4) m=2 (~0.1 s); Hermitian
    # inf:3 (~0.22 s, ranks 31-38, holds the 90th percentile); then one each
    # of P1 GF(4) m=2 on D = 0, Hermitian inf:4 and P1 GF(7) on D = 0
    # (7^8 centers, 7 words)
    ops = []
    for deg, count in ((2, 10), (3, 8), (4, 1)):
        ops += [_xing(rng, 4, "hermitian", deg, 1, 8) for _ in range(count)]
    ops += [_xing(rng, 4, "hermitian", 3, 1, 8, subset=7) for _ in range(3)]
    ops += [_xing(rng, 4, "hermitian", 2, 1, 8, subset=6) for _ in range(3)]
    ops += [_xing(rng, 4, "p1", 0, 2, 4, radius_max=1)]
    ops += [_xing(rng, 4, "p1", 1, 2, 4, radius_max=1) for _ in range(2)]
    ops += [_xing(rng, 5, "p1", deg, 1, 5) for deg in (2, 2, 3, 3)]
    ops += [_xing(rng, 7, "p1", 0, 1, 7, radius_max=1)]
    ops += [_xing(rng, 4, "hermitian", deg, 1, 8, strategy=rng.choice(("random", "greedy")))
            for deg in (5, 5, 6, 6, 7, 7)]
    ops += [_xing_census(rng, q, deg, m) for q, deg, m in ((3, 1, 2), (4, 1, 1), (5, 2, 1))]
    return (), ops


# ---------------------------------------------------------------------------
# verify

_GOPPA = (  # (name, q, curve, degree, points subset size or None)
    ("h9a", 9, "hermitian", 5, None),
    ("h9b", 9, "hermitian", 6, None),
    ("p11", 11, "p1", 2, None),
    ("p13", 13, "p1", 2, None),
    ("p16", 16, "p1", 2, None),
    ("h4a", 4, "hermitian", None, 6),
    ("h4b", 4, "hermitian", None, 7),
    ("h4c", 4, "hermitian", None, None),
)


def _verify(rng):
    setup, ops = [], []
    for name, q, curve, deg, subset in _GOPPA:
        if deg is None:
            deg = rng.randint(2, 4)
        argv = ["goppa", "build", "--q", q, "--curve", curve, "--divisor", f"inf:{deg}"]
        if subset is not None:
            argv += ["--points", ",".join(str(i) for i in sorted(rng.sample(range(8), subset)))]
        setup.append(_op(*argv, "--out", f"{{tmp}}/setup/{name}", q=q, curve=curve))
        path = f"{{tmp}}/setup/{name}"
        ops.append(_op("verify", "distance", "--code", f"{path}/goppa_code.txt", q=q))
        if name != "h9b":  # the 6561-word replay is added once below
            ops.append(_op("replay", "manifest", f"{path}/manifest.json", "--out", "{out}",
                           q=q, curve=curve))
    ops.append(_op("replay", "manifest", "{tmp}/setup/h9b/manifest.json", "--out", "{out}",
                   q=9, curve="hermitian"))
    # the proposition audits (~0.25 s each, ranks 30-36) hold the 90th percentile
    for q, h_max, twisted in ((3, 6, False), (3, 6, False), (3, 6, False), (5, 4, False),
                              (5, 4, False), (5, 4, False), (3, 4, True), (4, 4, False)):
        ops.append(_op("sections", "proposition", "--q", q,
                       "--divisor", _twist(rng, q) if twisted else "0", "--h-max", h_max,
                       "--pairs", 20, "--seed", rng.randrange(1 << 31),
                       q=q, curve="p1", pairs=20))
    # a few small combined builds (~0.015-0.03 s) so the combined layer's
    # construction is measured here too; with them the cheap operations fill
    # ranks 0-17 of 40 and the median (ranks 19-20) falls among the ~0.03 s
    # bounds crossings, p11 replay and q=4 census ops (ranks 18-23)
    for q, strategy in ((3, "random"), (3, "greedy"), (4, "random"), (4, "greedy")):
        ops.append(_combined(rng, q, 1, strategy, False))
    for q, h, s0_max in ((3, 1, 2), (3, 1, 2), (3, 2, 1), (4, 1, 2), (4, 1, 2), (5, 1, 2)):
        s0 = rng.randint(0, s0_max)
        census = q ** (2 * h + 1) * ball_size(q + 1, s0, q + 1)
        ops.append(_op("verify", "averaging", "--kind", "combined", "--q", q, "--h", h,
                       "--s0", s0, q=q, curve="p1", census=census))
    for grid in (30, 60, 90):
        qb, grid = rng.choice((4, 9, 16, 25, 49)), grid + rng.randint(-3, 3)
        ops.append(_op("bounds", "table", "--q", qb, "--grid", grid, "--out", "{out}", rows=grid))
    for _ in range(3):
        ops.append(_op("bounds", "crossing", "--q", rng.choice((4, 9, 16, 25, 49, 64, 81))))
    return tuple(setup), ops


_BUILDERS = {"section-build": _section_build, "center-search": _center_search,
             "verify": _verify}


def generate(name: str, seed: int) -> Workload:
    """The workload's set-up and operation lists for one seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    setup, ops = _BUILDERS[name](rng)
    ops = list(ops)
    rng.shuffle(ops)
    return Workload(name, seed, tuple(setup), tuple(ops), WHY[name])


def reuse_share(workload: Workload) -> float:
    """Share of operations whose field or curve an earlier operation of the
    run (set-up included) already built. In-process these hit the cached
    make_field/build_curve; separate CLI processes would rebuild them."""
    def keys(op):
        if op.q is None:
            return set()
        return {("field", op.q)} | ({("curve", op.curve, op.q)} if op.curve else set())

    built = set().union(*(keys(op) for op in workload.setup))
    reused = 0
    for op in workload.ops:
        reused += bool(keys(op) & built)
        built |= keys(op)
    return reused / len(workload.ops)
