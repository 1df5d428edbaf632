"""Seeded inputs for the benchmark workloads.

Each workload is a fixed menu of strata.  A stratum fixes a group and the
size of the job (cone indices, factor orders, Young block sizes, strand
count); the seed picks everything that leaves the group and the cost alone:
the order of the cones or blocks, a relabelling of the generators (a
permutation with random inversions), the order of the relators, conjugators,
and the order of the job list.  So another seed gives other presentations
of the same groups, and the work per job list stays close to constant.

The program receives only the presentations built here; the closed-form
answers live in ``checks``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from adorn import zoo
from adorn.fpgroup import GroupPresentation, Word, format_presentation, free_reduce

WORKLOADS = ("series-deep", "h1-raw", "enumerate", "cli-small")


@dataclass(frozen=True)
class Job:
    """One call into the program.  ``kind`` names the runner, ``args`` are
    the program inputs, ``meta`` what the output checks need."""

    kind: str
    label: str
    args: tuple
    meta: dict


def relabel(p: GroupPresentation, rng: random.Random) -> GroupPresentation:
    """An isomorphic presentation: generators permuted and some inverted
    (an automorphism of the free group), relators shuffled."""
    n = p.n_generators
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rels = [Word((perm[g], s * signs[g]) for g, s in r) for r in p.relators]
    rng.shuffle(rels)
    names = [""] * n
    for g, nm in enumerate(p.generator_names):
        names[perm[g]] = nm
    return GroupPresentation(names, rels, name=p.name)


def _orbifold(cones: tuple[int, ...]) -> GroupPresentation:
    if len(cones) == 3:
        return zoo.make("triangle", cones)
    return zoo.make("fuchsian", (0, cones))


def _shuffled(seq, rng: random.Random) -> tuple:
    out = list(seq)
    rng.shuffle(out)
    return tuple(out)


def _group_jobs(kind: str, rng: random.Random, orbifolds, products) -> list[Job]:
    """One job per stratum; labels are unique because a label stands for
    one input throughout a run."""
    jobs = []
    labels: set[str] = set()

    def add(label: str, p: GroupPresentation, meta: dict) -> None:
        base, k = label, 1
        while label in labels:
            k += 1
            label = f"{base}#{k}"
        labels.add(label)
        jobs.append(Job(kind, label, (p,), dict(meta, gens=p.n_generators)))

    for cones in orbifolds:
        cones = _shuffled(cones, rng)
        add(f"orbifold{cones}", relabel(_orbifold(cones), rng), {"cones": cones})
    for m, n in products:
        m, n = _shuffled((m, n), rng)
        p = zoo.make("free_product", (zoo.make("cyclic", (m,)), zoo.make("cyclic", (n,))))
        add(f"Z{m}*Z{n}", relabel(p, rng), {"product": (m, n)})
    return jobs


# --- series-deep: the whole derived-series loop, Tietze-bound -------------

# (3, 3, 6, 6) appears twice so that job_ms.p90 falls inside a run of
# near-equal job costs, (3, 3, 6, 6) and (2, 2, 2, 2, 2, 2), not at a gap.
SERIES_ORBIFOLDS = (
    (4, 4, 4, 4), (3, 3, 6, 6), (3, 3, 6, 6), (2, 2, 2, 2, 2, 2),
    (2, 4, 4, 4), (3, 3, 3, 3), (3, 3, 3, 3), (3, 3, 3, 3),
    (2, 2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2),
    (12, 12, 12), (10, 10, 10), (9, 9, 9), (8, 8, 8), (8, 8, 12),
    (6, 12, 12), (5, 10, 10), (7, 7, 7), (7, 7, 7), (6, 6, 6), (6, 6, 6),
    (6, 9, 12), (6, 9, 12), (4, 8, 8), (4, 8, 8),
)
SERIES_PRODUCTS = ((16, 16), (14, 14), (12, 12), (12, 12), (10, 15), (12, 18))

# --- h1-raw: coset table -> raw rewrite -> dense SNF, no Tietze ----------

# The 40-50 ms jobs (2,2,2,2,2), (7,7,7) and (5,10,10) are repeated so that
# the median job falls inside a run of equal-cost jobs: at a gap between two
# job costs, a small change of machine speed would move job_ms.p50 a lot.
# Z14*Z14 is repeated for the same reason at job_ms.p90.
H1_ORBIFOLDS = (
    (4, 4, 4, 4), (3, 3, 6, 6), (2, 2, 2, 2, 2, 2), (2, 2, 2, 4, 4),
    (2, 4, 4, 4), (3, 3, 3, 3), (3, 3, 3, 3),
    (12, 12, 12), (10, 10, 10), (9, 9, 9), (6, 12, 12), (8, 8, 8),
    (2, 2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2),
    (7, 7, 7), (7, 7, 7), (7, 7, 7), (7, 7, 7),
    (5, 10, 10), (5, 10, 10), (5, 10, 10), (5, 10, 10),
    (6, 6, 6), (6, 6, 6), (4, 8, 8), (4, 8, 8), (6, 9, 12), (6, 9, 12), (8, 8, 12),
)
H1_PRODUCTS = ((14, 14), (14, 14), (12, 12), (10, 15), (10, 10), (6, 8), (5, 7))

# --- enumerate: Todd-Coxeter on Coxeter presentations of S_n -------------

# Every job gives one sample per pass, so with an even job count the median
# sample lies between two jobs, here 8 ms and 12 ms apart in cost: (2, 2, 2)
# makes the count odd, and job_ms.p50 falls inside one job's samples.
YOUNG_BLOCKS = (
    (1,) * 7, (2, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1), (3, 1, 1, 1, 1),
    (2, 2, 2, 1), (3, 2, 1, 1), (4, 1, 1, 1),
    (1,) * 6, (2, 1, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 2, 2),
    (1,) * 5, (2, 1, 1, 1), (2, 2, 1), (3, 1, 1),
)
FREE_PRODUCT_PAIRS = (
    ("S7", "Z2", "NonAdorable"), ("S6", "Z2", "NonAdorable"),
    ("S5", "Z3", "NonAdorable"), ("Z2", "Z2", "Dinfty"),
    ("T235", "T237", "PerfectProduct"),
)
ALTERNATING_CHAINS = (5, 6, 7)


def coxeter_symmetric(n: int) -> GroupPresentation:
    """S_n on the adjacent transpositions s_1 .. s_{n-1}."""
    s = [Word.gen(i) for i in range(n - 1)]
    rels = [x ** 2 for x in s]
    rels += [(s[i] * s[i + 1]) ** 3 for i in range(n - 2)]
    rels += [(s[i] * s[j]) ** 2 for i in range(n - 1) for j in range(i + 2, n - 1)]
    return GroupPresentation(tuple(f"s{i + 1}" for i in range(n - 1)), rels,
                             name=f"S{n}")


def _parabolic(blocks: tuple[int, ...]) -> list[Word]:
    """Generators s_i of the Young subgroup with consecutive blocks."""
    gens, start = [], 0
    for b in blocks:
        gens += [Word.gen(i) for i in range(start, start + b - 1)]
        start += b
    return gens


def _random_word(rng: random.Random, n_gens: int, length: int) -> Word:
    return Word((rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(length))


def _factor(name: str) -> GroupPresentation:
    if name.startswith("S"):
        return coxeter_symmetric(int(name[1:]))
    if name.startswith("Z"):
        return zoo.make("cyclic", (int(name[1:]),))
    return zoo.make("triangle", tuple(int(c) for c in name[1:]))


def _enumerate_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for blocks in YOUNG_BLOCKS:
        blocks = _shuffled(blocks, rng)
        n = sum(blocks)
        jobs.append(Job("todd_coxeter", f"S{n}/W{blocks}",
                        (coxeter_symmetric(n), _parabolic(blocks)),
                        {"blocks": blocks}))
    for a, b, kind in FREE_PRODUCT_PAIRS:
        a, b = _shuffled((a, b), rng)
        # triangle(2,3,7) is infinite and perfect: only its zoo form is
        # certified non-trivial (by shape), so it is passed unrelabelled
        pa, pb = (_factor(x) if x == "T237" else relabel(_factor(x), rng) for x in (a, b))
        jobs.append(Job("free_product", f"{a}*{b}", (pa, pb), {"kind": kind}))
    for n in ALTERNATING_CHAINS:
        # conjugates of the generating set s_1 s_i of A_n still generate A_n
        u = _random_word(rng, n - 1, 3)
        an = [u * Word.gen(0) * Word.gen(i) * u.inverse() for i in range(1, n - 1)]
        jobs.append(Job("filtration", f"S{n}>A{n}", (coxeter_symmetric(n), [an]),
                        {"levels": ((2, 2),), "terminal_trivial": False}))
    s1, s2, s3 = (Word.gen(i) for i in range(3))
    a4 = [s1 * s2, s2 * s3]
    v4 = [s1 * s3, s1 * s2 * s1 * s2 * s3 * s2]
    jobs.append(Job("filtration", "S4>A4>V4>1", (coxeter_symmetric(4), [a4, v4, []]),
                    {"levels": ((2, 2), (6, 3), (0, 0)), "terminal_trivial": True}))
    return jobs


# --- cli-small: many small calls through adorn.cli.main ------------------

CLI_SERIES_ORBIFOLDS = ((6, 6, 6), (4, 8, 8), (7, 7, 7), (3, 3, 3, 3), (2, 2, 2, 2, 2))
CLI_SERIES_PRODUCTS = ((5, 7), (6, 8), (12, 12))
CLI_ABELIAN_ORBIFOLDS = ((6, 6, 6), (2, 3, 4, 6), (4, 4, 6, 6), (3, 6, 9))
CLI_ABELIAN_PRODUCTS = ((4, 6), (9, 12))
SEIFERT_CASES = (
    (0, (2, 3, 5), False), (0, (2, 3, 6), False), (0, (2, 3, 7), False),
    (0, (2, 4, 6), False), (0, (3, 4, 5, 7), False), (0, (2, 2, 2, 2), False),
    (0, (2, 4, 4, 6), False), (1, (), False), (2, (3,), False),
    (0, (2, 2), True), (1, (5,), True), (0, (7,), False),
)
TORUS_STRANDS = tuple(range(3, 13))


def braid_closure(strands: int, braid: list[tuple[int, int]], name: str) -> GroupPresentation:
    """Knot group of the closure of a braid (letters (i, +-1) for
    sigma_i^{+-1}), from the Artin action on the free group: one relator
    x_k = beta(x_k) per strand but the last."""
    x = [Word.gen(k) for k in range(strands)]
    img = list(x)
    for i, s in braid:
        a, b = img[i], img[i + 1]
        if s > 0:
            img[i], img[i + 1] = free_reduce(a * b * a.inverse()), a
        else:
            img[i], img[i + 1] = b, free_reduce(b.inverse() * a * b)
    rels = [img[k] * x[k].inverse() for k in range(strands - 1)]
    return GroupPresentation(tuple(f"x{k + 1}" for k in range(strands)), rels,
                             name=name)


def _torus_braid(p: int, rng: random.Random) -> list[tuple[int, int]]:
    """(sigma_1 ... sigma_{p-1})^{p+1}, conjugated by a random two-letter
    braid: its closure is still T(p, p+1)."""
    gamma = [(rng.randrange(p - 1), rng.choice((1, -1))) for _ in range(2)]
    inverse = [(i, -s) for i, s in reversed(gamma)]
    return gamma + [(i, 1) for i in range(p - 1)] * (p + 1) + inverse


def _cli(label: str, argv: list[str], meta: dict) -> Job:
    return Job("cli", label, (argv,), meta)


def _cli_jobs(rng: random.Random, corpus: str) -> list[Job]:
    jobs = []
    seen = set()
    for job in _group_jobs("series", rng, CLI_SERIES_ORBIFOLDS, CLI_SERIES_PRODUCTS):
        text = format_presentation(job.args[0])
        if text in seen:
            raise ValueError(f"duplicate series input {text}")
        seen.add(text)
        # each input twice: the first run writes the step cache, the second reads it
        for _ in range(2):
            jobs.append(_cli(f"series {job.label}", ["series", text, "--json"],
                             dict(job.meta, command="series")))
    for job in _group_jobs("abelianize", rng, CLI_ABELIAN_ORBIFOLDS, CLI_ABELIAN_PRODUCTS):
        jobs.append(_cli(f"abelianize {job.label}",
                         ["abelianize", format_presentation(job.args[0]), "--json"],
                         dict(job.meta, command="abelianize")))
    for genus, cones, boundary in SEIFERT_CASES:
        cones = _shuffled(cones, rng) if cones != (2, 2, 2, 2) else cones
        argv = ["classify-seifert", "--genus", str(genus),
                "--cones", ",".join(map(str, cones)), "--json"]
        if boundary:
            argv.insert(-1, "--boundary")
        jobs.append(_cli(f"classify-seifert {genus} {cones} {boundary}", argv,
                         {"command": "classify-seifert", "genus": genus,
                          "cones": cones, "boundary": boundary}))
    for p in TORUS_STRANDS:
        knot = braid_closure(p, _torus_braid(p, rng), f"T({p},{p + 1})")
        jobs.append(_cli(f"alexander T({p},{p + 1})",
                         ["alexander", format_presentation(knot), "--json"],
                         {"command": "alexander", "torus": (p, p + 1)}))
    jobs.append(_cli("verify-corpus", ["verify-corpus", corpus],
                     {"command": "verify-corpus"}))
    return jobs


def make_jobs(workload: str, seed: int, corpus: str = "corpus/paper.json") -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "series-deep":
        jobs = _group_jobs("series", rng, SERIES_ORBIFOLDS, SERIES_PRODUCTS)
    elif workload == "h1-raw":
        jobs = _group_jobs("h1raw", rng, H1_ORBIFOLDS, H1_PRODUCTS)
    elif workload == "enumerate":
        jobs = _enumerate_jobs(rng)
    elif workload == "cli-small":
        jobs = _cli_jobs(rng, corpus)
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng.shuffle(jobs)
    return jobs

