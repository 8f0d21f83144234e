"""Workload inputs: the categories, the site files and the op list of each
workload.

Everything is built from finsite's public constructors and driven by the
seed, so one seed always writes the same files and yields the same op list.
Each op is one CLI subcommand on one site file; the runner calls it through
`finsite.cli.main` with `--format json`.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

from finsite.category import full_subcategory, subcategory
from finsite.corpus import (
    corpus,
    monoid_category,
    path_category,
    poset_category,
    random_sites,
)
from finsite.presheaf import random_presheaf
from finsite.siteio import SiteFile, save_site
from finsite.topology import (
    count_candidate_assignments,
    enumerate_topologies,
    maximal_topology,
    trivial_topology,
)

# Random corpus sites appended to the 14 named ones, as a quota per exponent
# e of their 2^e candidate topology assignments, so every seed gets the same
# mix.  Up to 2^9 the quotas follow the frequencies `random_sites` draws.
# Its rarer larger sites (up to 2^16) would each cost more than all the others
# together and swing a pass by a factor of three from seed to seed, so they
# are left to lattice-ladder, which covers 2^10..2^16 rung by rung.  The top
# band 2^10 gets four sites, enough that the tail percentile falls inside a
# group of similar ops rather than on one site.
CORPUS_QUOTA = {2: 7, 3: 8, 4: 6, 5: 4, 6: 5, 7: 3, 8: 2, 9: 1, 10: 4}

# Lattice-ladder seeded rungs as (kind, e, objects, morphisms): each has
# exactly 2^e candidate assignments and the given shape, so every seed
# searches spaces of the same sizes at about the same cost.  One is cheaper
# and one dearer than the fixed middle rung p12, so the per-subcommand medians
# land on fixed rungs.  The dear end of the range is left to the fixed rungs
# chain5 and p16, which hold the tail percentile: a seeded 2^14 path category
# took 200-350 ms to enumerate depending on its shape, straddling chain5, so
# the tail moved by a fifth from seed to seed.  Every seeded 2^12 rung of
# this shape has 32 topologies, every 2^10 one 16, so each seed runs the
# same number of ops.
RANDOM_RUNGS = (("path", 10, 4, 8), ("path", 12, 5, 10))

PRESHEAF_MAX_VALUE = 4

GOLDEN_REPORT = os.path.join("tests", "golden", "vee-cover.report.json")
GOLDEN_SITE = os.path.join("tests", "golden", "arrow-j2.site.json")


@dataclass(frozen=True)
class Op:
    """One CLI call.  `fixed` ops give the same output for every seed."""

    label: str
    argv: tuple
    fixed: bool
    golden: str | None = None

    @property
    def kind(self):
        return self.argv[0]


@dataclass
class Inputs:
    sites: list = field(default_factory=list)  # (file name, SiteFile)
    ops: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # failed size checks


# ---------------------------------------------------------------------------
# Categories.


def cyclic_group(n):
    names = ["e"] + ["a%d" % i for i in range(1, n)]
    table = {
        (names[i], names[j]): names[(i + j) % n]
        for i in range(n)
        for j in range(n)
    }
    return monoid_category(names, "e", table)


def _map_monoid(maps):
    """Monoid of self-maps of range(k) under composition; maps[0] is the unit."""
    name = {m: "m" + "".join(map(str, m)) for m in maps}
    table = {
        (name[g], name[f]): name[tuple(g[x] for x in f)]
        for g in maps
        for f in maps
    }
    return monoid_category([name[m] for m in maps], name[maps[0]], table)


def symmetric_group3():
    return _map_monoid(list(itertools.permutations(range(3))))


def klein_four():
    """Z2 x Z2, as the permutations (ab)(cd), (ac)(bd), (ad)(bc) and 1."""
    return _map_monoid([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])


def full_transformations2():
    """T2: every self-map of a two-element set."""
    return _map_monoid([(0, 1), (1, 0), (0, 0), (1, 1)])


def chain(n):
    names = ["c%d" % i for i in range(n)]
    return poset_category(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def boolean_lattice(k):
    names = [format(i, "0%db" % k) for i in range(1 << k)]
    pairs = [
        (names[i], names[i | 1 << b])
        for i in range(1 << k)
        for b in range(k)
        if not i >> b & 1
    ]
    return poset_category(names, pairs)


# Independently known sizes: (objects, morphisms, topologies); None where
# nothing is known.
def _known_sizes(rung):
    if rung.startswith("Z"):
        return 1, int(rung[1:]), 2
    if rung.startswith("chain"):
        n = int(rung[5:])
        return n, n * (n + 1) // 2, {4: 16, 5: 32}.get(n)
    if rung.startswith("2^"):
        k = int(rung[2:])
        return 1 << k, 3**k, {2: 16}.get(k)
    return {"K4": (1, 4, 2), "S3": (1, 6, 2), "T2": (1, 4, 3)}.get(rung, (None, None, None))


def ladder_category(rung):
    """The category of a named ladder rung: Z<n>, K4, S3, T2, chain<n>, 2^<k>,
    or p12 and p16, fixed random posets with 2^12 and 2^16 candidate
    assignments."""
    if rung.startswith("Z"):
        return cyclic_group(int(rung[1:]))
    if rung.startswith("chain"):
        return chain(int(rung[5:]))
    if rung.startswith("2^"):
        return boolean_lattice(int(rung[2:]))
    if rung == "p12":
        return random_rung(random.Random("p12"), 12, "poset", 5, 10)
    if rung == "p16":
        return random_rung(random.Random("p16"), 16, "poset")
    return {"K4": klein_four, "S3": symmetric_group3, "T2": full_transformations2}[
        rung
    ]()


def size_problems(rung, category, topologies=None):
    """Mismatches between a rung and its independently known sizes."""
    objects, morphisms, count = _known_sizes(rung)
    out = []
    if objects is not None and (
        (len(category.objects), len(category.morphisms)) != (objects, morphisms)
    ):
        out.append(
            "%s has %d objects and %d morphisms, expected %d and %d"
            % (rung, len(category.objects), len(category.morphisms), objects, morphisms)
        )
    if count is not None and topologies is not None and len(topologies) != count:
        out.append("%s has %d topologies, expected %d" % (rung, len(topologies), count))
    return out


def random_rung(rng, exponent, kind, objects=None, morphisms=None, max_attempts=100000):
    """Random poset or path category with exactly 2^exponent candidate
    topology assignments, and the given numbers of objects and morphisms
    where those are given."""
    for _ in range(max_attempts):
        n = objects or rng.randint(3, 6)
        names = ["v%d" % i for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        if kind == "poset":
            cat = poset_category(names, pairs)
        else:
            edges = [("e%s%s" % (a[1:], b[1:]), a, b) for a, b in pairs]
            cat = path_category(names, edges, max_morphisms=14)
            if cat is None:
                continue
        if morphisms is not None and len(cat.morphisms) != morphisms:
            continue
        if count_candidate_assignments(cat) == 1 << exponent:
            return cat
    raise RuntimeError("no %s with 2^%d candidates found" % (kind, exponent))


# ---------------------------------------------------------------------------
# Workloads.


def _rung_ops(stem, sub, report_argv, fixed):
    f = stem + ".json"
    return [
        Op(stem + ":validate", ("validate", f), fixed),
        Op(stem + ":topologies", ("topologies", f), fixed),
        Op(stem + ":dense", ("dense", "--sub", sub, "--enumerate", f), fixed),
        Op(stem + ":classify", ("classify", f), fixed),
        Op(stem + ":report", tuple(report_argv) + (f,), fixed),
    ]


def _sheafify_op(stem, presheaf):
    return Op(
        "%s:sheafify-%s" % (stem, presheaf),
        ("sheafify", "--presheaf", presheaf, stem + ".json"),
        False,
    )


def quota_random_sites(seed, quota=CORPUS_QUOTA, chunk=64, max_chunks=200):
    """Seeded `random_sites` draws, kept while their exponent's quota lasts."""
    left = dict(quota)
    out = []
    for j in range(max_chunks):
        for site in random_sites(seed * 100003 + j, chunk):
            e = count_candidate_assignments(site.category).bit_length() - 1
            if left.get(e, 0) > 0:
                left[e] -= 1
                out.append(site)
                if not any(left.values()):
                    return out
    raise RuntimeError("random_sites did not fill the quota %r" % (quota,))


def corpus_pipeline(seed):
    """The named corpus sites and seeded random ones, every subcommand."""
    inp = Inputs()
    for site in corpus(seed=seed, random_count=0) + quota_random_sites(seed):
        stem = site.name
        fixed = not stem.startswith("random-")
        f = stem + ".json"
        inp.sites.append((f, site))
        inp.ops.append(Op(stem + ":validate", ("validate", f), fixed))
        inp.ops.append(Op(stem + ":topologies", ("topologies", f), fixed))
        for sub in sorted(site.subcategories):
            inp.ops.append(
                Op(
                    "%s:dense-%s" % (stem, sub),
                    ("dense", "--sub", sub, "--enumerate", f),
                    fixed,
                )
            )
        for p in sorted(site.presheaves):
            inp.ops.append(
                Op("%s:sheafify-%s" % (stem, p), ("sheafify", "--presheaf", p, f), fixed)
            )
        inp.ops.append(Op(stem + ":classify", ("classify", f), fixed))
        golden = GOLDEN_REPORT if stem == "vee-cover" else None
        inp.ops.append(Op(stem + ":report", ("report", f), fixed, golden))
        if stem == "vee-cover":
            inp.ops.append(
                Op(stem + ":report-j2", ("report", "--jobs", "2", f), fixed, golden)
            )
    return inp


HOM_RUNGS = ("Z2", "Z3", "Z4", "Z5", "Z6", "K4", "S3", "T2")
# Rungs whose report runs with --jobs 2: those where the per-object checks
# take long enough to share.  On the others a report takes a few ms, and with
# two threads the GIL hand-off (a 5 ms switch interval) adds 0 or 5 ms at
# random, which made their median swing by half from run to run.
HOM_JOBS2 = ("Z5", "Z6", "S3")


def hom_ladder(seed):
    """One-object categories under the trivial topology (and T2 under its
    third topology); `report --jobs 2` on the larger ones is the heavy op."""
    rng = random.Random("hom-ladder:%d" % seed)
    inp = Inputs()
    for rung in HOM_RUNGS:
        cat = ladder_category(rung)
        tops = enumerate_topologies(cat).elements
        inp.problems += size_problems(rung, cat, tops)
        unit = cat.morphisms[cat.identity[0]]
        subs = {"strict": subcategory(cat, ("*",), (unit,))}
        P = random_presheaf(cat, rng, max_value=PRESHEAF_MAX_VALUE)
        trivial = trivial_topology(cat).covering
        maximal = maximal_topology(cat).covering
        variants = [(rung, trivial_topology(cat))]
        variants += [
            ("%s-j%d" % (rung, i), J)
            for i, J in enumerate(tops)
            if J.covering not in (trivial, maximal)
        ]
        for stem, J in variants:
            inp.sites.append((stem + ".json", SiteFile(stem, cat, J, subs, {"P": P})))
            jobs = ("--jobs", "2") if rung in HOM_JOBS2 else ()
            inp.ops += _rung_ops(stem, "strict", ("report",) + jobs, True)
            inp.ops.append(_sheafify_op(stem, "P"))
    return inp


LATTICE_RUNGS = ("chain4", "2^2", "p12", "chain5", "p16")


def lattice_ladder(seed):
    """Posets and path categories; every rung sheafifies a seeded presheaf
    under each of its topologies."""
    rng = random.Random("lattice-ladder:%d" % seed)
    rungs = [(name, ladder_category(name), True) for name in LATTICE_RUNGS]
    for kind, e, objects, morphisms in RANDOM_RUNGS:
        cat = random_rung(rng, e, kind, objects, morphisms)
        rungs.append(("r%s-e%d" % (kind, e), cat, False))
    inp = Inputs()
    for name, cat, fixed in rungs:
        tops = enumerate_topologies(cat).elements
        inp.problems += size_problems(name, cat, tops)
        stem = name.replace("^", "p")
        if fixed:
            J = trivial_topology(cat)
            keep = cat.objects[: (len(cat.objects) + 1) // 2]
        else:
            J = tops[rng.randrange(len(tops))]
            keep = [o for o in cat.objects if rng.random() < 0.5] or cat.objects[:1]
        subs = {"S": full_subcategory(cat, keep)}
        inp.sites.append((stem + ".json", SiteFile(name, cat, J, subs, {})))
        ops = _rung_ops(stem, "S", ("report",), fixed)
        for i, Ji in enumerate(tops):
            s = "%s-t%d" % (stem, i)
            P = random_presheaf(cat, rng, max_value=PRESHEAF_MAX_VALUE)
            inp.sites.append((s + ".json", SiteFile(s, cat, Ji, {}, {"P": P})))
            ops.append(_sheafify_op(s, "P"))
        inp.ops += ops
    return inp


WORKLOAD_INPUTS = {
    "corpus-pipeline": corpus_pipeline,
    "hom-ladder": hom_ladder,
    "lattice-ladder": lattice_ladder,
}
WORKLOADS = tuple(WORKLOAD_INPUTS)


def build(workload, seed, workdir):
    """Build one workload's inputs and write its site files into workdir."""
    inp = WORKLOAD_INPUTS[workload](seed)
    os.makedirs(workdir, exist_ok=True)
    for name, site in inp.sites:
        save_site(site, os.path.join(workdir, name))
    return inp


# ---------------------------------------------------------------------------
# Frontier ladders.  Each rung is a category and the CLI calls it must finish,
# in order, within the climb's per-rung limit.

HOM_CLIMB = tuple("Z%d" % n for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 32))
POSET_CLIMB = tuple(
    sorted(
        ["chain%d" % n for n in range(1, 9)] + ["2^%d" % k for k in (2, 3, 4)],
        key=lambda r: _known_sizes(r)[1],
    )
)


def climb_rungs(workload):
    """(rung names, argv maker) of the workload's frontier climb."""
    if workload == "hom-ladder":
        return HOM_CLIMB, lambda f: [("report", "--jobs", "2", f)]
    if workload == "lattice-ladder":
        return POSET_CLIMB, lambda f: [("topologies", f)]
    return POSET_CLIMB, lambda f: [
        ("validate", f),
        ("topologies", f),
        ("dense", "--sub", "S", "--enumerate", f),
        ("sheafify", "--presheaf", "P", f),
        ("classify", f),
        ("report", f),
    ]


def write_climb_site(rung, workdir):
    """Write the site file of a climb rung; returns (file name, category, problems)."""
    cat = ladder_category(rung)
    stem = "climb-" + rung.replace("^", "p")
    keep = cat.objects[: (len(cat.objects) + 1) // 2]
    site = SiteFile(
        rung,
        cat,
        trivial_topology(cat),
        {"S": full_subcategory(cat, keep)},
        {"P": random_presheaf(cat, random.Random(rung), max_value=PRESHEAF_MAX_VALUE)},
    )
    name = stem + ".json"
    save_site(site, os.path.join(workdir, name))
    return name, cat, size_problems(rung, cat)
