"""Reference implementations that scan whole covering sets, compared with the
library's least-covering-sieve (M_c) paths.

Each oracle decides its question the long way: over every covering sieve,
or for the plus construction over every (covering sieve, matching family)
pair with the colimit identification done by pairwise comparison.  They run
on every topology of every corpus category with at most 12 morphisms, plus
the chain 0 < 1 < 2 < 3, on seeded random presheaves and subcategories.

The closed-form topology enumeration (down-sets of retract classes of
idempotents) is checked against the filter of the whole product of sieves
and, tuple for tuple, against the depth-first search over least sieves it
replaced; generated topologies and joins against the fixed point of the
least sieves under stability and transitivity, and against the fixed point
of the covering sets under the axioms over every sieve; the sieves against
the filter of all arrow subsets; and the on-demand lattice operations
against eagerly built tables (the join as the meet of all upper bounds).
Besides the corpus, these run on seeded submonoids of the transformation
monoids T_3 and T_4, whose non-identity idempotents do not split.

Presheaves and maps the library builds without law checks (Yoneda, limits,
natural maps, the plus construction, restrictions) are rechecked with the
checks `Presheaf(...)` and `NatTransformation(...)` run on outside data.
The orbit-mask hull, the subobject lattice, the pseudo-complement test for
indecomposability and the direct pullback are compared with the
arrow-walking hull, the pairwise complement search and the equalizer inside
a product built pair by pair, on every representable sheaf under every
topology of the categories above.  A site and its presheaf site E_D under
the trivial topology present one topos; the report's derived verdicts and
the terminal sheaf's connectedness are compared on the two.  `describe()`, whose name tuples are
memoised per object and least covering sieve, is compared with the
list-building version it replaced.

The site facts keep the code they replaced as references: the right Ore
condition searched square by square (against one AND of principal
sieves), the topology axioms scanned literally over every assignment of
sieves of the small search categories (against the verdict on the least
sieves), and the category laws over all pairs of arrows (against the walk
over composable ones).

Sheafification keeps the solver as the reference for the families on
maximal sieves, which it reads off as the restriction tuples of P(c), and
`is_sheaf` for the sheafify command's verdict, which it reads off the unit;
one fixed presheaf on the poset 2^2 has a P+ that is not a sheaf.

Supercompactness keeps the join of all proper principal subobjects as its
reference, and the regular probe the version that builds a kernel pair for
every map, monic or not.  They are compared on representables, the terminal
sheaf, sheafified random presheaves and the kernel pairs of every map
between representables, under the topologies of the search and monoid
categories.  The same categories check that a Cauchy-complete site is rigid.

The site classes keep their searches as references: the finite-limit search
over every candidate cone with its equalizer stage, the splitting search
over every idempotent, identities included, subcanonicity with a
representable built for every object, and the locally-connected and regular
scans over every covering sieve.  They are compared, every field and
witness, under every topology of the categories above, of products of small
categories, of monoids with a terminal object added, and of seeded random
sites, each also with its objects and arrows listed in reverse order.  The
same categories check the theorem the finite-limit search rests on: a
cartesian category is thin, so the equalizer stage never fails.  Sieve
connectivity, which the locally-connected scan reads, is compared with a
zig-zag breadth-first search over every sieve of these categories and over
random sets of arrows into one object.

The report writes the rigid-site transfer as a theorem of the comparison
lemma; the check it replaced, through the comparison functors along the
irreducibles, is kept here and run under every rigid topology of the
corpus, search and monoid categories, while a sample of non-rigid ones shows
no such entry.  Plus steps under two topologies of one category, taken in
turn so that each reads its frame from the category's memo, are compared
with the same steps on a fresh copy of the category.

Loading a site decides the category laws by count, by thinness and by
Light's test on a greedy generating set; the scan over all pairs checks
them on broken tables and on one-object magmas with identity, and a brute
force closure checks that the generating set reaches every arrow.  The
coverage `topology()` stores as `covering` is compared, under every topology
of these categories, with the sieves containing M_c enumerated on a fresh
copy.  The one-pass M = M(D) test of the axioms is compared with the check
of stability and transitivity on M itself, on random least-sieve
assignments of the monoid categories and of random sites, and
`validate_category`, the loader's only name resolver, with the reference
on fuzzed named data given to it directly.

The report decides its per-object checks on the presheaf site E_D.  The
sheaf-side block it ran before (double-plus representables, closed
subobject lattices read pair by pair, supercompactness as a join of
principal subobjects, the regular probe through sheaf kernel pairs, the
terminal sheaf's lattice) is kept here and compared, field by field, under
every topology of the corpus, search and monoid categories and on the
random sites of seeds 0-63; E_D passes `validate_category`, and each
restricted representable is y(1_c)|E_D and passes the presheaf law check.
With sheafification and the closed hulls made to raise, the report keeps
its bytes.  The public object predicates, which decide on A|E_D as well,
are compared with the walks on sheafified random presheaves, and the
projective test with the section-and-retraction search, on split retracts
of representables too.
"""

import itertools
import json
import random
import sys
import time
from collections import Counter
from functools import partial, reduce
from operator import and_, or_

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsite.category import (
    CartesianReport,
    FiniteCategory,
    CauchyReport,
    OreReport,
    Subcategory,
    _check_associative,
    _is_cartesian,
    _generators,
    _is_cauchy_complete,
    _splits,
    bits,
    full_subcategory_from_mask,
    has_right_ore,
    is_cauchy_complete,
    subcategory_from_masks,
    validate_category,
)
from finsite.corpus import (
    corpus,
    idem,
    monoid_category,
    named_site,
    poset_category,
    random_path_category,
    random_poset_category,
    random_sites,
)
from finsite.classify import (
    RegularSiteVerdict,
    SiteVerdict,
    classify_report,
    comparison_functors,
    is_locally_connected_site,
    is_regular_site,
    is_rigid,
    j_irreducible_objects,
)
from finsite.cli import _strided_map, main
from finsite.density import is_dense
from finsite.errors import (
    CategoryLawError,
    FinsiteError,
    IdentityLawViolation,
    InvalidSubcategory,
    MissingIdentity,
    ParseError,
    PresheafLawError,
    SizeBoundExceeded,
    TopologyAxiomViolation,
    TypeMismatch,
    UndefinedComposite,
    UnknownName,
    UnknownObject,
)
from finsite.objects import (
    ProbeVerdict,
    SubobjectLattice,
    _properties,
    _subobjects,
    closed_hull,
    is_atom,
    is_indecomposable,
    is_indecomposable_projective,
    is_supercompact_object,
    presheaf_site,
    rep_is_coherent,
    rep_is_irreducible,
    rep_is_regular,
    rep_is_supercompact,
    representable_properties,
    restrict,
    restricted_representable,
    subobjects,
    terminal_is_indecomposable,
)
from finsite.presheaf import (
    NatTransformation,
    Presheaf,
    are_isomorphic,
    compose_nat,
    equalizer_presheaf,
    kernel_pair,
    presheaf_homs,
    product_presheaf,
    pullback_presheaf,
    random_presheaf,
    terminal_presheaf,
    yoneda,
)
from finsite.sheaf import (
    SubcanonicalVerdict,
    _is_subcanonical,
    _plus,
    _restrictions,
    is_sheaf,
    matching_families,
    representable_sheaf,
    sheafify,
)
from finsite.sieves import (
    generate_mask,
    is_right_closed,
    is_sieve_connected,
    pullback_mask,
    sieve_masks_on,
)
from finsite.siteio import (
    NAMED_TOPOLOGIES,
    SCHEMA,
    SiteFile,
    canonical_json,
    category_data,
    parse_site,
    save_site,
    serialize_site,
)
from finsite.topology import (
    GrothendieckTopology,
    TopologyLattice,
    TopologyVerdict,
    _least_if_topology,
    _resolve_bound,
    _scan_axioms,
    atomic_topology,
    enumerate_topologies,
    generated_topology,
    is_topology,
    maximal_topology,
    topology,
    trivial_topology,
)

from test_fuzz import fuzzed_documents, lawful_documents
from test_objects import retract_of_representable
from test_topology import naive_is_topology


def _categories():
    out = []
    for site in corpus(seed=0, random_count=4):
        cat = site.category
        if len(cat.morphisms) <= 12 and cat not in out:
            out.append(cat)
    out.append(
        poset_category(("0", "1", "2", "3"), (("0", "1"), ("1", "2"), ("2", "3")))
    )
    return out


CATEGORIES = _categories()
_LATTICES = {}


def lattice(cat):
    if cat not in _LATTICES:
        _LATTICES[cat] = enumerate_topologies(cat)
    return _LATTICES[cat]


def random_subcategory(cat, rng):
    """Random, not necessarily full, subcategory: closed under composition."""
    objects = 0
    for c in range(len(cat.objects)):
        if rng.random() < 0.6:
            objects |= 1 << c
    morphisms = 0
    for f in range(len(cat.morphisms)):
        if objects >> cat.dom[f] & 1 and objects >> cat.cod[f] & 1:
            if cat.is_identity(f) or rng.random() < 0.5:
                morphisms |= 1 << f
    grown = True
    while grown:
        grown = False
        for g in bits(morphisms):
            for f in bits(morphisms):
                if cat.cod[f] == cat.dom[g]:
                    h = cat.compose(g, f)
                    if not morphisms >> h & 1:
                        morphisms |= 1 << h
                        grown = True
    return subcategory_from_masks(cat, objects, morphisms)


def cases():
    """(category, topology, seeded rng) for every topology of every category."""
    for k, cat in enumerate(CATEGORIES):
        for i, J in enumerate(lattice(cat).elements):
            yield cat, J, random.Random(1000 * k + i)


# ---------------------------------------------------------------------------
# Oracles over whole covering sets.


def amalgamations(cat, P, c, mask, family):
    """The elements of P(c) whose restrictions along the sieve are the
    family."""
    return [
        x
        for x in range(P.sizes[c])
        if all(P.actions[f][x] == family[i] for i, f in enumerate(bits(mask)))
    ]


def scan_is_sheaf(cat, J, P):
    for c in range(len(cat.objects)):
        for S in J.covering_masks(c):
            for family in matching_families(cat, P, c, S):
                if len(amalgamations(cat, P, c, S, family)) != 1:
                    return False
    return True


def pairs_plus(cat, J, P):
    """Plus construction as the colimit over all (covering sieve, family)
    pairs: two pairs are identified when they agree on a covering sieve
    inside both.  Returns (sizes, actions, unit components)."""
    n_obj = len(cat.objects)
    class_of = []
    reps = []
    for c in range(n_obj):
        covers = J.covering_masks(c)
        pairs = [
            (S, fam) for S in covers for fam in matching_families(cat, P, c, S)
        ]

        def restrict(pair, T):
            S, fam = pair
            at = {f: i for i, f in enumerate(bits(S))}
            return tuple(fam[at[f]] for f in bits(T))

        def same(p, q):
            inter = p[0] & q[0]
            return any(
                not T & ~inter and restrict(p, T) == restrict(q, T)
                for T in covers
            )

        classes = []
        for p in pairs:
            for members in classes:
                if same(members[0], p):
                    members.append(p)
                    break
            else:
                classes.append([p])
        classes.sort(key=min)
        class_of.append({p: k for k, members in enumerate(classes) for p in members})
        reps.append([min(members) for members in classes])

    actions = []
    for h in range(len(cat.morphisms)):
        d, c = cat.dom[h], cat.cod[h]
        tab = []
        for S, fam in reps[c]:
            at = {f: i for i, f in enumerate(bits(S))}
            Sd = pullback_mask(cat, S, h)
            tab.append(
                class_of[d][(Sd, tuple(fam[at[cat.compose(h, g)]] for g in bits(Sd)))]
            )
        actions.append(tuple(tab))
    unit = []
    for c in range(n_obj):
        top = cat.maximal_sieve(c)
        unit.append(
            tuple(
                class_of[c][(top, tuple(P.actions[f][x] for f in bits(top)))]
                for x in range(P.sizes[c])
            )
        )
    return tuple(len(r) for r in reps), tuple(actions), tuple(unit)


def scan_density_failures(cat, J, sub):
    def qualifies(c, keep):
        for R in J.covering_masks(c):
            if generate_mask(cat, [g for g in bits(R) if keep(g)]) == R:
                return True
        return False

    out = []
    for c in range(len(cat.objects)):
        if not qualifies(c, lambda g: sub.has_object(cat.dom[g])):
            out.append(("i", cat.objects[c]))
    for f in range(len(cat.morphisms)):
        if sub.has_object(cat.cod[f]) and not qualifies(
            cat.dom[f], lambda g: sub.has_morphism(cat.compose(f, g))
        ):
            out.append(("ii", cat.morphisms[f]))
    return out


def list_describe(J):
    """`describe()` as it was before its name lists were memoised per
    (c, M_c): fresh sorted lists for every topology and object."""
    cat = J.category
    return {
        cat.objects[c]: [sorted(cat.morphisms[f] for f in bits(m)) for m in masks]
        for c, masks in enumerate(J.covering)
    }


def scan_rep_is_supercompact(cat, J, c):
    return all(
        any(J.covers(c, cat.principal_sieve(f)) for f in bits(S))
        for S in J.covering_masks(c)
    )


def scan_closed_hull(cat, J, A, masks):
    masks = list(masks)
    while True:
        grown = False
        for f in range(len(cat.morphisms)):
            for x in bits(masks[cat.cod[f]]):
                y = A.actions[f][x]
                if not masks[cat.dom[f]] >> y & 1:
                    masks[cat.dom[f]] |= 1 << y
                    grown = True
        for c in range(len(cat.objects)):
            for x in range(A.sizes[c]):
                if masks[c] >> x & 1:
                    continue
                if any(
                    all(masks[cat.dom[f]] >> A.actions[f][x] & 1 for f in bits(S))
                    for S in J.covering_masks(c)
                ):
                    masks[c] |= 1 << x
                    grown = True
        if not grown:
            return tuple(masks)


# ---------------------------------------------------------------------------
# Comparisons.


def test_corpus_cases_are_covered():
    assert len(CATEGORIES) >= 10
    assert sum(len(lattice(cat)) for cat in CATEGORIES) >= 60


@pytest.mark.parametrize("cat", CATEGORIES, ids=str)
def test_minimal_sieve_is_the_least_covering_sieve(cat):
    for J in lattice(cat).elements:
        for c, M in enumerate(J.minimal):
            assert J.covers(c, M)
            assert all(not M & ~S for S in J.covering_masks(c))
            assert rep_is_irreducible(cat, J, c) == (
                J.covering_masks(c) == (cat.maximal_sieve(c),)
            )
            assert rep_is_supercompact(cat, J, c) == scan_rep_is_supercompact(
                cat, J, c
            )


@pytest.mark.parametrize("cat", CATEGORIES, ids=str)
def test_lattice_order_and_meet_match_covering_sets(cat):
    lat = lattice(cat)
    sets = [[set(m) for m in J.covering] for J in lat.elements]
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert lat.leq(i, j) == all(a <= b for a, b in zip(sets[i], sets[j]))
            meet = lat.elements[lat.meet(i, j)]
            assert [set(m) for m in meet.covering] == [
                a & b for a, b in zip(sets[i], sets[j])
            ]


def test_sheaf_condition_and_plus_match_the_pair_colimit():
    for cat, J, rng in cases():
        for _ in range(6):
            P = random_presheaf(cat, rng)
            assert bool(is_sheaf(cat, J, P)) == scan_is_sheaf(cat, J, P)
            plus, unit = _plus(cat, J, P)
            assert (plus.sizes, plus.actions, unit.components) == pairs_plus(
                cat, J, P
            )


def test_density_matches_the_covering_scan():
    for cat, J, rng in cases():
        for _ in range(6):
            sub = random_subcategory(cat, rng)
            got = [(v.condition, v.witness) for v in is_dense(cat, J, sub).failures]
            assert got == scan_density_failures(cat, J, sub)


def test_closed_hull_matches_the_covering_scan():
    for cat, J, rng in cases():
        for _ in range(2):
            A = random_presheaf(cat, rng)
            for _ in range(8):
                seed = tuple(rng.randrange(1 << n) for n in A.sizes)
                assert closed_hull(cat, J, A, seed) == scan_closed_hull(
                    cat, J, A, seed
                )


@pytest.mark.parametrize("cat", CATEGORIES, ids=str)
def test_describe_matches_the_list_building_oracle(cat):
    shared = {}
    for J in lattice(cat).elements:
        got, want = J.describe(), list_describe(J)
        assert got == {c: tuple(map(tuple, sieves)) for c, sieves in want.items()}
        assert canonical_json(got) == canonical_json(want)
        # topologies with one least sieve on c share one name tuple
        for c, M in enumerate(J.minimal):
            name = cat.objects[c]
            assert shared.setdefault((c, M), got[name]) is got[name]


# ---------------------------------------------------------------------------
# The topology search, the sieves and the lattice operations.


def subset_sieves(cat, c):
    """Sieves on c: every subset of the arrows into c that is right closed."""
    arrows = cat.into(c)
    out = []
    for pick in range(1 << len(arrows)):
        mask = 0
        for i, f in enumerate(arrows):
            if pick >> i & 1:
                mask |= 1 << f
        if is_right_closed(cat, mask):
            out.append(mask)
    return tuple(sorted(out))


def is_minimal_assignment(cat, minimal):
    """Stable: h^*M_c contains M_dom(h) for every arrow h into c.  Transitive:
    M_c is generated by the composites f after k with f in M_c and k in
    M_dom(f)."""
    for c, M in enumerate(minimal):
        for h in cat.into(c):
            if minimal[cat.dom[h]] & ~pullback_mask(cat, M, h):
                return False
    for c, M in enumerate(minimal):
        composites = [
            cat.compose(f, k) for f in bits(M) for k in bits(minimal[cat.dom[f]])
        ]
        if generate_mask(cat, composites) != M:
            return False
    return True


def product_filter_topologies(cat):
    """Sorted coverings of every topology, by filtering the whole product of
    the sieves on each object for stable, transitive least covering sieves."""
    sieves = [subset_sieves(cat, c) for c in range(len(cat.objects))]
    out = []
    for minimal in itertools.product(*sieves):
        if is_minimal_assignment(cat, minimal):
            out.append(
                tuple(
                    tuple(S for S in sieves[c] if not M & ~S)
                    for c, M in enumerate(minimal)
                )
            )
    return tuple(sorted(out))


def eager_tables(lat):
    """leq, meet, join and implication tables built up front by scanning the
    lattice, with meet as the objectwise union of minimal sieves."""
    n = len(lat.elements)
    mins = [J.minimal for J in lat.elements]
    by_minimal = {m: i for i, m in enumerate(mins)}
    leq = [
        [not any(b & ~a for a, b in zip(mins[i], mins[j])) for j in range(n)]
        for i in range(n)
    ]
    meet = [
        [by_minimal[tuple(a | b for a, b in zip(mins[i], mins[j]))] for j in range(n)]
        for i in range(n)
    ]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
            best = uppers[0]
            for k in uppers[1:]:
                best = meet[best][k]
            join[i][j] = best
    impl = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            candidates = [k for k in range(n) if leq[meet[k][i]][j]]
            best = candidates[0]
            for k in candidates[1:]:
                best = join[best][k]
            impl[i][j] = best
    return leq, meet, join, impl


def chain(n):
    names = ["c%d" % i for i in range(n)]
    return poset_category(names, [(a, b) for a, b in zip(names, names[1:])])


def cyclic_group(n):
    names = ["e"] + ["a%d" % i for i in range(1, n)]
    table = {
        (names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)
    }
    return monoid_category(names, "e", table)


def map_monoid(maps):
    """Monoid of self-maps of range(k) under composition; maps[0] is the unit."""
    name = {m: "m" + "".join(map(str, m)) for m in maps}
    table = {
        (name[g], name[f]): name[tuple(g[x] for x in f)] for g in maps for f in maps
    }
    return monoid_category([name[m] for m in maps], name[maps[0]], table)


def orbit_quotient():
    """An object d with a Z2 action t and its quotient f: d -> c (f t = f).
    c comes first in the search, and the sieve {f} on c is transitive only
    once d is assigned its maximal sieve."""
    return validate_category(
        ("c", "d"),
        (("id_c", "c", "c"), ("id_d", "d", "d"), ("t", "d", "d"), ("f", "d", "c")),
        {"c": "id_c", "d": "id_d"},
        {("t", "t"): "id_d", ("f", "t"): "f"},
    )


ONE_OBJECT_MONOIDS = [("Z%d" % n, cyclic_group(n)) for n in range(2, 7)] + [
    ("K4", map_monoid([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])),
    ("S3", map_monoid(list(itertools.permutations(range(3))))),
    ("T2", map_monoid([(0, 1), (1, 0), (0, 0), (1, 1)])),
]


def _search_categories():
    out = []
    for site in corpus(seed=0, random_count=4):
        out.append((site.name, site.category))
    out += [("chain4", chain(4)), ("chain5", chain(5))]
    out.append(
        ("2^2", poset_category(("00", "01", "10", "11"), (
            ("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"))))
    )
    for seed in range(16):
        out.append(("poset%d" % seed, random_poset_category(random.Random(seed), 14)))
        out.append(("path%d" % seed, random_path_category(random.Random(seed), 14)))
    out += [("idem", idem()), ("orbit", orbit_quotient())]
    out += ONE_OBJECT_MONOIDS
    seen = []
    for name, cat in out:
        if cat not in seen:
            seen.append(cat)
            yield pytest.param(cat, id=name)


SEARCH_CATEGORIES = list(_search_categories())


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES)
def test_search_matches_the_product_filter(cat):
    got = tuple(J.covering for J in enumerate_topologies(cat).elements)
    assert got == product_filter_topologies(cat)


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES)
def test_sieves_match_the_subset_filter(cat):
    for c in range(len(cat.objects)):
        assert sieve_masks_on(cat, c) == subset_sieves(cat, c)


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES)
def test_lattice_operations_match_eager_tables(cat):
    lat = enumerate_topologies(cat)
    n = len(lat)
    leq, meet, join, impl = eager_tables(lat)
    assert all(leq[lat.bottom][k] and leq[k][lat.top] for k in range(n))
    for i in range(n):
        for j in range(n):
            assert lat.leq(i, j) == leq[i][j]
            assert lat.meet(i, j) == meet[i][j]
            assert lat.join(i, j) == join[i][j]
            assert lat.implication(i, j) == impl[i][j]


# ---------------------------------------------------------------------------
# Sheafification: the restriction tuples on maximal sieves and the verdict
# read off the unit, against the solver and `is_sheaf`.


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES)
def test_sheafify_verdict_and_maximal_families_match_the_solver(
    cat, tmp_path, capsys
):
    """For every topology and three seeded presheaves: the sorted restriction
    tuples that `_plus` takes as the families on each maximal sieve are the
    solver's, and the sheafify command's `already_sheaf` is `is_sheaf`'s
    verdict."""
    rng = random.Random(len(cat.morphisms))
    for i, J in enumerate(lattice(cat).elements):
        presheaves = {"P%d" % k: random_presheaf(cat, rng) for k in range(3)}
        for P in presheaves.values():
            for c in range(len(cat.objects)):
                top = cat.maximal_sieve(c)
                assert tuple(
                    sorted(_restrictions(P, c, tuple(bits(top))))
                ) == matching_families(cat, P, c, top)
        path = str(tmp_path / ("t%d.json" % i))
        save_site(SiteFile("t%d" % i, cat, J, {}, presheaves), path)
        for name, P in presheaves.items():
            assert main(["--format", "json", "sheafify", "--presheaf", name, path]) == 0
            verdict = json.loads(capsys.readouterr().out)["already_sheaf"]
            assert verdict is bool(is_sheaf(cat, J, P))


def test_one_plus_step_need_not_give_a_sheaf():
    """On the poset 2^2 under its topology 6, P+ is not a sheaf and P++ is
    larger than P+, so sheafification cannot stop after one plus."""
    cat = next(p.values[0] for p in SEARCH_CATEGORIES if p.id == "2^2")
    J = lattice(cat).elements[6]
    assert J.minimal == (0, 18, 68, 168)  # 00: {}, 11: all but id_11
    actions = {
        "00->01": (0, 3),
        "00->10": (3, 3, 2),
        "00->11": (3, 3),
        "01->11": (1, 1),
        "10->11": (0, 1),
    }
    sizes = (4, 2, 3, 2)
    P = Presheaf(
        cat,
        sizes,
        tuple(
            tuple(range(sizes[cat.dom[f]])) if cat.is_identity(f) else actions[name]
            for f, name in enumerate(cat.morphisms)
        ),
    )
    once, _ = _plus(cat, J, P)
    sheaf, unit = sheafify(cat, J, P)
    assert once.sizes == (1, 2, 3, 2) and sheaf.sizes == (1, 2, 3, 6)
    assert not is_sheaf(cat, J, once)
    assert is_sheaf(cat, J, sheaf)
    assert not is_sheaf(cat, J, P) and not unit.is_componentwise_bijective()


def fixed_point_generated(cat, families):
    """Covering sets of the smallest topology in which the generated sieves
    cover: close the covering sets under stability and transitivity, over
    every sieve on every object, until nothing changes."""
    n_obj = len(cat.objects)
    cov = [{cat.maximal_sieve(c)} for c in range(n_obj)]
    for c, fams in families.items():
        for fam in fams:
            cov[c].add(generate_mask(cat, fam))
    changed = True
    while changed:
        changed = False
        for c in range(n_obj):
            for S in tuple(cov[c]):
                for h in cat.into(c):
                    pb = pullback_mask(cat, S, h)
                    if pb not in cov[cat.dom[h]]:
                        cov[cat.dom[h]].add(pb)
                        changed = True
        for c in range(n_obj):
            for S in sieve_masks_on(cat, c):
                if S in cov[c]:
                    continue
                if any(
                    all(pullback_mask(cat, S, g) in cov[cat.dom[g]] for g in bits(R))
                    for R in tuple(cov[c])
                ):
                    cov[c].add(S)
                    changed = True
    return tuple(tuple(sorted(masks)) for masks in cov)


def random_families(cat, rng):
    families = {}
    for c in range(len(cat.objects)):
        if rng.random() < 0.6:
            families[c] = [
                [f for f in cat.into(c) if rng.random() < 0.5]
                for _ in range(rng.randrange(1, 3))
            ]
    return families


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES)
def test_generated_topology_matches_the_covering_fixed_point(cat):
    rng = random.Random(repr(cat.morphisms))
    for _ in range(12):
        families = random_families(cat, rng)
        J = generated_topology(cat, families)
        want = fixed_point_generated(cat, families)
        assert J.covering == want
        assert J.minimal == tuple(reduce(and_, masks) for masks in want)
        assert is_topology(cat, J.covering)


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES)
def test_lattice_order_is_the_order_of_covering_tuples(cat):
    elements = list(enumerate_topologies(cat).elements)
    random.Random(repr(cat.morphisms)).shuffle(elements)
    lat = TopologyLattice(cat, elements)
    assert lat.elements == tuple(sorted(elements, key=lambda J: J.covering))


def test_atomic_topology_satisfies_the_axioms():
    ore = [p.values[0] for p in SEARCH_CATEGORIES if has_right_ore(p.values[0])]
    assert len(ore) >= 10
    for cat in ore:
        J = atomic_topology(cat)
        assert is_topology(cat, J.covering)
        assert J.covering == tuple(
            tuple(m for m in sieve_masks_on(cat, c) if m)
            for c in range(len(cat.objects))
        )


# ---------------------------------------------------------------------------
# The closed form against the depth-first search and the fixed point it
# replaced.


def search_minimal(cat):
    """Sorted least-sieve tuples of every topology, by a depth-first search
    over the objects.  It assigns M_c one object at a time, fewest arrows in
    first, cuts a partial assignment at its first failed stability condition
    M_d inside h^*M_c between two assigned objects, and checks transitivity
    at c (M_c generated by f after k, f in M_c, k in M_dom(f)) once every
    domain of an arrow into c is assigned."""
    n_obj = len(cat.objects)
    dom, cod = cat.dom, cat.cod
    sieves = [sieve_masks_on(cat, c) for c in range(n_obj)]
    order = sorted(range(n_obj), key=lambda c: (len(cat.into(c)), c))
    depth_of = {c: depth for depth, c in enumerate(order)}
    arrows = [h for h in range(len(cat.morphisms)) if not cat.is_identity(h)]
    members = [
        {M: tuple(f for f in cat.into(c) if M >> f & 1) for M in sieves[c]}
        for c in range(n_obj)
    ]
    pullback = {
        h: {M: pullback_mask(cat, M, h) for M in sieves[cod[h]]} for h in arrows
    }
    image = [
        {
            M: generate_mask(cat, [cat.compose(f, k) for k in ks])
            for M, ks in members[dom[f]].items()
        }
        for f in range(len(cat.morphisms))
    ]
    stable_at = [[] for _ in order]
    for h in arrows:
        stable_at[max(depth_of[dom[h]], depth_of[cod[h]])].append(h)
    closed_at = [[] for _ in order]
    for c in range(n_obj):
        closed_at[
            max([depth_of[c]] + [depth_of[dom[f]] for f in cat.into(c)])
        ].append(c)

    minimal = [0] * n_obj

    def transitive(c):
        M = minimal[c]
        composites = (image[f][minimal[dom[f]]] for f in members[c][M])
        return reduce(or_, composites, 0) == M

    choice = [-1] * n_obj
    found = []
    depth = 0
    while depth >= 0:
        if depth == n_obj:
            found.append(tuple(minimal))
            depth -= 1
            continue
        c = order[depth]
        choice[depth] += 1
        if choice[depth] == len(sieves[c]):
            choice[depth] = -1
            depth -= 1
            continue
        minimal[c] = sieves[c][choice[depth]]
        if any(
            minimal[dom[h]] & ~pullback[h][minimal[cod[h]]]
            for h in stable_at[depth]
        ):
            continue
        if all(transitive(e) for e in closed_at[depth]):
            depth += 1
    return sorted(found)


def close(cat, minimal):
    """Least covering sieves of the smallest topology in which minimal[c]
    covers c for every object c: shrink the sieves until they are stable and
    transitive.  Both steps are monotone, so the fixed point is the greatest
    such assignment."""
    M = list(minimal)
    changed = True
    while changed:
        changed = False
        for h in range(len(cat.morphisms)):
            d = cat.dom[h]
            S = M[d] & pullback_mask(cat, M[cat.cod[h]], h)
            if S != M[d]:
                M[d] = S
                changed = True
        for c in range(len(M)):
            S = generate_mask(
                cat,
                [cat.compose(f, k) for f in bits(M[c]) for k in bits(M[cat.dom[f]])],
            )
            if S != M[c]:
                M[c] = S
                changed = True
    return tuple(M)


def generated_monoid(k, generators):
    """Submonoid of the self-maps of range(k) generated by the given maps,
    as a list with the unit first."""
    unit = tuple(range(k))
    seen = {unit}
    todo = [unit]
    while todo:
        f = todo.pop()
        for g in generators:
            h = tuple(g[x] for x in f)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return [unit] + sorted(seen - {unit})


ALL_MAPS_3 = list(itertools.product(range(3), repeat=3))


def _monoid_categories(count=30, max_size=24):
    """Seeded submonoids of T_3 and T_4 generated by one to three random
    maps, at most max_size elements each, distinct, with a non-identity
    idempotent (so an unsplit one), plus idem, T2 and T3."""
    out = [
        pytest.param(idem(), id="idem"),
        pytest.param(map_monoid([(0, 1), (1, 0), (0, 0), (1, 1)]), id="T2"),
        pytest.param(
            map_monoid(generated_monoid(3, ALL_MAPS_3)),
            id="T3",
        ),
    ]
    seen = set()
    rng = random.Random("monoids")
    while len(out) < count + 3:
        k = rng.choice((3, 4))
        generators = [
            tuple(rng.randrange(k) for _ in range(k))
            for _ in range(rng.randint(1, 3))
        ]
        maps = generated_monoid(k, generators)
        idempotent = any(tuple(m[x] for x in m) == m for m in maps[1:])
        if len(maps) > max_size or not idempotent or tuple(maps) in seen:
            continue
        seen.add(tuple(maps))
        out.append(pytest.param(map_monoid(maps), id="T%d-sub%d" % (k, len(out) - 3)))
    return out


MONOID_CATEGORIES = _monoid_categories()


def seeded_pairs(n, rng, limit=400):
    if n * n <= limit:
        return [(i, j) for i in range(n) for j in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(limit)]


@pytest.mark.parametrize("cat", SEARCH_CATEGORIES + MONOID_CATEGORIES)
def test_closed_form_matches_the_search_and_the_fixed_point(cat):
    lat = enumerate_topologies(cat)
    assert [J.minimal for J in lat.elements] == search_minimal(cat)
    rng = random.Random(repr(cat.morphisms))
    for _ in range(12):
        families = random_families(cat, rng)
        start = [cat.maximal_sieve(c) for c in range(len(cat.objects))]
        for c, fams in families.items():
            for fam in fams:
                start[c] &= generate_mask(cat, fam)
        assert generated_topology(cat, families).minimal == close(cat, start)
    for i, j in seeded_pairs(len(lat), rng):
        pairs = zip(lat.elements[i].minimal, lat.elements[j].minimal)
        want = close(cat, [a & b for a, b in pairs])
        assert lat.elements[lat.join(i, j)].minimal == want


def test_monoid_cases_have_distinct_mutual_retracts():
    # idempotents e != e' with each a retract (r e s) of the other, such as
    # T2's two constant maps, which the closed form merges into one class
    def retracts(cat, e):
        return {
            cat.compose(cat.compose(r, e), s)
            for r in range(len(cat.morphisms))
            for s in range(len(cat.morphisms))
        }

    merged = 0
    for param in MONOID_CATEGORIES:
        cat = param.values[0]
        idempotents = [f for f in range(len(cat.morphisms)) if cat.compose(f, f) == f]
        below = {e: retracts(cat, e) for e in idempotents}
        merged += any(
            a != b and a in below[b] and b in below[a]
            for a in idempotents
            for b in idempotents
        )
    assert merged >= 10


@pytest.mark.parametrize("cat", MONOID_CATEGORIES)
def test_monoid_lattice_operations_match_eager_tables(cat):
    lat = enumerate_topologies(cat)
    leq, meet, join, impl = eager_tables(lat)
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert lat.join(i, j) == join[i][j]
            assert lat.implication(i, j) == impl[i][j]


# ---------------------------------------------------------------------------
# Presheaves and maps built without law checks, and the subobject paths.


def check_presheaf_laws(P):
    """The functoriality check `Presheaf(...)` runs on outside data: shapes,
    ranges, identities and every composite."""
    cat = P.category
    assert len(P.sizes) == len(cat.objects)
    assert len(P.actions) == len(cat.morphisms)
    for f, tab in enumerate(P.actions):
        assert len(tab) == P.sizes[cat.cod[f]]
        assert all(0 <= x < P.sizes[cat.dom[f]] for x in tab)
    for c in range(len(cat.objects)):
        assert P.actions[cat.identity[c]] == tuple(range(P.sizes[c]))
    for (g, f), h in cat.table.items():
        assert P.actions[h] == tuple(P.actions[f][x] for x in P.actions[g])


def check_natural(t):
    """The naturality check `NatTransformation(...)` runs on outside data."""
    P, Q = t.source, t.target
    cat = P.category
    check_presheaf_laws(P)
    check_presheaf_laws(Q)
    assert len(t.components) == len(cat.objects)
    for c, comp in enumerate(t.components):
        assert len(comp) == P.sizes[c]
        assert all(0 <= y < Q.sizes[c] for y in comp)
    for f in range(len(cat.morphisms)):
        a, b = cat.dom[f], cat.cod[f]
        for x in range(P.sizes[b]):
            assert Q.actions[f][t.components[b][x]] == t.components[a][P.actions[f][x]]


def derived(cat, J, P, Q):
    """Every presheaf and map the library builds unchecked, from P and Q."""
    maps = []
    for c in range(len(cat.objects)):
        yield yoneda(cat, c)
        yield representable_sheaf(cat, J, c)
    yield terminal_presheaf(cat)
    R, m1, m2 = product_presheaf(P, Q)
    yield R
    maps += [m1, m2]
    for A, B in ((P, Q), (Q, P), (P, P)):
        homs = presheaf_homs(A, B)
        maps += homs[:4]
        for s in homs[:3]:
            for t in homs[:3]:
                W, incl = equalizer_presheaf(s, t)
                yield W
                maps.append(incl)
        for t in homs[:3]:
            W, p1, p2 = kernel_pair(t)
            yield W
            maps += [p1, p2, compose_nat(t, p1)]
    for s in presheaf_homs(P, Q)[:3]:
        for t in presheaf_homs(Q, Q)[:3]:
            W, p1, p2 = pullback_presheaf(s, t)
            yield W
            maps += [p1, p2]
    plus, unit = _plus(cat, J, P)
    F, unit2 = sheafify(cat, J, P)
    yield plus
    yield F
    maps += [unit, unit2]
    yield from maps


def law_categories():
    out = []
    for site in corpus(seed=0, random_count=4):
        if site.category not in [c for c, _ in out]:
            out.append((site.category, site.topology))
    for maps in (
        [(0, 1), (1, 0), (0, 0), (1, 1)],
        list(itertools.permutations(range(3))),
    ):
        cat = map_monoid(maps)
        out.append((cat, trivial_topology(cat)))
    cat = cyclic_group(16)
    out.append((cat, maximal_topology(cat)))
    return out


def test_derived_presheaves_and_maps_obey_the_laws():
    checked = 0
    for k, (cat, J) in enumerate(law_categories()):
        rng = random.Random(k)
        for _ in range(3):
            P = random_presheaf(cat, rng)
            Q = random_presheaf(cat, rng)
            for item in derived(cat, J, P, Q):
                if isinstance(item, NatTransformation):
                    check_natural(item)
                else:
                    check_presheaf_laws(item)
                checked += 1
    assert checked >= 3000


def test_restrictions_to_dense_subcategories_obey_the_laws():
    checked = 0
    for site in corpus(seed=0, random_count=4):
        cat, J = site.category, site.topology
        for sub in site.subcategories.values():
            if not is_dense(cat, J, sub):
                continue
            functors = comparison_functors(cat, J, sub)
            for c in range(len(cat.objects)):
                check_presheaf_laws(functors.restrict(representable_sheaf(cat, J, c)))
                checked += 1
    assert checked >= 10


def action_close(cat, A, masks):
    """The least subpresheaf holding the selection: every arrow is walked
    over the selected elements until nothing changes."""
    masks = list(masks)
    changed = True
    while changed:
        changed = False
        for f in range(len(cat.morphisms)):
            a, b = cat.dom[f], cat.cod[f]
            for x in bits(masks[b]):
                y = A.actions[f][x]
                if not masks[a] >> y & 1:
                    masks[a] |= 1 << y
                    changed = True
    return masks


def walk_closed_hull(cat, J, A, masks):
    """Action closure, then one local step over every element and every
    arrow of M_c, repeated until the local step adds nothing."""
    masks = list(masks)
    while True:
        masks = action_close(cat, A, masks)
        changed = False
        for c in range(len(cat.objects)):
            for x in range(A.sizes[c]):
                if masks[c] >> x & 1:
                    continue
                if all(
                    masks[cat.dom[f]] >> A.actions[f][x] & 1
                    for f in bits(J.minimal[c])
                ):
                    masks[c] |= 1 << x
                    changed = True
        if not changed:
            return tuple(masks)


def walk_subobjects(cat, J, A):
    """Sorted closed sets of walk_closed_hull, grown one element at a time."""
    bottom = walk_closed_hull(cat, J, A, (0,) * len(A.sizes))
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        current = frontier.pop()
        for c in range(len(cat.objects)):
            for x in range(A.sizes[c]):
                if not current[c] >> x & 1:
                    grown = list(current)
                    grown[c] |= 1 << x
                    new = walk_closed_hull(cat, J, A, grown)
                    if new not in seen:
                        seen.add(new)
                        frontier.append(new)
    return tuple(sorted(seen))


def pairwise_indecomposable(lat):
    """Nonzero, and no pair x, y with meet zero and join A besides {0, A}."""
    zero, top = lat.zero, lat.top
    if zero == top:
        return False
    for x in lat.elements:
        for y in lat.elements:
            if lat.meet(x, y) == zero and lat.join(x, y) == top:
                if not {x, y} <= {zero, top}:
                    return False
    return True


def brute_product(P, Q):
    """P x Q on every pair, in lexicographic order, with its projections,
    through the checked constructors."""
    cat = P.category
    pairs = [
        list(itertools.product(range(P.sizes[c]), range(Q.sizes[c])))
        for c in range(len(cat.objects))
    ]
    pos = [{p: i for i, p in enumerate(ps)} for ps in pairs]
    actions = tuple(
        tuple(
            pos[cat.dom[f]][P.actions[f][x], Q.actions[f][y]]
            for x, y in pairs[cat.cod[f]]
        )
        for f in range(len(cat.morphisms))
    )
    R = Presheaf(cat, tuple(map(len, pairs)), actions)
    p1 = NatTransformation(R, P, tuple(tuple(x for x, _ in ps) for ps in pairs))
    p2 = NatTransformation(R, Q, tuple(tuple(y for _, y in ps) for ps in pairs))
    return R, p1, p2


def disjoint_union(P, Q):
    """P + Q with P's elements first, through the checked constructor."""
    cat = P.category
    actions = tuple(
        tuple(P.actions[f]) + tuple(P.sizes[cat.dom[f]] + y for y in Q.actions[f])
        for f in range(len(cat.morphisms))
    )
    return Presheaf(cat, tuple(p + q for p, q in zip(P.sizes, Q.sizes)), actions)


def product_equalizer_pullback(s, t):
    """Pullback as the equalizer of s p1 and t p2 inside the brute-force
    product P x Q."""
    R, p1, p2 = brute_product(s.source, t.source)
    W, incl = equalizer_presheaf(compose_nat(s, p1), compose_nat(t, p2))
    return W, compose_nat(p1, incl), compose_nat(p2, incl)


def test_subobject_paths_match_the_walks_on_representable_sheaves():
    lattices = 0
    for cat, J, rng in cases():
        reps = [representable_sheaf(cat, J, c) for c in range(len(cat.objects))]
        for A in reps + [terminal_presheaf(cat)]:
            lat = subobjects(cat, J, A)
            assert lat.elements == walk_subobjects(cat, J, A)
            assert is_atom(cat, J, A) == (len(lat) == 2)
            assert is_indecomposable(cat, J, A) == pairwise_indecomposable(lat)
            for c in range(len(cat.objects)):
                for x in range(A.sizes[c]):
                    seed = [0] * len(A.sizes)
                    seed[c] = 1 << x
                    assert closed_hull(cat, J, A, seed) == walk_closed_hull(
                        cat, J, A, seed
                    )
            for _ in range(3):
                seed = tuple(rng.randrange(1 << n) for n in A.sizes)
                assert closed_hull(cat, J, A, seed) == walk_closed_hull(
                    cat, J, A, seed
                )
            lattices += 1
        for A in reps:
            for B in reps:
                homs = presheaf_homs(A, B)
                for s in homs:
                    assert kernel_pair(s) == product_equalizer_pullback(s, s)
                for s in homs[:3]:
                    for t in presheaf_homs(B, B)[:3]:
                        assert pullback_presheaf(s, t) == product_equalizer_pullback(
                            s, t
                        )
    assert lattices >= 300


def test_atoms_and_indecomposables_of_random_sheaves_match_the_walks():
    """The public predicates, decided on A|E_D, against the closed sets of
    the walk on sheafified random presheaves under every topology."""
    seen = Counter()
    for cat, J, rng in cases():
        for _ in range(3):
            A, _ = sheafify(cat, J, random_presheaf(cat, rng))
            lat = SubobjectLattice(cat, J, A, walk_subobjects(cat, J, A))
            atom = is_atom(cat, J, A)
            assert atom == (len(lat) == 2)
            indecomposable = is_indecomposable(cat, J, A)
            assert indecomposable == pairwise_indecomposable(lat)
            seen["atom", atom] += 1
            seen["indecomposable", indecomposable] += 1
    assert seen["atom", True] >= 30 and seen["atom", False] >= 200, seen
    assert seen["indecomposable", True] >= 80, seen
    assert seen["indecomposable", False] >= 100, seen


def test_hulls_and_lattices_on_monoid_sites_match_the_scans():
    """Under every topology of the monoid categories, whose E_D may put
    several idempotents on the one object: closed hulls in random
    presheaves, sheaves or not, against the covering scan, and the
    subobjects of the representable and terminal sheaves against the
    walk."""
    seen = Counter()
    for param in MONOID_CATEGORIES:
        cat = param.values[0]
        for i, J in enumerate(lattice(cat).elements):
            rng = random.Random("%s/%d" % (param.id, i))
            several = len(presheaf_site(cat, J).objects) > 1
            seen["several idempotents"] += several
            for _ in range(4):
                A = random_presheaf(cat, rng)
                sheaf = bool(is_sheaf(cat, J, A))
                for _ in range(8):
                    seed = tuple(rng.randrange(1 << n) for n in A.sizes)
                    assert closed_hull(cat, J, A, seed) == scan_closed_hull(
                        cat, J, A, seed
                    )
                    seen["hulls"] += 1
                    seen["hulls on several", sheaf] += several
            if small_first_plus(cat, J):
                for A in (representable_sheaf(cat, J, 0), terminal_presheaf(cat)):
                    lat = subobjects(cat, J, A)
                    assert lat.elements == walk_subobjects(cat, J, A)
                    seen["lattices"] += 1
                    seen["lattices on several"] += several
    assert seen["several idempotents"] == 66, seen
    assert seen["hulls on several", True] >= 2000, seen
    assert seen["hulls on several", False] >= 8, seen
    assert seen["lattices on several"] >= 120, seen


def split_retract(cat, e):
    """y(c).e for an idempotent e on c: the x: d -> c with e.x = x, acting
    by precomposition."""
    c = cat.dom[e]
    values = [
        [x for x in cat.hom(d, c) if cat.compose(e, x) == x]
        for d in range(len(cat.objects))
    ]
    index = [{x: i for i, x in enumerate(v)} for v in values]
    return Presheaf(
        cat,
        tuple(map(len, values)),
        tuple(
            tuple(index[cat.dom[u]][cat.compose(x, u)] for x in values[cat.cod[u]])
            for u in range(len(cat.morphisms))
        ),
    )


def test_indecomposable_projectives_match_the_retraction_search():
    """On E_D against every section and retraction through a representable:
    representables, random presheaves, and the retract y(c).e of each
    non-identity idempotent e, which is one; its double, decomposable, is
    not."""
    seen = Counter()
    for param in SEARCH_CATEGORIES + MONOID_CATEGORIES:
        cat = param.values[0]
        J = trivial_topology(cat)
        rng = random.Random(repr(cat.morphisms))
        samples = [yoneda(cat, c) for c in range(len(cat.objects))]
        samples += [random_presheaf(cat, rng) for _ in range(4)]
        for P in samples:
            verdict = is_indecomposable_projective(cat, J, P)
            assert verdict == retract_of_representable(cat, P), param.id
            seen[verdict] += 1
        for e in range(len(cat.morphisms)):
            if cat.table.get((e, e)) != e or cat.is_identity(e):
                continue
            P = split_retract(cat, e)
            PP = disjoint_union(P, P)
            assert is_indecomposable_projective(cat, J, P), (param.id, e)
            assert retract_of_representable(cat, P), (param.id, e)
            # a retract of a representable is indecomposable
            assert not is_indecomposable_projective(cat, J, PP), (param.id, e)
            assert not is_indecomposable(cat, J, PP), (param.id, e)
            seen["retracts"] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen
    assert seen["retracts"] == 121, seen


def test_pullbacks_of_random_maps_match_the_product_equalizer():
    for k, (cat, J) in enumerate(law_categories()):
        rng = random.Random(k)
        for _ in range(4):
            P, Q, R = (random_presheaf(cat, rng) for _ in range(3))
            assert product_presheaf(P, Q) == brute_product(P, Q)
            for s in presheaf_homs(P, R)[:4]:
                for t in presheaf_homs(Q, R)[:4]:
                    assert pullback_presheaf(s, t) == product_equalizer_pullback(s, t)


# ---------------------------------------------------------------------------
# Site facts: the right Ore condition square by square, the topology
# axioms scanned literally, and the category laws over all pairs of arrows.


def scan_has_right_ore(cat):
    for f in range(len(cat.morphisms)):
        for g in range(len(cat.morphisms)):
            if cat.cod[f] != cat.cod[g]:
                continue
            square = any(
                cat.compose(f, p) == cat.compose(g, q)
                for w in range(len(cat.objects))
                for p in cat.hom(w, cat.dom[f])
                for q in cat.hom(w, cat.dom[g])
            )
            if not square:
                return OreReport(False, (cat.morphisms[f], cat.morphisms[g]))
    return OreReport(True)


def boolean_lattice(k):
    names = ["".join(bits_) for bits_ in itertools.product("01", repeat=k)]
    return poset_category(
        names,
        [(a, b) for a in names for b in names
         if sum(x != y for x, y in zip(a, b)) == 1 and a < b],
    )


def codiscrete(k):
    """k isomorphic objects, one arrow between any two."""
    names = ["o%d" % i for i in range(k)]
    arrow = {(a, b): "%s->%s" % (a, b) for a in names for b in names}
    return validate_category(
        names,
        [(m, a, b) for (a, b), m in arrow.items()],
        {a: arrow[(a, a)] for a in names},
        {(arrow[(b, c)], arrow[(a, b)]): arrow[(a, c)]
         for a in names for b in names for c in names},
    )


def with_terminal(monoid):
    """A one-object category with a terminal object t added: one arrow !
    from its object to t, with ! m = ! for every m."""
    names = monoid.morphisms
    star = monoid.objects[0]
    composites = {(names[g], names[f]): names[h] for (g, f), h in monoid.table.items()}
    composites.update({("!", m): "!" for m in names})
    return validate_category(
        (star, "t"),
        [(m, star, star) for m in names] + [("!", star, "t"), ("id_t", "t", "t")],
        {star: names[monoid.identity[0]], "t": "id_t"},
        composites,
    )


ORE_CATEGORIES = SEARCH_CATEGORIES + MONOID_CATEGORIES + [
    pytest.param(chain(6), id="chain6"),
    pytest.param(boolean_lattice(3), id="2^3"),
    pytest.param(codiscrete(3), id="codiscrete3"),
    pytest.param(with_terminal(cyclic_group(3)), id="Z3+t"),
    pytest.param(
        with_terminal(map_monoid([(0, 1), (1, 0), (0, 0), (1, 1)])), id="T2+t"
    ),
]


@pytest.mark.parametrize("cat", ORE_CATEGORIES)
def test_right_ore_matches_the_square_search(cat):
    assert has_right_ore(cat) == scan_has_right_ore(cat)


def scan_is_topology(cat, covering):
    """Literal axiom scan: sieves, then maximality, stability and
    transitivity over every sieve, each in the library's order."""
    cov = [sorted(set(masks)) for masks in covering]
    sets = [set(masks) for masks in cov]
    for c, masks in enumerate(cov):
        for S in masks:
            if S & ~cat.maximal_sieve(c) or not is_right_closed(cat, S):
                return TopologyVerdict(False, "sieve", (c, S))
    for c in range(len(cov)):
        if cat.maximal_sieve(c) not in sets[c]:
            return TopologyVerdict(False, "maximality", (c,))
    for c, masks in enumerate(cov):
        for S in masks:
            for h in cat.into(c):
                if pullback_mask(cat, S, h) not in sets[cat.dom[h]]:
                    return TopologyVerdict(False, "stability", (c, S, h))
    for c, masks in enumerate(cov):
        for R in masks:
            for S in sieve_masks_on(cat, c):
                if S not in sets[c] and all(
                    pullback_mask(cat, S, g) in sets[cat.dom[g]] for g in bits(R)
                ):
                    return TopologyVerdict(False, "transitivity", (c, R, S))
    return TopologyVerdict(True)


def assignments(cat, maximal):
    """Every choice of a set of sieves per object; with maximal set, only
    the sets holding the maximal sieve."""
    per_object = []
    for c in range(len(cat.objects)):
        top = cat.maximal_sieve(c)
        sieves = [S for S in sieve_masks_on(cat, c) if not maximal or S != top]
        per_object.append(
            [
                tuple(S for k, S in enumerate(sieves) if chosen >> k & 1)
                + ((top,) if maximal else ())
                for chosen in range(1 << len(sieves))
            ]
        )
    return itertools.product(*per_object)


def assignment_cases(limit=1 << 11):
    """Each small search category with every assignment, or, where those are
    more than limit, every assignment holding the maximal sieves."""
    out = []
    for param in SEARCH_CATEGORIES:
        cat = param.values[0]
        free = sum(len(sieve_masks_on(cat, c)) for c in range(len(cat.objects)))
        for maximal in (False, True):
            if 1 << (free - maximal * len(cat.objects)) <= limit:
                out.append(pytest.param(cat, maximal, id=param.id))
                break
    return out


ASSIGNMENT_CASES = assignment_cases()


def test_assignment_cases_are_many():
    assert len(ASSIGNMENT_CASES) >= 35
    assert sum(p.values[1] for p in ASSIGNMENT_CASES) >= 5


@pytest.mark.parametrize("cat, maximal", ASSIGNMENT_CASES)
def test_least_sieve_verdict_matches_the_axiom_scans(cat, maximal):
    valid = 0
    for covering in assignments(cat, maximal):
        want = scan_is_topology(cat, covering)
        assert is_topology(cat, covering) == want
        least = _least_if_topology(cat, [set(m) for m in covering])
        assert (least is not None) == bool(want)
        assert bool(want) == naive_is_topology(cat, covering)
        valid += bool(want)
        # topology() checks its own sorted lists: the same verdict and
        # witness on the lists reversed, each with its first mask repeated
        listed = [list(masks[::-1]) + list(masks[:1]) for masks in covering]
        if want:
            got = topology(cat, listed).covering
            assert got == tuple(tuple(sorted(set(masks))) for masks in covering)
        else:
            with pytest.raises(TopologyAxiomViolation) as err:
                topology(cat, listed)
            assert (err.value.axiom, err.value.witness) == (want.axiom, want.witness)
    assert valid == len(enumerate_topologies(cat))


def scan_category_laws(names, dom, cod, table):
    """The first missing composite or associativity failure, over all pairs
    and triples of arrows filtered by cod == dom, as (law, witnesses)."""
    n = len(names)
    for f in range(n):
        for g in range(n):
            if cod[f] == dom[g] and (g, f) not in table:
                return ("UndefinedComposite", (names[g], names[f]))
    for f in range(n):
        for g in range(n):
            if cod[f] != dom[g]:
                continue
            for h in range(n):
                if cod[g] == dom[h] and (
                    table[(h, table[(g, f)])] != table[(table[(h, g)], f)]
                ):
                    return ("NonAssociative", (names[h], names[g], names[f]))
    return None


def law_verdict(cat, table):
    """`validate_category` on the data of cat with the given table, as
    (law, witnesses) of the error it raises, or None."""
    names = cat.morphisms
    try:
        validate_category(
            cat.objects,
            [(m, cat.objects[cat.dom[k]], cat.objects[cat.cod[k]])
             for k, m in enumerate(names)],
            {cat.objects[c]: names[cat.identity[c]]
             for c in range(len(cat.objects))},
            {(names[a], names[b]): names[h] for (a, b), h in table.items()},
        )
    except CategoryLawError as exc:
        return (type(exc).__name__, exc.witnesses)
    return None


def law_cases(rng):
    """(category, table): each search and monoid category with one entry
    dropped or changed, six times over, and one-object magmas with identity:
    the monoids Z2..Z6, K4, S3 and T2 as they are, and twelve times each
    with one to three non-identity entries dropped or changed at random."""
    for param in SEARCH_CATEGORIES + MONOID_CATEGORIES:
        cat = param.values[0]
        pairs = [
            (g, f) for (g, f) in cat.table
            if not (cat.is_identity(g) or cat.is_identity(f))
        ]
        for _ in range(6 if pairs else 0):
            table = dict(cat.table)
            g, f = rng.choice(pairs)
            if rng.random() < 0.3:
                del table[(g, f)]
            else:
                table[(g, f)] = rng.choice(cat.hom(cat.dom[f], cat.cod[g]))
            yield cat, table
    for _, cat in ONE_OBJECT_MONOIDS:
        yield cat, cat.table
        n = len(cat.morphisms)
        pairs = [(g, f) for g in range(1, n) for f in range(1, n)]
        for _ in range(12 if 3 <= n <= 6 else 0):
            table = dict(cat.table)
            for key in rng.sample(pairs, rng.randint(1, 3)):
                if rng.random() < 0.3:
                    del table[key]
                else:
                    table[key] = rng.randrange(n)
            yield cat, table


def test_category_law_witnesses_match_the_scan_over_all_pairs():
    """Totality by count and associativity on thin categories and by Light's
    test give the verdict and witness of the scan over all pairs."""
    broken = Counter()
    for cat, table in law_cases(random.Random("laws")):
        want = scan_category_laws(cat.morphisms, cat.dom, cat.cod, table)
        assert law_verdict(cat, table) == want
        if want:
            broken[want[0], is_thin(cat)] += 1
    # a thin category has one well-typed table, which is associative
    assert broken["UndefinedComposite", True] >= 10
    assert broken["UndefinedComposite", False] >= 10
    assert broken["NonAssociative", False] >= 10


# ---------------------------------------------------------------------------
# Supercompactness as the join of proper principal subobjects, and the
# regular probe with a kernel pair for every map.


def join_is_supercompact(cat, J, A):
    """A is not the join of its proper subobjects: every subobject is the
    join of principal ones, so join all proper principal subobjects."""
    top = tuple((1 << n) - 1 for n in A.sizes)
    union = [0] * len(A.sizes)
    for c in range(len(cat.objects)):
        for x in range(A.sizes[c]):
            seed = [0] * len(A.sizes)
            seed[c] = 1 << x
            principal = closed_hull(cat, J, A, seed)
            if principal != top:
                for b, m in enumerate(principal):
                    union[b] |= m
    return closed_hull(cat, J, A, union) != top


def every_probe_is_regular(cat, J, c):
    """rep_is_regular with a kernel pair for every probe, monic or not."""
    if not rep_is_supercompact(cat, J, c):
        return ProbeVerdict(False, False, witness=("supercompact", cat.objects[c]))
    target = representable_sheaf(cat, J, c)
    for d in range(len(cat.objects)):
        if not rep_is_supercompact(cat, J, d):
            continue
        for t in presheaf_homs(representable_sheaf(cat, J, d), target):
            W, _, _ = kernel_pair(t)
            if not join_is_supercompact(cat, J, W):
                return ProbeVerdict(
                    False, False, witness=("kernel-pair", cat.objects[d])
                )
    return ProbeVerdict(True, False)


def is_bijective(t):
    return all(sorted(comp) == list(range(n)) for comp, n in zip(
        t.components, t.target.sizes
    ))


def probe_cases():
    """(category, topology, rng) for every topology of the search and monoid
    categories, except the four whose first plus of a representable has more
    than 27 elements (64 to 4,096, on three submonoids of T_4): the kernel
    pairs of their probes would be too large to search."""
    for param in SEARCH_CATEGORIES + MONOID_CATEGORIES:
        cat = param.values[0]
        rng = random.Random(repr(cat.morphisms))
        for J in enumerate_topologies(cat).elements:
            if all(
                sum(_plus(cat, J, yoneda(cat, c))[0].sizes) <= 27
                for c in range(len(cat.objects))
            ):
                yield cat, J, rng


def test_one_generator_and_monic_probes_match_the_join_and_every_kernel_pair():
    counts = Counter()
    for cat, J, rng in probe_cases():
        reps = [representable_sheaf(cat, J, c) for c in range(len(cat.objects))]
        sheaves = reps + [terminal_presheaf(cat)] + [
            sheafify(cat, J, random_presheaf(cat, rng))[0] for _ in range(2)
        ]
        for A in sheaves:
            got = is_supercompact_object(cat, J, A)
            assert got == join_is_supercompact(cat, J, A)
            counts[got] += 1
        joins = {}  # every monic probe out of l(d) has the same kernel pair
        for c, target in enumerate(reps):
            assert rep_is_supercompact(cat, J, c) == join_is_supercompact(
                cat, J, target
            )
            verdict = rep_is_regular(cat, J, c)
            assert verdict == every_probe_is_regular(cat, J, c)
            counts[verdict.witness and verdict.witness[0]] += 1
            for source in reps:
                for t in presheaf_homs(source, target):
                    W, p1, p2 = kernel_pair(t)
                    key = W.sizes, W.actions
                    if key not in joins:
                        joins[key] = join_is_supercompact(cat, J, W)
                    # a kernel pair is a sheaf, so the probe skips the check
                    got = _properties(restrict(cat, J, W))["supercompact"]
                    assert got == joins[key]
                    if all(len(set(comp)) == len(comp) for comp in t.components):
                        assert is_bijective(p1) and is_bijective(p2)
                        counts["monic"] += 1
                    else:
                        counts["not monic", got] += 1
        counts["topologies"] += 1
    assert counts["topologies"] == 480
    assert counts["kernel-pair"] >= 40 and counts["supercompact"] >= 400
    assert counts["monic"] >= 3000 and counts["not monic", False] >= 500
    assert counts[True] >= 1000 and counts[False] >= 1000


def test_cauchy_complete_categories_are_rigid_under_every_topology():
    """The branch of `presheaf_type_test` for a non-rigid site whose
    hypotheses hold cannot be reached: a Cauchy-complete site is rigid."""
    seen = Counter()
    for param in ORE_CATEGORIES:
        cat = param.values[0]
        cauchy = bool(is_cauchy_complete(cat))
        for J in enumerate_topologies(cat).elements:
            rigid = bool(is_rigid(cat, J))
            assert rigid or not cauchy
            seen[cauchy, rigid] += 1
    assert seen[True, True] >= 600 and seen[False, False] >= 50


# ---------------------------------------------------------------------------
# The site classes the long way: the finite-limit search over every
# candidate cone, every idempotent split or not, a representable built for
# every object, and every covering sieve scanned for its witness.


def scan_is_cartesian(category):
    n_obj = len(category.objects)
    terminal = None
    for t in range(n_obj):
        if all(len(category.hom(c, t)) == 1 for c in range(n_obj)):
            terminal = t
            break
    if terminal is None:
        return CartesianReport(False, failure=("terminal",))

    products = {}
    for a in range(n_obj):
        for b in range(n_obj):
            found = None
            for p in range(n_obj):
                for p1 in category.hom(p, a):
                    for p2 in category.hom(p, b):
                        if _is_product(category, a, b, p, p1, p2):
                            found = (p, p1, p2)
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                return CartesianReport(
                    False,
                    terminal=terminal,
                    failure=("product", category.objects[a], category.objects[b]),
                )
            products[(a, b)] = found

    equalizers = {}
    for f in range(len(category.morphisms)):
        for g in range(len(category.morphisms)):
            if category.dom[f] != category.dom[g] or category.cod[f] != category.cod[g]:
                continue
            a = category.dom[f]
            found = None
            for e in range(n_obj):
                for i in category.hom(e, a):
                    if category.compose(f, i) != category.compose(g, i):
                        continue
                    if _is_equalizer(category, f, g, e, i):
                        found = (e, i)
                        break
                if found:
                    break
            if found is None:
                return CartesianReport(
                    False,
                    terminal=terminal,
                    failure=(
                        "equalizer",
                        category.morphisms[f],
                        category.morphisms[g],
                    ),
                )
            equalizers[(f, g)] = found

    return CartesianReport(True, terminal, products, equalizers)


def _is_product(category, a, b, p, p1, p2):
    for c in range(len(category.objects)):
        for f in category.hom(c, a):
            for g in category.hom(c, b):
                count = 0
                for h in category.hom(c, p):
                    if category.compose(p1, h) == f and category.compose(p2, h) == g:
                        count += 1
                if count != 1:
                    return False
    return True


def _is_equalizer(category, f, g, e, i):
    for c in range(len(category.objects)):
        for h in category.hom(c, category.dom[f]):
            if category.compose(f, h) != category.compose(g, h):
                continue
            count = 0
            for k in category.hom(c, e):
                if category.compose(i, k) == h:
                    count += 1
            if count != 1:
                return False
    return True


def scan_is_cauchy_complete(category):
    for e in range(len(category.morphisms)):
        c = category.dom[e]
        if category.cod[e] != c or category.compose(e, e) != e:
            continue
        if not _splits(category, e, c):
            return CauchyReport(False, category.morphisms[e])
    return CauchyReport(True)


def scan_is_subcanonical(category, J):
    for c in range(len(category.objects)):
        if not is_sheaf(category, J, yoneda(category, c)):
            return SubcanonicalVerdict(False, category.objects[c])
    return SubcanonicalVerdict(True)


def scan_is_locally_connected_site(category, J):
    for c in range(len(category.objects)):
        for S in J.covering_masks(c):
            if not is_sieve_connected(category, S):
                return SiteVerdict(
                    False,
                    (
                        category.objects[c],
                        sorted(category.morphisms[f] for f in bits(S)),
                    ),
                )
    return SiteVerdict(True)


def scan_is_regular_site(category, J):
    cart = scan_is_cartesian(category)
    strict = True
    witness = None
    for c in range(len(category.objects)):
        for S in J.covering_masks(c):
            if not any(
                category.principal_sieve(f) == S for f in bits(S)
            ):
                strict = False
                witness = (
                    category.objects[c],
                    sorted(category.morphisms[f] for f in bits(S)),
                )
                break
        if not strict:
            break
    variant = all(
        rep_is_supercompact(category, J, c)
        for c in range(len(category.objects))
    )
    return RegularSiteVerdict(bool(cart), strict, variant, witness)


def product_category(left, right):
    """The product category: pairs of objects and of arrows, composed
    componentwise."""
    def name(pair, names):
        return "(%s,%s)" % (names[0][pair[0]], names[1][pair[1]])

    objs = (left.objects, right.objects)
    mors = (left.morphisms, right.morphisms)
    arrows = list(itertools.product(range(len(left.morphisms)), range(len(right.morphisms))))
    return validate_category(
        [name(o, objs) for o in itertools.product(*map(range, map(len, objs)))],
        [
            (
                name(m, mors),
                name((left.dom[m[0]], right.dom[m[1]]), objs),
                name((left.cod[m[0]], right.cod[m[1]]), objs),
            )
            for m in arrows
        ],
        {
            name(o, objs): name((left.identity[o[0]], right.identity[o[1]]), mors)
            for o in itertools.product(*map(range, map(len, objs)))
        },
        {
            (name(g, mors), name(f, mors)): name(
                (left.compose(g[0], f[0]), right.compose(g[1], f[1])), mors
            )
            for g in arrows
            for f in arrows
            if left.cod[f[0]] == left.dom[g[0]] and right.cod[f[1]] == right.dom[g[1]]
        },
    )


def reversed_lists(cat):
    """The same category with its objects and its arrows listed in reverse
    order: arrows run into earlier objects, and identities come last."""
    names = cat.morphisms
    return validate_category(
        cat.objects[::-1],
        [
            (names[f], cat.objects[cat.dom[f]], cat.objects[cat.cod[f]])
            for f in reversed(range(len(names)))
        ],
        {cat.objects[c]: names[cat.identity[c]] for c in range(len(cat.objects))},
        {(names[g], names[f]): names[h] for (g, f), h in cat.table.items()},
    )


def fake_square():
    """Objects a, q and a terminal t with |hom(c, q)| = |hom(c, a)|^2 for
    every c, where q is no product of a with itself.  The endomorphisms
    1, s, k0, k1 of q act on hom(q, a) = {v0, v1} as the four self-maps of
    a 2-set, so (v0, v1) is jointly injective on hom(q, q); but every arrow
    v.u with u: a -> q is z, so no pair is jointly injective on hom(a, q)."""
    maps = {"1_q": (0, 1), "s": (1, 0), "k0": (0, 0), "k1": (1, 1)}
    name = {m: n for n, m in maps.items()}
    us, vs = ["u0", "u1", "u2", "u3"], ["v0", "v1"]
    arrows = (
        [("1_a", "a", "a"), ("z", "a", "a"), ("!a", "a", "t"), ("!q", "q", "t")]
        + [(u, "a", "q") for u in us]
        + [(v, "q", "a") for v in vs]
        + [(h, "q", "q") for h in maps]
        + [("1_t", "t", "t")]
    )
    composites = {("z", "z"): "z"}
    for h, hm in maps.items():
        for v in vs:
            composites[(v, h)] = vs[hm[int(v[1])]]
        for g, gm in maps.items():
            composites[(g, h)] = name[tuple(hm[gm[i]] for i in range(2))]
        composites.update({(h, u): u if h in ("1_q", "s") else "u0" for u in us})
    for u in us:
        composites[(u, "z")] = "u0"
        composites[("!q", u)] = "!a"
        for v in vs:
            composites[(v, u)] = "z"
            composites[(u, v)] = "k" + v[1]
    for v in vs:
        composites[("z", v)] = v
        composites[("!a", v)] = "!q"
    for h in maps:
        composites[("!q", h)] = "!q"
    composites[("!a", "z")] = "!a"
    return validate_category(
        "aqt", arrows, {"a": "1_a", "q": "1_q", "t": "1_t"}, composites
    )


def _class_categories():
    """The search, monoid and Ore categories, products of small ones, each
    monoid with a terminal object added, and the categories of seeded random
    sites, each once and each also with its lists reversed."""
    out = []
    for param in ORE_CATEGORIES:
        out.append((param.id, param.values[0]))
    t2 = map_monoid([(0, 1), (1, 0), (0, 0), (1, 1)])
    out += [
        ("chain2 x chain3", product_category(chain(2), chain(3))),
        ("2^2 x chain2", product_category(boolean_lattice(2), chain(2))),
        ("codiscrete2 x chain2", product_category(codiscrete(2), chain(2))),
        ("codiscrete2 x codiscrete2", product_category(codiscrete(2), codiscrete(2))),
        ("Z2+t x chain2", product_category(with_terminal(cyclic_group(2)), chain(2))),
        ("T2+t x codiscrete2", product_category(with_terminal(t2), codiscrete(2))),
        ("idem+t x idem+t", product_category(with_terminal(idem()), with_terminal(idem()))),
        ("fake square", fake_square()),
    ]
    for param in MONOID_CATEGORIES:
        out.append((param.id + "+t", with_terminal(param.values[0])))
    for seed in range(64):
        for site in random_sites(seed, 16):
            out.append((site.name, site.category))
    seen = []
    for name, cat in out + [(name + " reversed", reversed_lists(cat)) for name, cat in out]:
        if cat not in seen:
            seen.append(cat)
            yield name, cat


CLASS_CATEGORIES = list(_class_categories())


def test_site_classes_match_the_scans_under_every_topology():
    counts = Counter()
    for name, cat in CLASS_CATEGORIES:
        cart = _is_cartesian(cat)
        assert cart == scan_is_cartesian(cat), name
        assert _is_cauchy_complete(cat) == scan_is_cauchy_complete(cat), name
        counts["cartesian", cart.failure and cart.failure[0]] += 1
        for J in enumerate_topologies(cat).elements:
            lc = is_locally_connected_site(cat, J)
            assert lc == scan_is_locally_connected_site(cat, J), name
            regular = is_regular_site(cat, J)
            assert regular == scan_is_regular_site(cat, J), name
            sub = _is_subcanonical(cat, J)
            assert sub == scan_is_subcanonical(cat, J), name
            counts["locally connected", bool(lc)] += 1
            counts["strict", regular.strict] += 1
            counts["subcanonical", bool(sub)] += 1
    assert counts["cartesian", None] >= 15 and counts["cartesian", "product"] >= 40
    for key in ("locally connected", "strict", "subcanonical"):
        assert counts[key, True] >= 300 and counts[key, False] >= 300


def zigzag_connected(cat, arrows):
    """Breadth-first search over the arrows, f joined to each f.g among
    them and back; the empty set is disconnected."""
    arrows = set(arrows)
    if not arrows:
        return False
    first = min(arrows)
    reached, todo = {first}, [first]
    while todo:
        f = todo.pop()
        for h in arrows - reached:
            if any(cat.compose(f, g) == h for g in cat.into(cat.dom[f])) or any(
                cat.compose(h, g) == f for g in cat.into(cat.dom[h])
            ):
                reached.add(h)
                todo.append(h)
    return reached == arrows


def test_sieve_connectivity_matches_the_zigzag_search():
    """Every sieve of the oracle categories, and seeded random sets of
    arrows into one object, which need not be right-closed."""
    rng = random.Random("zigzag")
    counts = Counter()
    for cat in oracle_categories():
        for c in range(len(cat.objects)):
            into = cat.into(c)
            for S in sieve_masks_on(cat, c):
                connected = is_sieve_connected(cat, S)
                assert connected == zigzag_connected(cat, bits(S)), (cat.objects, S)
                counts["sieve", connected] += 1
            for _ in range(8):
                arrows = [f for f in into if rng.random() < 0.4]
                mask = sum(1 << f for f in arrows)
                connected = is_sieve_connected(cat, mask)
                assert connected == zigzag_connected(cat, arrows), (cat.objects, mask)
                counts["set", connected, is_right_closed(cat, mask)] += 1
    assert counts["sieve", True] >= 2000 and counts["sieve", False] >= 2000, counts
    assert counts["set", True, False] >= 2000 and counts["set", False, False] >= 150


def is_thin(cat):
    return all(len(arrows) == 1 for arrows in cat._hom.values())


def test_cartesian_categories_are_thin_and_have_every_equalizer():
    """A finite category with a terminal object and binary products is thin
    (see `is_cartesian`), so the search's equalizer stage never fails."""
    stages = Counter()
    for name, cat in CLASS_CATEGORIES:
        report = scan_is_cartesian(cat)
        if report:
            assert is_thin(cat), name
        else:
            assert report.failure[0] != "equalizer", name
        stages[report.failure and report.failure[0], is_thin(cat)] += 1
    # cartesian categories, and categories with a terminal object that fail
    # at products because they are not thin
    assert stages[None, True] >= 15 and stages["product", False] >= 30


def test_an_object_with_the_hom_sizes_of_a_product_need_not_be_one():
    cat = fake_square()
    a, q = cat.obj_index("a"), cat.obj_index("q")
    assert all(
        len(cat.hom(c, q)) == len(cat.hom(c, a)) ** 2 for c in range(len(cat.objects))
    )
    assert _is_cartesian(cat) == scan_is_cartesian(cat)
    assert _is_cartesian(cat).failure == ("product", "a", "a")


# ---------------------------------------------------------------------------
# The rigid-site transfer, which the report writes as a theorem, recomputed
# through the comparison functors; and the plus frame, shared per topology.


def _rigid_transfer(category, J):
    """For a rigid site, check that each irreducible's sheafified
    representable restricts to an indecomposable projective presheaf on the
    irreducibles."""
    irr = j_irreducible_objects(category, J)
    mask = 0
    for c in irr:
        mask |= 1 << c
    sub = full_subcategory_from_mask(category, mask)
    functors = comparison_functors(category, J, sub)
    realized = functors.realized
    sub_trivial = trivial_topology(realized.category)
    induced_trivial = (
        functors.sub_topology.minimal == sub_trivial.minimal
    )
    all_ok = True
    for c in irr:
        restricted = functors.restrict(representable_sheaf(category, J, c))
        local = realized.local_object(c)
        # a presheaf isomorphic to a representable is a retract of one, so
        # it is an indecomposable projective without a separate search
        if are_isomorphic(restricted, yoneda(realized.category, local)) is None:
            all_ok = False
            break
    return {
        "induced_topology_trivial": induced_trivial,
        "irreducibles_become_representable_projectives": all_ok,
    }


def rigid_entry(report):
    entries = [t for t in report["transfers"] if t["from"] == "rigid site"]
    assert len(entries) <= 1
    return entries[0] if entries else None


def test_rigid_transfer_is_the_comparison_lemma():
    """Under every rigid topology the comparison functors along the
    irreducibles exist, the induced topology is trivial and each irreducible
    restricts to its representable, as the report writes without checking;
    a non-rigid report (those with small first plus steps) has no entry."""
    seen = Counter()
    cats = []
    for cat in CATEGORIES + [
        p.values[0] for p in SEARCH_CATEGORIES + MONOID_CATEGORIES
    ]:
        if cat not in cats:
            cats.append(cat)
    for cat in cats:
        for J in enumerate_topologies(cat).elements:
            if not is_rigid(cat, J):
                if all(
                    sum(_plus(cat, J, yoneda(cat, c))[0].sizes) <= 27
                    for c in range(len(cat.objects))
                ):
                    assert rigid_entry(classify_report(cat, J)) is None
                    seen["not rigid"] += 1
                continue
            rt = _rigid_transfer(cat, J)
            assert rt["induced_topology_trivial"], (cat.morphisms, J.minimal)
            assert rt["irreducibles_become_representable_projectives"]
            assert rigid_entry(classify_report(cat, J)) == {
                "from": "rigid site",
                "claim": "irreducibles restrict to indecomposable projectives",
                "verified": rt["irreducibles_become_representable_projectives"],
                "induced_topology_trivial": rt["induced_topology_trivial"],
                "licensed_by": "site-to-representable transfer",
            }
            seen["rigid"] += 1
    assert len(cats) == 74
    assert seen["rigid"] == 428 and seen["not rigid"] == 62


def fresh_copy(cat):
    """An equal category with none of the memos of `cat`."""
    return FiniteCategory(
        cat.objects, cat.morphisms, cat.dom, cat.cod, cat.identity, cat.table
    )


def test_plus_frames_alternating_on_one_category_match_fresh_ones():
    """Sheafify under two topologies of one category object in turn, so that
    each reads its frame from the category's memo, and compare sheaf and
    unit with those on a fresh copy, which builds its frame anew."""
    checked = 0
    for param in SEARCH_CATEGORIES:
        cat = param.values[0]
        elements = lattice(cat).elements
        if len(elements) < 2:
            continue
        rng = random.Random(repr(cat.morphisms))
        for k in range(6):
            J = (elements[0], elements[-1])[k % 2]
            P = random_presheaf(cat, rng)
            got, unit = sheafify(cat, J, P)
            assert ("plus", J.minimal) in cat._facts
            fresh = fresh_copy(cat)
            want, want_unit = sheafify(
                fresh,
                GrothendieckTopology(fresh, J.minimal),
                Presheaf(fresh, P.sizes, P.actions),
            )
            assert (got.sizes, got.actions) == (want.sizes, want.actions)
            assert unit.components == want_unit.components
            checked += 1
    assert checked == 252


# ---------------------------------------------------------------------------
# Light's generating set, and the checked coverage stored as the covering.


def oracle_categories():
    """The distinct categories of the oracles above."""
    out = [cat for _, cat in CLASS_CATEGORIES]
    return out + [cat for cat in CATEGORIES if cat not in out]


def closure(cat, arrows):
    """The arrows and the identities, closed under every composable pair."""
    reached = set(cat.identity) | set(arrows)
    todo = list(reached)
    while todo:
        x = todo.pop()
        for y in list(reached):
            for g, f in ((x, y), (y, x)):
                if cat.cod[f] == cat.dom[g]:
                    h = cat.compose(g, f)
                    if h not in reached:
                        reached.add(h)
                        todo.append(h)
    return reached


def test_generators_and_identities_generate_every_arrow():
    """The closure of `_generators` is every arrow, and each arrow taken is
    outside the closure of those taken before it."""
    for cat in oracle_categories():
        taken = _generators(cat)
        assert closure(cat, taken) == set(range(len(cat.morphisms)))
        for k, a in enumerate(taken):
            assert a not in closure(cat, taken[:k])


def test_stored_covering_is_every_sieve_above_the_least():
    """`topology()` stores the checked coverage, given here in shuffled
    order with one sieve listed twice, as `covering`; it equals the sieves
    containing M_c that `covering_masks` enumerates on a fresh copy."""
    rng = random.Random("covering")
    checked = 0
    for cat in oracle_categories():
        fresh = fresh_copy(cat)
        for J in lattice(cat).elements:
            listed = []
            for masks in J.covering:
                masks = list(masks) + [rng.choice(masks)]
                rng.shuffle(masks)
                listed.append(masks)
            got = topology(cat, listed)
            assert "covering" in got.__dict__
            want = GrothendieckTopology(fresh, J.minimal)
            assert got.covering == tuple(
                want.covering_masks(c) for c in range(len(cat.objects))
            )
            checked += 1
    assert checked >= 5000


# ---------------------------------------------------------------------------
# The report's per-object checks on the presheaf site E_D, against the
# sheaf-side block they replaced: double-plus representables, their closed
# subobject lattices read pair by pair, supercompactness as a join of
# principal subobjects, and the regular probe through sheaf kernel pairs.


def sheaf_rep_is_regular(category, J, c):
    """Supercompact, with supercompact kernel pairs of representable probes.

    Probes run over maps from representable sheaves only, which is the
    computable restriction of the defining quantifier; the verdict records
    that restriction.  Only supercompact l(d) are probed, so a monic probe
    passes without building its kernel pair, a copy of l(d).
    """
    if not rep_is_supercompact(category, J, c):
        return ProbeVerdict(False, False, witness=("supercompact", category.objects[c]))
    target = representable_sheaf(category, J, c)
    for d in range(len(category.objects)):
        if not rep_is_supercompact(category, J, d):
            continue
        source = representable_sheaf(category, J, d)
        if max(source.sizes) < 2:
            continue  # every map out of a subterminal sheaf is monic
        for t in presheaf_homs(source, target):
            if all(len(set(comp)) == len(comp) for comp in t.components):
                continue
            W, _, _ = kernel_pair(t)
            if not _properties(restrict(category, J, W))["supercompact"]:
                return ProbeVerdict(
                    False, False, witness=("kernel-pair", category.objects[d])
                )
    return ProbeVerdict(True, False)


def sheaf_object_properties(category, J, c):
    # representable sheaves are sheaves by construction: nothing to check
    rep = representable_sheaf(category, J, c)
    lattice = _subobjects(category, J, rep)
    coh = rep_is_coherent(category, J, c)
    reg = sheaf_rep_is_regular(category, J, c)
    return {
        "atom": len(lattice) == 2,
        "indecomposable": pairwise_indecomposable(lattice),
        "supercompact": join_is_supercompact(category, J, rep),
        "compact": {"holds": True, "degenerate": True},
        "irreducible": rep_is_irreducible(category, J, c),
        "supercompact_by_sieves": rep_is_supercompact(category, J, c),
        "coherent": {
            "holds": bool(coh),
            "degenerate": coh.degenerate,
            "probe_restricted": coh.probe_restricted,
        },
        "regular": {
            "holds": bool(reg),
            "probe_restricted": reg.probe_restricted,
        },
        "values": {
            category.objects[d]: rep.sizes[d]
            for d in range(len(category.objects))
        },
    }


def sheaf_terminal_is_indecomposable(category, J):
    # the terminal presheaf is a sheaf for every topology
    return pairwise_indecomposable(
        _subobjects(category, J, terminal_presheaf(category))
    )


def small_first_plus(cat, J):
    """Every representable's first plus has at most 27 elements, which
    leaves out four topologies of three submonoids of T_4 (64 to 4,096)."""
    return all(
        sum(_plus(cat, J, yoneda(cat, c))[0].sizes) <= 27
        for c in range(len(cat.objects))
    )


def site_cases():
    """Every topology of the distinct corpus, search and monoid categories,
    then the sites of `random_sites` for seeds 0-63."""
    cats = []
    for cat in CATEGORIES + [
        p.values[0] for p in SEARCH_CATEGORIES + MONOID_CATEGORIES
    ]:
        if cat not in cats:
            cats.append(cat)
    for cat in cats:
        for J in enumerate_topologies(cat).elements:
            yield cat, J
    for seed in range(64):
        for site in random_sites(seed):
            yield site.category, site.topology


def test_object_checks_on_the_presheaf_site_match_the_sheaf_side_block():
    seen = Counter()
    for cat, J in site_cases():
        if not small_first_plus(cat, J):
            seen["large"] += 1
            continue
        report = classify_report(cat, J)
        want = [sheaf_object_properties(cat, J, c) for c in range(len(cat.objects))]
        for c, name in enumerate(cat.objects):
            assert report["objects"][name] == want[c], (cat.morphisms, J.minimal, c)
        terminal = sheaf_terminal_is_indecomposable(cat, J)
        assert terminal_is_indecomposable(cat, J) == terminal
        for predicate in ("atom", "indecomposable"):
            assert all(
                representable_properties(cat, J, c)[predicate]
                for c in range(len(cat.objects))
            ) == all(w[predicate] for w in want)
        seen["sites"] += 1
        seen["terminal", terminal] += 1
        for w in want:
            for field in ("atom", "indecomposable", "supercompact"):
                seen[field, w[field]] += 1
            seen["regular", w["regular"]["holds"]] += 1
    assert seen["large"] == 4 and seen["sites"] == 490 + 256
    for field in ("terminal", "atom", "indecomposable", "supercompact", "regular"):
        assert seen[field, True] >= 50 and seen[field, False] >= 50, seen


def validated(E):
    """E_D rebuilt from its data by `validate_category`, which checks every
    law."""
    names = E.morphisms
    return validate_category(
        E.objects,
        [(m, E.objects[m[1]], E.objects[m[2]]) for m in names],
        {e: names[f] for e, f in zip(E.objects, E.identity)},
        {(names[g], names[f]): names[h] for (g, f), h in E.table.items()},
    )


def restricted_yoneda(cat, E, d):
    """y(1_d)|E_D: the fixed points of y(d)(e_k) at each e_k, u acting as
    y(d)(u) does."""
    Y = yoneda(cat, d)
    keep = [
        [x for x in range(Y.sizes[cat.dom[e]]) if Y.actions[e][x] == x]
        for e in E.objects
    ]
    pos = [{x: i for i, x in enumerate(k)} for k in keep]
    return tuple(map(len, keep)), tuple(
        tuple(pos[j][Y.actions[u][x]] for x in keep[k]) for u, j, k in E.morphisms
    )


def mutual_retracts(cat):
    """Pairs (e, e') of idempotents, each r.e.s of the other."""
    idempotents = [f for f in range(len(cat.morphisms)) if cat.table.get((f, f)) == f]
    below = {
        e: {
            cat.compose(cat.compose(r, e), s)
            for r in cat.outof(cat.cod[e])
            for s in cat.into(cat.dom[e])
        }
        for e in idempotents
    }
    return idempotents, {
        (a, b)
        for a in idempotents
        for b in idempotents
        if a in below[b] and b in below[a]
    }


def test_presheaf_site_and_restricted_representables_obey_the_laws():
    """E_D has one object per retract class of D = {e : e in M_dom(e)},
    passes `validate_category` and composes as C does, each arrow v: e_k ->
    e_l having e_l.v.e_k = v; each R_c is y(1_c)|E_D and passes the presheaf
    law check."""
    checked = Counter()
    retracts = {}
    for cat, J in site_cases():
        if cat not in retracts:
            retracts[cat] = mutual_retracts(cat)
        idempotents, mutual = retracts[cat]
        E = presheaf_site(cat, J)
        for e in idempotents:
            in_D = J.minimal[cat.dom[e]] >> e & 1
            assert sum((e, x) in mutual for x in E.objects) == in_D
        checked["objects"] += len(E.objects)
        assert validated(E) == E
        for j, ej in enumerate(E.objects):
            for k, ek in enumerate(E.objects):
                assert len(E.hom(j, k)) == sum(
                    cat.compose(cat.compose(ek, u), ej) == u
                    for u in cat.hom(cat.dom[ej], cat.dom[ek])
                )
        for (g, f), h in E.table.items():
            (v, k, l), (u, j, _) = E.morphisms[g], E.morphisms[f]
            assert E.morphisms[h] == (cat.compose(v, u), j, l)
            assert cat.compose(cat.compose(E.objects[l], v), E.objects[k]) == v
        for c in range(len(cat.objects)):
            R = restricted_representable(cat, J, c)
            assert (R.sizes, R.actions) == restricted_yoneda(cat, E, c)
            check_presheaf_laws(R)
            checked["representables"] += 1
    assert checked["objects"] >= 1000 and checked["representables"] >= 2000


# Sh(C, J_D) is equivalent to presheaves on E_D, so (C, J_D) and (E_D, trivial)
# present one topos.  A derived verdict reads True only where the report has
# proved the property of the topos, and null otherwise.  On a presheaf site
# the four rules below are exact (representables are indecomposable, they
# are atoms exactly on a groupoid, and the topos is a presheaf topos), so a
# True on (C, J_D) must read True on (E_D, trivial).  Regular and coherent
# are left out: their rule also asks for a cartesian base, which E_D need
# not be.
IMPLIED_ON_E_D = (
    "locally connected topos",
    "connected and locally connected topos",
    "atomic topos",
    "presheaf topos",
)


def test_a_site_and_its_presheaf_site_present_one_topos():
    """Under every topology of the corpus and monoid categories and of the
    random sites of seeds 0-15: E_D is its own presheaf site under the
    trivial topology, the terminal sheaf is indecomposable on both sites or
    on neither, and no derived verdict in IMPLIED_ON_E_D is lost."""
    cats = []
    for cat in CATEGORIES + [p.values[0] for p in MONOID_CATEGORIES] + [
        site.category for seed in range(16) for site in random_sites(seed, 4)
    ]:
        if cat not in cats:
            cats.append(cat)
    seen = Counter()
    for cat in cats:
        for J in lattice(cat).elements:
            E = presheaf_site(cat, J)
            T = trivial_topology(E)
            again = presheaf_site(E, T)
            assert len(again.objects) == len(E.objects)
            assert len(again.morphisms) == len(E.morphisms)
            connected = terminal_is_indecomposable(cat, J)
            assert terminal_is_indecomposable(E, T) == connected
            seen["pairs"] += 1
            seen["connected", connected] += 1
            on_site, on_e = (
                {d["property"]: d["holds"] for d in classify_report(*site)["derived"]}
                for site in ((cat, J), (E, T))
            )
            assert on_e["presheaf topos"] is True
            for prop in IMPLIED_ON_E_D:
                if on_site[prop]:
                    assert on_e[prop] is True, (prop, cat.objects, J.minimal)
                    seen[prop] += 1
    assert seen["pairs"] == 564
    assert seen["connected", True] >= 100 and seen["connected", False] >= 100
    assert all(seen[prop] >= 40 for prop in IMPLIED_ON_E_D), seen


def raiser(name):
    def refuse(*args, **kwargs):
        raise AssertionError("%s ran on the report path" % (name,))

    return refuse


def test_the_report_builds_no_sheaf(monkeypatch):
    """With the sheafification and the closed hulls made to raise, the
    report of every corpus site and every topology of the one-object
    monoids has the bytes it had before."""
    cases = [(s.category, s.topology) for s in corpus(seed=0, random_count=8)]
    for _, cat in ONE_OBJECT_MONOIDS:
        cases += [(cat, J) for J in enumerate_topologies(cat).elements]
    want = [canonical_json(classify_report(cat, J)) for cat, J in cases]
    originals = {
        name: getattr(sys.modules["finsite." + module_name], name)
        for module_name, name in (
            ("sheaf", "representable_sheaf"),
            ("sheaf", "sheafify"),
            ("sheaf", "_plus"),
            ("objects", "closed_hull"),
            ("objects", "_closure"),
            ("objects", "_subobjects"),
        )
    }
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("finsite"):
            for attr, value in list(vars(module).items()):
                for name, original in originals.items():
                    if value is original:
                        monkeypatch.setattr(module, attr, raiser(name))
    jobs2 = partial(_strided_map, 2)
    for (cat, J), report in zip(cases, want):
        fresh = fresh_copy(cat)
        J = GrothendieckTopology(fresh, J.minimal)
        assert canonical_json(classify_report(fresh, J)) == report
        assert canonical_json(classify_report(fresh, J, mapper=jobs2)) == report


def test_t4_sub7_report_finishes():
    """The report of the 10-element submonoid of T_4 under M = (894,), whose
    representable sheaf has 4,096 elements, decides its objects on E_D; the
    double plus agrees on its values, and its restriction to E_D on
    supercompact."""
    (cat,) = [p.values[0] for p in MONOID_CATEGORIES if p.id == "T4-sub7"]
    J = GrothendieckTopology(cat, (894,))
    assert J.minimal in [K.minimal for K in enumerate_topologies(cat).elements]
    start = time.perf_counter()
    report = classify_report(cat, J)
    assert time.perf_counter() - start < 5
    (name,) = cat.objects
    A = representable_sheaf(cat, J, 0)
    assert A.sizes == (4096,)
    assert report["objects"][name]["values"] == {name: 4096}
    assert report["objects"][name]["supercompact"] == _properties(
        restrict(cat, J, A)
    )["supercompact"]


def test_t4_sub7_subobjects_finish():
    """The 4,096-element representable sheaf of T4-sub7 under M = (894,) has
    one subobject per subpresheaf of its restriction to E_D, counted over
    every subset of that restriction's 8 elements, and lists them in
    seconds."""
    (cat,) = [p.values[0] for p in MONOID_CATEGORIES if p.id == "T4-sub7"]
    J = GrothendieckTopology(cat, (894,))
    A = representable_sheaf(cat, J, 0)
    start = time.perf_counter()
    lat = subobjects(cat, J, A)
    assert time.perf_counter() - start < 5
    R = restrict(cat, J, A)
    E = R.category
    elements = [(k, x) for k, n in enumerate(R.sizes) for x in range(n)]
    assert len(elements) == 8
    closed = 0
    for chosen in itertools.product((False, True), repeat=len(elements)):
        S = {e for e, keep in zip(elements, chosen) if keep}
        closed += all(
            (E.dom[u], R.actions[u][x]) in S
            for u in range(len(E.morphisms))
            for x in range(R.sizes[E.cod[u]])
            if (E.cod[u], x) in S
        )
    assert len(lat) == closed == 16


# ---------------------------------------------------------------------------
# The multi-pass site loader, kept as the reference for `siteio.parse_site`.
# It checks every entry's shape and every name's type in one pass, resolves
# the names in a second, builds the category through `FiniteCategory(...)`,
# sorts and sets each coverage list apart from its check, and builds the
# presheaves through `Presheaf(...)`.  The presheaf size bound sits where
# the library checks it, after the sizes and before the actions.


def ref_require(mapping, key, where):
    if key not in mapping:
        raise ParseError("%s is missing %r" % (where, key))
    return mapping[key]


def ref_check_type(value, types, where):
    if not isinstance(value, types):
        raise ParseError(
            "%s must be %s, got %s"
            % (where, " or ".join(t.__name__ for t in types), type(value).__name__)
        )
    return value


def ref_check_names(names, where):
    for name in names:
        if type(name) is not str:
            raise ParseError("%s must be str, got %r" % (where, name))


def ref_validate_category(objects, morphisms, identities, composites):
    objects = tuple(objects)
    morphisms = tuple(tuple(m) for m in morphisms)
    if len(set(objects)) != len(objects):
        raise UnknownObject("duplicate object names")
    names = [m[0] for m in morphisms]
    if len(set(names)) != len(names):
        raise UnknownName("duplicate morphism names")
    obj_index = {name: i for i, name in enumerate(objects)}
    mor_index = {name: i for i, name in enumerate(names)}
    dom, cod = [], []
    for name, a, b in morphisms:
        if a not in obj_index:
            raise UnknownObject("morphism %r has unknown domain %r" % (name, a))
        if b not in obj_index:
            raise UnknownObject("morphism %r has unknown codomain %r" % (name, b))
        dom.append(obj_index[a])
        cod.append(obj_index[b])
    identity = [None] * len(objects)
    for obj, mor in identities.items():
        if obj not in obj_index:
            raise UnknownObject("identity declared for unknown object %r" % (obj,))
        if mor not in mor_index:
            raise UnknownName("identity %r is not a listed morphism" % (mor,))
        i, f = obj_index[obj], mor_index[mor]
        if dom[f] != i or cod[f] != i:
            raise MissingIdentity(
                "identity of %r must be an endomorphism of it" % (obj,),
                witnesses=(obj, mor),
            )
        identity[i] = f
    for i, obj in enumerate(objects):
        if identity[i] is None:
            raise MissingIdentity("object %r has no identity" % (obj,), witnesses=(obj,))
    table = {}
    for (g_name, f_name), h_name in composites.items():
        for nm in (g_name, f_name, h_name):
            if nm not in mor_index:
                raise UnknownName("composition table mentions unknown morphism %r" % (nm,))
        g, f, h = mor_index[g_name], mor_index[f_name], mor_index[h_name]
        if cod[f] != dom[g]:
            raise TypeMismatch(
                "entry %r after %r composes non-composable arrows" % (g_name, f_name),
                witnesses=(g_name, f_name),
            )
        if dom[h] != dom[f] or cod[h] != cod[g]:
            raise TypeMismatch(
                "composite of %r after %r must go %r -> %r, got %r"
                % (f_name, g_name, objects[dom[f]], objects[cod[g]], h_name),
                witnesses=(g_name, f_name, h_name),
            )
        table[(g, f)] = h
    n = len(morphisms)
    for f in range(n):
        for key in ((identity[cod[f]], f), (f, identity[dom[f]])):
            if key in table:
                if table[key] != f:
                    raise IdentityLawViolation(
                        "identity composite at %r is %r, expected %r"
                        % (names[f], names[table[key]], names[f]),
                        witnesses=(names[key[0]], names[key[1]], names[table[key]]),
                    )
            else:
                table[key] = f
    for f in range(n):
        for g in range(n):
            if cod[f] == dom[g] and (g, f) not in table:
                raise UndefinedComposite(
                    "no composite for %r after %r" % (names[g], names[f]),
                    witnesses=(names[g], names[f]),
                )
    category = FiniteCategory(objects, names, dom, cod, identity, table)
    _check_associative(category)
    return category


def ref_parse_category(data):
    ref_check_type(data, (dict,), "category block")
    objects = ref_check_type(
        ref_require(data, "objects", "category block"), (list,), "objects"
    )
    ref_check_names(objects, "object name")
    raw_morphisms = ref_check_type(
        ref_require(data, "morphisms", "category block"), (list,), "morphisms"
    )
    morphisms = []
    for entry in raw_morphisms:
        ref_check_type(entry, (list,), "morphism entry")
        if len(entry) != 3:
            raise ParseError("morphism entry must be [name, dom, cod], got %r" % (entry,))
        ref_check_names(entry, "name in a morphism entry")
        morphisms.append(tuple(entry))
    identities = ref_check_type(
        ref_require(data, "identities", "category block"), (dict,), "identities"
    )
    ref_check_names(identities.values(), "identity")
    raw_composites = ref_check_type(data.get("composites", []), (list,), "composites")
    composites = {}
    for entry in raw_composites:
        ref_check_type(entry, (list,), "composite entry")
        if len(entry) != 3:
            raise ParseError(
                "composite entry must be [g, f, h] meaning g after f = h, got %r"
                % (entry,)
            )
        ref_check_names(entry, "name in a composite entry")
        g, f, h = entry
        if (g, f) in composites:
            raise ParseError("composite (%r after %r) listed twice" % (g, f))
        composites[(g, f)] = h
    return ref_validate_category(objects, morphisms, identities, composites)


def ref_decides_on_least(category, sets):
    M = tuple(
        reduce(and_, masks, category.maximal_sieve(c)) for c, masks in enumerate(sets)
    )
    principal = category.principal_sieve
    for c, listed in enumerate(sets):
        if M[c] not in listed:
            return False
        for S in listed:
            for f in category.into(c):
                if not S >> f & 1 and S | principal(f) not in listed:
                    return False
    for h in range(len(category.morphisms)):
        c, d = category.cod[h], category.dom[h]
        if M[d] & ~pullback_mask(category, M[c], h):
            return False
    for c, M_c in enumerate(M):
        reached = 0
        for f in bits(M_c):
            for k in bits(M[category.dom[f]]):
                reached |= 1 << category.compose(f, k)
        if reached != M_c:
            return False
    return True


def ref_topology(category, covering):
    cov = tuple(tuple(sorted(set(masks))) for masks in covering)
    n_obj = len(category.objects)
    sets = [set(masks) for masks in cov]
    if len(cov) != n_obj:
        verdict = TopologyVerdict(False, "shape", (len(cov), n_obj))
    else:
        verdict = next(
            (
                TopologyVerdict(False, "sieve", (c, S))
                for c in range(n_obj)
                for S in cov[c]
                if S & ~category.maximal_sieve(c) or not is_right_closed(category, S)
            ),
            None,
        )
        if verdict is None:
            if ref_decides_on_least(category, sets):
                verdict = TopologyVerdict(True)
            else:
                verdict = _scan_axioms(category, cov, sets)
    if not verdict:
        raise TopologyAxiomViolation(
            "covering assignment violates %s at %r" % (verdict.axiom, verdict.witness),
            verdict.axiom,
            verdict.witness,
        )
    least = tuple(
        reduce(and_, masks, category.maximal_sieve(c)) for c, masks in enumerate(cov)
    )
    J = GrothendieckTopology(category, least)
    J.__dict__["covering"] = cov
    return J


def ref_parse_topology(category, data):
    ref_check_type(data, (dict,), "topology block")
    keys = sorted(set(data) & {"named", "coverage", "generate"})
    if len(keys) != 1:
        raise ParseError(
            "topology block needs exactly one of named/coverage/generate, got %r"
            % (sorted(data),)
        )
    kind = keys[0]
    if kind == "named":
        name = ref_check_type(data["named"], (str,), "named topology")
        if name not in NAMED_TOPOLOGIES:
            raise ParseError(
                "unknown named topology %r (have %s)"
                % (name, ", ".join(sorted(NAMED_TOPOLOGIES)))
            )
        return NAMED_TOPOLOGIES[name](category)
    families = ref_check_type(data[kind], (dict,), "topology %s block" % kind)
    per_object = {}
    for obj_name, sieves in families.items():
        c = category.obj_index(obj_name)
        ref_check_type(sieves, (list,), "sieve list of %r" % obj_name)
        masks = []
        for arrows in sieves:
            ref_check_type(arrows, (list,), "sieve of %r" % obj_name)
            mask = 0
            ref_check_names(arrows, "arrow in a sieve")
            for arrow_name in arrows:
                f = category.mor_index(arrow_name)
                if category.cod[f] != c:
                    raise ParseError("arrow %r does not land in %r" % (arrow_name, obj_name))
                mask |= 1 << f
            masks.append(mask)
        per_object[c] = masks
    if kind == "generate":
        seeds = {
            c: [sorted(bits(mask)) for mask in masks]
            for c, masks in sorted(per_object.items())
        }
        return generated_topology(category, seeds)
    covering = []
    for c in range(len(category.objects)):
        if c not in per_object:
            raise ParseError("coverage block is missing object %r" % (category.objects[c],))
        masks = per_object[c]
        if len(set(masks)) != len(masks):
            raise ParseError("coverage of %r lists a sieve twice" % (category.objects[c],))
        covering.append(masks)
    try:
        return ref_topology(category, covering)
    except TopologyAxiomViolation as exc:
        if exc.axiom != "sieve":
            raise
        c, mask = exc.witness
        raise ParseError(
            "coverage of %r lists %r, which is not a sieve"
            % (category.objects[c], [category.morphisms[f] for f in bits(mask)])
        ) from None


def ref_parse_subcategory(category, data, where):
    ref_check_type(data, (dict,), where)
    objects = ref_check_type(ref_require(data, "objects", where), (list,), where)
    ref_check_names(objects, "object name")
    if "morphisms" in data:
        morphisms = ref_check_type(data["morphisms"], (list,), where)
        ref_check_names(morphisms, "morphism name")
    else:
        objs = {category.obj_index(o) for o in objects}
        morphisms = [
            category.morphisms[f]
            for f in range(len(category.morphisms))
            if category.dom[f] in objs and category.cod[f] in objs
        ]
    omask = sum({1 << category.obj_index(name) for name in objects})
    mmask = sum({1 << category.mor_index(name) for name in morphisms})
    for c in bits(omask):
        if not mmask >> category.identity[c] & 1:
            raise InvalidSubcategory("missing identity of %r" % (category.objects[c],))
    mors = tuple(bits(mmask))
    for f in mors:
        if not (omask >> category.dom[f] & 1 and omask >> category.cod[f] & 1):
            raise InvalidSubcategory(
                "morphism %r leaves the object selection" % (category.morphisms[f],)
            )
    for g in mors:
        for f in mors:
            if category.cod[f] == category.dom[g]:
                h = category.compose(g, f)
                if not mmask >> h & 1:
                    raise InvalidSubcategory(
                        "not closed: %r after %r = %r is missing"
                        % (category.morphisms[g], category.morphisms[f], category.morphisms[h])
                    )
    return Subcategory(category, omask, mmask)


def ref_parse_presheaf(category, data, where):
    ref_check_type(data, (dict,), where)
    sizes_map = ref_check_type(ref_require(data, "sizes", where), (dict,), where)
    sizes = [None] * len(category.objects)
    for obj_name, size in sizes_map.items():
        c = category.obj_index(obj_name)
        if type(size) is not int or size < 0:
            raise ParseError("%s: size of %r must be a nonnegative int" % (where, obj_name))
        sizes[c] = size
    for c, size in enumerate(sizes):
        if size is None:
            raise ParseError("%s is missing a size for %r" % (where, category.objects[c]))
    total, bound = sum(sizes), _resolve_bound(None)
    if total > bound:
        raise SizeBoundExceeded(
            "%s has %d elements in all, over the bound %d" % (where, total, bound),
            total,
            bound,
        )
    actions_map = ref_check_type(ref_require(data, "actions", where), (dict,), where)
    actions = [None] * len(category.morphisms)
    for mor_name, table in actions_map.items():
        f = category.mor_index(mor_name)
        ref_check_type(table, (list,), "%s action %r" % (where, mor_name))
        if not all(type(x) is int for x in table):
            raise ParseError("%s: action of %r must list ints" % (where, mor_name))
        actions[f] = tuple(table)
    for f in range(len(category.morphisms)):
        if actions[f] is None:
            if category.is_identity(f):
                actions[f] = tuple(range(sizes[category.dom[f]]))
            else:
                raise ParseError(
                    "%s is missing the action of %r" % (where, category.morphisms[f])
                )
    return Presheaf(category, tuple(sizes), tuple(actions))


def ref_parse_site(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % (exc,)) from None
    ref_check_type(data, (dict,), "site document")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ParseError("expected schema %r, got %r" % (SCHEMA, schema))
    name = data.get("name", "site")
    ref_check_type(name, (str,), "name")
    category = ref_parse_category(ref_require(data, "category", "site document"))
    J = None
    if "topology" in data:
        J = ref_parse_topology(category, data["topology"])
    subcategories = {}
    for sub_name, block in sorted(
        ref_check_type(data.get("subcategories", {}), (dict,), "subcategories").items()
    ):
        subcategories[sub_name] = ref_parse_subcategory(
            category, block, "subcategory %r" % sub_name
        )
    presheaves = {}
    for p_name, block in sorted(
        ref_check_type(data.get("presheaves", {}), (dict,), "presheaves").items()
    ):
        presheaves[p_name] = ref_parse_presheaf(category, block, "presheaf %r" % p_name)
    return SiteFile(name, category, J, subcategories, presheaves)


def loaded(site):
    """Everything a load builds, derived structure and table order included."""
    cat = site.category
    return {
        "name": site.name,
        "category": (
            cat.objects,
            cat.morphisms,
            cat.dom,
            cat.cod,
            cat.identity,
            list(cat.table.items()),
            cat._obj_index,
            cat._mor_index,
            cat._hom,
            cat._into,
            cat._outof,
            cat._maximal,
            cat._principal,
        ),
        "topology": site.topology and (site.topology.minimal, site.topology.covering),
        "subcategories": {
            n: (s.objects_mask, s.morphisms_mask) for n, s in site.subcategories.items()
        },
        "presheaves": {n: (P.sizes, P.actions) for n, P in site.presheaves.items()},
    }


def outcome(load, text):
    """What a loader makes of a document: what it built, or the type, the
    message and the attributes of what it raised."""
    try:
        return loaded(load(text))
    except FinsiteError as exc:
        return type(exc), str(exc), vars(exc)


def z64_site():
    names = ["e"] + ["a%d" % i for i in range(1, 64)]
    table = {
        (g, f): names[(i + j) % 64] for i, g in enumerate(names) for j, f in enumerate(names)
    }
    cat = monoid_category(names, "e", table)
    return SiteFile("Z64", cat, trivial_topology(cat))


def loader_sites():
    """The corpus of seeds 0-3, random sites of seeds 0-15 under a
    generated and an explicit coverage, each given a random presheaf and
    subcategory where it has none, and Z64."""
    sites = []
    for seed in range(4):
        sites += corpus(seed=seed, random_count=4)
    for seed in range(16):
        for site in random_sites(seed, 4):
            sites.append(site)
            rng = random.Random(site.name)
            cat = site.category
            J = site.topology
            # the least sieves of one topology chosen at random in the lattice
            K = rng.choice(enumerate_topologies(cat).elements)
            sites.append(
                SiteFile(
                    site.name + "-more",
                    cat,
                    K if J.minimal != K.minimal else J,
                    {"sub": random_subcategory(cat, rng), **site.subcategories},
                    {"Q": random_presheaf(cat, rng, max_value=4), **site.presheaves},
                )
            )
    sites.append(z64_site())
    return sites


def test_the_loader_builds_what_the_multi_pass_loader_builds():
    sites = loader_sites()
    assert len(sites) >= 180
    for site in sites:
        text = serialize_site(site)
        got = outcome(parse_site, text)
        assert isinstance(got, dict), (site.name, got)
        assert got == outcome(ref_parse_site, text), site.name
        # the same documents with a generating family for a coverage
        if site.topology is not None:
            doc = json.loads(text)
            doc["topology"] = {"generate": doc["topology"]["coverage"]}
            text = json.dumps(doc)
            assert outcome(parse_site, text) == outcome(ref_parse_site, text), site.name


@settings(
    derandomize=True,
    max_examples=600,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=fuzzed_documents())
def test_fuzzed_documents_load_or_fail_as_the_multi_pass_loader_does(case):
    _, text = case
    assert outcome(parse_site, text) == outcome(ref_parse_site, text)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=lawful_documents())
def test_lawful_changes_load_or_fail_as_the_multi_pass_loader_does(case):
    _, _, text = case
    assert outcome(parse_site, text) == outcome(ref_parse_site, text)


def precedence_cases():
    """(expected error type, document) pairs in which an earlier check must
    win over a later one: a malformed entry after an unknown name, a law
    broken before a name is unknown, and so on."""
    cases = []

    def case(error, change, site="vee-cover"):
        doc = json.loads(serialize_site(named_site(site)))
        change(doc)
        cases.append((error, doc))

    def cat(doc):
        return doc["category"]

    # the shapes of every entry are checked before any name is resolved
    case(ParseError, lambda d: cat(d)["morphisms"].extend([["m", "nowhere", "x"], 7]))
    case(ParseError, lambda d: cat(d)["morphisms"].extend([["m", "nowhere", "x"], ["n", "x"]]))
    case(ParseError, lambda d: cat(d)["morphisms"].extend([["m", "nowhere", "x"], ["n", 1, "x"]]))
    case(ParseError, lambda d: (cat(d)["identities"].update(x="nothing"), cat(d)["composites"].append(["a", "b"])))
    case(ParseError, lambda d: (cat(d)["objects"].append(cat(d)["objects"][0]), cat(d)["composites"].append([1, 2, 3])))
    case(ParseError, lambda d: cat(d)["composites"].extend([["nothing", "a", "b"], cat(d)["composites"][0]] if cat(d)["composites"] else [["nothing", "a", "b"], ["p", "q", "r"], ["p", "q", "s"]]))
    case(ParseError, lambda d: (cat(d)["morphisms"].append(["m", "x", "x"]), cat(d).update(identities=[])))
    case(ParseError, lambda d: cat(d)["composites"].append(cat(d)["composites"][0]), "square-cover")
    # names, then laws, in document order
    case(UnknownObject, lambda d: cat(d)["objects"].append(cat(d)["objects"][0]))
    case(UnknownName, lambda d: cat(d)["morphisms"].append(cat(d)["morphisms"][1]))
    case(UnknownObject, lambda d: (cat(d)["objects"].append(cat(d)["objects"][0]), cat(d)["morphisms"].append(["m", "nowhere", "x"])))
    case(UnknownName, lambda d: (cat(d)["morphisms"].append(cat(d)["morphisms"][0]), cat(d)["identities"].update(x="nothing")))
    case(UnknownObject, lambda d: cat(d)["morphisms"].insert(0, ["m", "nowhere", "nowhere"]))
    case(UnknownObject, lambda d: cat(d)["identities"].update(nowhere="nothing"))
    case(MissingIdentity, lambda d: (cat(d)["identities"].pop(cat(d)["objects"][-1]), cat(d)["composites"].append(["nothing", "x", "y"])))
    case(TypeMismatch, lambda d: cat(d)["composites"].extend([[cat(d)["morphisms"][1][0]] * 3, ["nothing", "x", "y"]]))
    case(UnknownName, lambda d: cat(d)["composites"].extend([["nothing", "x", "y"], [cat(d)["morphisms"][1][0]] * 3]))
    case(IdentityLawViolation, lambda d: cat(d)["composites"].append(["id_*", "e", "id_*"]), "idem-e")
    case(UnknownName, lambda d: cat(d)["composites"].extend([["id_*", "e", "id_*"], ["nothing", "e", "e"]]), "idem-e")
    case(UndefinedComposite, lambda d: cat(d).update(composites=[]), "square-cover")
    # the category before the topology, the topology object by object
    case(UndefinedComposite, lambda d: (cat(d).update(composites=[]), d["topology"].update(coverage=7)), "square-cover")
    case(UnknownObject, lambda d: d["topology"]["coverage"].update(nowhere=[[1]]))
    case(UnknownName, lambda d: next(iter(d["topology"]["coverage"].values())).extend([["nothing"], [1]]))
    case(ParseError, lambda d: next(iter(d["topology"]["coverage"].values())).append(["nothing", 1]))
    case(ParseError, lambda d: next(iter(d["topology"]["coverage"].values())).append([cat(d)["morphisms"][-1][0], cat(d)["morphisms"][0][0]]))
    case(ParseError, lambda d: d["topology"]["coverage"].pop(cat(d)["objects"][-1]))
    case(ParseError, lambda d: (d["topology"]["coverage"].pop(cat(d)["objects"][-1]), d["topology"]["coverage"][cat(d)["objects"][0]].append(d["topology"]["coverage"][cat(d)["objects"][0]][0])))
    case(TopologyAxiomViolation, lambda d: d["topology"]["coverage"].update({o: [] for o in d["topology"]["coverage"]}))
    case(ParseError, lambda d: d["topology"]["coverage"]["s"].append(["q->s", "r->s"]), "square-cover")
    # every sieve covers, and q lists one set more that is closed under
    # adding principal sieves but not a sieve
    every = {
        "p": [[], ["id_p"]],
        "q": [[], ["p->q"], ["p->q", "id_q"], ["id_q"]],
        "r": [[], ["p->r"], ["p->r", "id_r"]],
        "s": [[], ["p->s"], ["p->s", "q->s"], ["p->s", "r->s"], ["p->s", "q->s", "r->s"],
              ["p->s", "q->s", "r->s", "id_s"]],
    }
    case(ParseError, lambda d: d["topology"].update(coverage=every), "square-cover")
    # the size bound before any action table, after every size
    case(SizeBoundExceeded, lambda d: d.update(presheaves={"P": {"sizes": {o: 10**12 for o in cat(d)["objects"]}, "actions": 7}}))
    case(ParseError, lambda d: d.update(presheaves={"P": {"sizes": {cat(d)["objects"][0]: 10**12}, "actions": {}}}))
    case(UnknownObject, lambda d: d.update(presheaves={"P": {"sizes": {"nowhere": 10**12}, "actions": {}}}))
    # an identity action listed is checked, one left out is filled in
    case(PresheafLawError, lambda d: d["presheaves"]["P"]["actions"].update(id_b=[1, 0]), "arrow-j2")
    case(ParseError, lambda d: d["presheaves"]["P"]["actions"].update(id_b=[1, 0], f=7), "arrow-j2")
    return cases


def test_precedence_cases_fail_as_the_multi_pass_loader_does():
    for error, doc in precedence_cases():
        text = json.dumps(doc)
        got = outcome(parse_site, text)
        assert got == outcome(ref_parse_site, text), (error, got)
        assert got[0] is error, (error, got)


# ---------------------------------------------------------------------------
# `validate_category` resolves every name, for site files and library
# callers alike, so it is compared with the reference on named data given
# directly: corpus categories with names changed, dropped or added, and
# composite mappings in which a mistyped entry and an unknown name follow
# each other.


def validated_outcome(validate, args):
    """What a validator makes of named data: the category's structure, or
    the type, the message and the attributes of what it raised."""
    try:
        return loaded(SiteFile("named", validate(*args)))["category"]
    except FinsiteError as exc:
        return type(exc), str(exc), vars(exc)


@st.composite
def fuzzed_named_data(draw):
    """The named data of a corpus category after one to four changes, each
    putting a name drawn from the category, or an unknown one, into an
    object, an arrow entry, an identity or a composite, or dropping or
    adding a composite."""
    site = draw(st.sampled_from(NAMED_SITES))
    data = category_data(site.category)
    objects = data["objects"]
    morphisms = [list(entry) for entry in data["morphisms"]]
    identities = data["identities"]
    composites = [list(entry) for entry in data["composites"]]
    names = st.sampled_from(objects + [entry[0] for entry in morphisms] + ["nothing"])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["object", "arrow", "identity", "composite", "drop", "add"]))
        if kind == "object":
            objects[draw(st.integers(0, len(objects) - 1))] = draw(names)
        elif kind == "arrow":
            draw(st.sampled_from(morphisms))[draw(st.integers(0, 2))] = draw(names)
        elif kind == "identity":
            obj = draw(st.sampled_from(sorted(identities)))
            identities[draw(names) if draw(st.booleans()) else obj] = identities.pop(obj)
        elif kind == "composite" and composites:
            draw(st.sampled_from(composites))[draw(st.integers(0, 2))] = draw(names)
        elif kind == "drop" and composites:
            composites.pop(draw(st.integers(0, len(composites) - 1)))
        else:
            entry = [draw(names) for _ in range(3)]
            composites.insert(draw(st.integers(0, len(composites))), entry)
    return objects, morphisms, identities, {(g, f): h for g, f, h in composites}


NAMED_SITES = corpus(seed=0, random_count=8)


@settings(
    derandomize=True,
    max_examples=600,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(args=fuzzed_named_data())
def test_validate_category_on_fuzzed_named_data_fails_as_the_reference_does(args):
    assert validated_outcome(validate_category, args) == validated_outcome(
        ref_validate_category, args
    )


def mistyped_then_unknown_cases():
    """(expected error type, named data): a corpus category's composites
    with a mistyped entry and an entry naming an unknown arrow, in either
    order, after a random prefix of the listed entries."""
    rng = random.Random("mistyped")
    cases = []
    for site in corpus(seed=0, random_count=8):
        data = category_data(site.category)
        listed = [((g, f), h) for g, f, h in data["composites"]]
        ends = {name: (a, b) for name, a, b in data["morphisms"]}
        names = sorted(ends)
        mistyped = [
            ((g, f), h)
            for g in names
            for f in names
            for h in names
            if ends[f][1] != ends[g][0] or ends[h] != (ends[f][0], ends[g][1])
        ]
        for _ in range(6 if mistyped else 0):
            bad = (g, f), h = rng.choice(mistyped)
            identity = data["identities"][ends[f][1]]
            unknown = rng.choice(
                [(("nothing", f), h), ((g, "nothing"), h)]
                + [((identity, f), "nothing")] * (identity != g)
            )
            rest = [entry for entry in listed if entry[0] not in (bad[0], unknown[0])]
            k = rng.randrange(len(rest) + 1)
            for first, second, error in ((bad, unknown, TypeMismatch), (unknown, bad, UnknownName)):
                composites = dict(rest[:k] + [first, second] + rest[k:])
                args = (data["objects"], data["morphisms"], data["identities"], composites)
                cases.append((error, args))
    return cases


def test_validate_category_names_a_mistyped_entry_before_a_later_unknown_name():
    cases = mistyped_then_unknown_cases()
    assert len(cases) >= 100
    for error, args in cases:
        got = validated_outcome(validate_category, args)
        assert got == validated_outcome(ref_validate_category, args)
        assert got[0] is error, (error, got)


# ---------------------------------------------------------------------------
# `_least_if_topology` decides stability and transitivity as M = M(D), one
# pass over the idempotents in M.  It is compared with the reference that
# checks both axioms on M directly, on random assignments of the form the
# listed-set checks let through (a sieve M_c per object, listed with every
# sieve containing it), on the submonoids of T_3 and T_4, whose non-identity
# idempotents do not split, and on the random sites of seeds 0-15.


def least_sieve_cases():
    cats = [param.values[0] for param in MONOID_CATEGORIES]
    for seed in range(16):
        cats += [site.category for site in random_sites(seed, 4)]
    return cats


def random_least_assignment(cat, rng, minimal=None):
    """Per object, the set of sieves containing M_c: a random sieve, or
    where minimal is given, minimal[c] at every object but a random one."""
    objects = range(len(cat.objects))
    moved = rng.choice(objects)
    sets = []
    for c in objects:
        sieves = sieve_masks_on(cat, c)
        M = rng.choice(sieves) if minimal is None or c == moved else minimal[c]
        sets.append({S for S in sieves if not M & ~S})
    return sets


def test_least_sieve_verdict_matches_the_reference_on_random_least_sieves():
    verdicts = Counter()
    for k, cat in enumerate(least_sieve_cases()):
        rng = random.Random(k)
        elements = lattice(cat).elements
        for draw in range(40):
            minimal = rng.choice(elements).minimal if draw % 2 else None
            sets = random_least_assignment(cat, rng, minimal)
            want = ref_decides_on_least(cat, sets)
            got = _least_if_topology(cat, sets)
            assert (got is not None) == want, (cat, sets)
            if want:
                assert got == tuple(reduce(and_, masks) for masks in sets)
            verdicts[want] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 200, verdicts
