"""Built-in categories and sites used by tests and the command line.

Everything here is deterministic: named fixtures are fixed data, and the
random families are driven entirely by a caller-supplied seed.
"""

import random

from .category import full_subcategory_from_mask, subcategory, validate_category
from .presheaf import Presheaf, random_presheaf
from .siteio import SiteFile
from .topology import (
    DEFAULT_MAX_ASSIGNMENTS,
    atomic_topology,
    count_candidate_assignments,
    generated_topology,
    maximal_topology,
    topology,
    trivial_topology,
)


def poset_category(elements, leq_pairs):
    """Category of a finite poset: one arrow a -> b per related pair.

    leq_pairs seeds the order; the reflexive-transitive closure is taken
    here.  Non-identity arrows are named "a->b".
    """
    elements = tuple(elements)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    rel = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        rel[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                row_k = rel[k]
                row_i = rel[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                raise ValueError(
                    "relation is not antisymmetric on %r, %r"
                    % (elements[i], elements[j])
                )

    def arrow_name(i, j):
        if i == j:
            return "id_%s" % elements[i]
        return "%s->%s" % (elements[i], elements[j])

    morphisms = []
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                morphisms.append((arrow_name(i, j), elements[i], elements[j]))
    identities = {e: "id_%s" % e for e in elements}
    composites = {}
    for i in range(n):
        for j in range(n):
            if not rel[i][j] or i == j:
                continue
            for k in range(n):
                if rel[j][k] and j != k:
                    composites[(arrow_name(j, k), arrow_name(i, j))] = arrow_name(i, k)
    return validate_category(elements, morphisms, identities, composites)


def monoid_category(element_names, unit, table):
    """One-object category from a monoid multiplication table.

    table maps (g, f) -> g*f by element name; pairs involving the unit may
    be left out.
    """
    morphisms = [(e, "*", "*") for e in element_names]
    return validate_category(
        ("*",), morphisms, {"*": unit}, {tuple(k): v for k, v in table.items()}
    )


def path_category(nodes, edges, max_morphisms=None):
    """Free category on a directed acyclic graph.

    edges: (name, src, tgt) triples.  Morphisms are identities plus all
    nonempty edge paths, named by joining edge names with "-".  Returns
    None when max_morphisms is set and the bound is exceeded.
    """
    nodes = tuple(nodes)
    out_edges = {v: [] for v in nodes}
    for name, src, tgt in edges:
        out_edges[src].append((name, tgt))

    paths = []

    def walk(prefix, names, at):
        for name, tgt in out_edges[at]:
            path = names + (name,)
            paths.append((prefix, path, tgt))
            walk(prefix, path, tgt)

    for v in nodes:
        walk(v, (), v)

    if max_morphisms is not None and len(paths) + len(nodes) > max_morphisms:
        return None

    def path_name(names):
        return "-".join(names)

    morphisms = [("id_%s" % v, v, v) for v in nodes]
    by_endpoints = {}
    for src, names, tgt in paths:
        morphisms.append((path_name(names), src, tgt))
        by_endpoints[(src, names)] = tgt
    composites = {}
    for src_f, names_f, tgt_f in paths:
        for src_g, names_g, tgt_g in paths:
            if src_g != tgt_f:
                continue
            composites[(path_name(names_g), path_name(names_f))] = path_name(
                names_f + names_g
            )
    identities = {v: "id_%s" % v for v in nodes}
    return validate_category(nodes, morphisms, identities, composites)


# ---------------------------------------------------------------------------
# Named categories.


def point():
    return validate_category(("*",), (("id_*", "*", "*"),), {"*": "id_*"}, {})


def arrow():
    return validate_category(
        ("a", "b"),
        (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")),
        {"a": "id_a", "b": "id_b"},
        {},
    )


def parallel_pair():
    return validate_category(
        ("a", "b"),
        (
            ("id_a", "a", "a"),
            ("id_b", "b", "b"),
            ("f", "a", "b"),
            ("g", "a", "b"),
        ),
        {"a": "id_a", "b": "id_b"},
        {},
    )


def vee():
    """Two legs into one apex: x -> z <- y."""
    return poset_category(("x", "y", "z"), (("x", "z"), ("y", "z")))


def square():
    """Commutative square poset: p below q and r, both below s."""
    return poset_category(
        ("p", "q", "r", "s"),
        (("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")),
    )


def z2():
    """The two-element group as a one-object category."""
    return monoid_category(("e", "s"), "e", {("s", "s"): "e"})


def idem():
    """The free idempotent: one object, one non-identity arrow e with ee=e."""
    return monoid_category(("id_*", "e"), "id_*", {("e", "e"): "e"})


def discrete2():
    return validate_category(
        ("c0", "c1"),
        (("id_c0", "c0", "c0"), ("id_c1", "c1", "c1")),
        {"c0": "id_c0", "c1": "id_c1"},
        {},
    )


# ---------------------------------------------------------------------------
# Named sites.


def _mask(category, names):
    mask = 0
    for name in names:
        mask |= 1 << category.mor_index(name)
    return mask


def _site_point_trivial():
    cat = point()
    return SiteFile(
        "point-trivial",
        cat,
        trivial_topology(cat),
        {},
        {"P": Presheaf(cat, (2,), (tuple(range(2)),))},
    )


def _arrow_subs(cat):
    return {
        "left": subcategory(cat, ("a",), ("id_a",)),
        "right": subcategory(cat, ("b",), ("id_b",)),
    }


def _site_arrow_trivial():
    cat = arrow()
    return SiteFile("arrow-trivial", cat, trivial_topology(cat), _arrow_subs(cat), {})


def _site_arrow_j2():
    """Cover b by the sieve generated by f; a only by its maximal sieve."""
    cat = arrow()
    covering = (
        (cat.maximal_sieve(0),),
        tuple(sorted((_mask(cat, ("f",)), cat.maximal_sieve(1)))),
    )
    J = topology(cat, covering)
    P = Presheaf(cat, (1, 2), ((0,), (0, 1), (0, 0)))
    return SiteFile("arrow-j2", cat, J, _arrow_subs(cat), {"P": P})


def _site_arrow_emptycover():
    """The empty sieve covers a; this forces sheaves to be singletons at a."""
    cat = arrow()
    covering = (
        tuple(sorted((0, cat.maximal_sieve(0)))),
        (cat.maximal_sieve(1),),
    )
    J = topology(cat, covering)
    return SiteFile("arrow-emptycover", cat, J, _arrow_subs(cat), {})


def _site_pair_trivial():
    cat = parallel_pair()
    P = Presheaf(cat, (2, 2), ((0, 1), (0, 1), (0, 1), (1, 0)))
    return SiteFile("pair-trivial", cat, trivial_topology(cat), {}, {"P": P})


def _site_vee_cover():
    """Cover the apex by its two legs."""
    cat = vee()
    z = cat.obj_index("z")
    covering = []
    for c in range(len(cat.objects)):
        if c == z:
            covering.append(
                tuple(sorted((_mask(cat, ("x->z", "y->z")), cat.maximal_sieve(c))))
            )
        else:
            covering.append((cat.maximal_sieve(c),))
    J = topology(cat, tuple(covering))
    subs = {"legs": subcategory(cat, ("x", "y"), ("id_x", "id_y"))}
    return SiteFile("vee-cover", cat, J, subs, {})


def _site_vee_trivial():
    cat = vee()
    subs = {"legs": subcategory(cat, ("x", "y"), ("id_x", "id_y"))}
    return SiteFile("vee-trivial", cat, trivial_topology(cat), subs, {})


def _site_square_cover():
    """Cover the top of the square by its two sides."""
    cat = square()
    s = cat.obj_index("s")
    legs = generated_topology(
        cat,
        {s: [[cat.mor_index("q->s"), cat.mor_index("r->s")]]},
    )
    subs = {
        "sides": subcategory(cat, ("q", "r"), ("id_q", "id_r")),
        "corner": subcategory(cat, ("p", "s"), ("id_p", "id_s", "p->s")),
    }
    return SiteFile("square-cover", cat, legs, subs, {})


def _site_z2_atomic():
    cat = z2()
    return SiteFile("z2-atomic", cat, atomic_topology(cat), {}, {})


def _site_z2_trivial():
    cat = z2()
    reg = Presheaf(cat, (2,), ((0, 1), (1, 0)))
    return SiteFile("z2-trivial", cat, trivial_topology(cat), {}, {"R": reg})


def _site_idem_e():
    """Cover the point by the sieve {e}."""
    cat = idem()
    J = topology(cat, (tuple(sorted((_mask(cat, ("e",)), cat.maximal_sieve(0)))),))
    subs = {"strict": subcategory(cat, ("*",), ("id_*",))}
    return SiteFile("idem-e", cat, J, subs, {})


def _site_idem_trivial():
    cat = idem()
    subs = {"strict": subcategory(cat, ("*",), ("id_*",))}
    return SiteFile("idem-trivial", cat, trivial_topology(cat), subs, {})


def _site_discrete2_maximal():
    cat = discrete2()
    subs = {"first": subcategory(cat, ("c0",), ("id_c0",))}
    return SiteFile("discrete2-maximal", cat, maximal_topology(cat), subs, {})


def _site_discrete2_trivial():
    cat = discrete2()
    return SiteFile("discrete2-trivial", cat, trivial_topology(cat), {}, {})


SITE_BUILDERS = (
    _site_point_trivial,
    _site_arrow_trivial,
    _site_arrow_j2,
    _site_arrow_emptycover,
    _site_pair_trivial,
    _site_vee_trivial,
    _site_vee_cover,
    _site_square_cover,
    _site_z2_trivial,
    _site_z2_atomic,
    _site_idem_trivial,
    _site_idem_e,
    _site_discrete2_trivial,
    _site_discrete2_maximal,
)


def named_sites():
    return [build() for build in SITE_BUILDERS]


def named_site(name):
    for build in SITE_BUILDERS:
        site = build()
        if site.name == name:
            return site
    raise KeyError(
        "unknown site %r (have %s)"
        % (name, ", ".join(sorted(b().name for b in SITE_BUILDERS)))
    )


# ---------------------------------------------------------------------------
# Seeded random categories and sites.


def random_poset_category(rng, max_morphisms=12, max_attempts=200):
    """Random poset on 2..4 points with a bounded topology search space."""
    for _ in range(max_attempts):
        n = rng.randint(2, 4)
        elements = tuple("v%d" % i for i in range(n))
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    pairs.append((elements[i], elements[j]))
        cat = poset_category(elements, pairs)
        if (
            len(cat.morphisms) <= max_morphisms
            and count_candidate_assignments(cat) <= DEFAULT_MAX_ASSIGNMENTS
        ):
            return cat
    raise RuntimeError("no poset within bounds after %d attempts" % max_attempts)


def random_path_category(rng, max_morphisms=12, max_attempts=200):
    """Free category on a random DAG, morphism count bounded."""
    for _ in range(max_attempts):
        n = rng.randint(2, 4)
        nodes = tuple("n%d" % i for i in range(n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append(("e%d_%d" % (i, j), nodes[i], nodes[j]))
        cat = path_category(nodes, edges, max_morphisms=max_morphisms)
        if cat is None:
            continue
        if count_candidate_assignments(cat) <= DEFAULT_MAX_ASSIGNMENTS:
            return cat
    raise RuntimeError("no path category within bounds after %d attempts" % max_attempts)


def random_topology(rng, category):
    """Random topology: named ones sometimes, else generated from seeds."""
    roll = rng.random()
    if roll < 0.25:
        return trivial_topology(category)
    if roll < 0.4:
        return maximal_topology(category)
    families = {}
    for c in range(len(category.objects)):
        if rng.random() < 0.6:
            arrows = [f for f in category.into(c) if rng.random() < 0.5]
            families[c] = [arrows]
    return generated_topology(category, families)


def random_subcategory(rng, category):
    """Full subcategory on a random nonempty proper-or-improper subset."""
    n = len(category.objects)
    keep = [c for c in range(n) if rng.random() < 0.6]
    if not keep:
        keep = [rng.randrange(n)]
    return full_subcategory_from_mask(category, sum(1 << c for c in keep))


def random_sites(seed, count=4):
    """Deterministic list of random sites for the given seed."""
    rng = random.Random(seed)
    sites = []
    for i in range(count):
        if i % 2 == 0:
            cat = random_poset_category(rng)
            kind = "poset"
        else:
            cat = random_path_category(rng)
            kind = "paths"
        J = random_topology(rng, cat)
        subs = {"sample": random_subcategory(rng, cat)}
        presheaves = {"P": random_presheaf(cat, rng)}
        sites.append(
            SiteFile("random-%s-%d-seed%d" % (kind, i, seed), cat, J, subs, presheaves)
        )
    return sites


def corpus(seed=0, random_count=4):
    """The named fixtures followed by seeded random sites."""
    return named_sites() + random_sites(seed, random_count)
