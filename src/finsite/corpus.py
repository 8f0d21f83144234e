"""Built-in categories and sites used by tests and the command line.

Everything here is deterministic: the named sites are fixed data, rows of
`NAMED_SITES` whose topology and subcategory blocks are written in the site
schema and read by `siteio`'s loader, and the random families are driven
entirely by a caller-supplied seed.
"""

import random

from .category import full_subcategory_from_mask, validate_category
from .presheaf import Presheaf, random_presheaf
from .siteio import SiteFile, parse_subcategory, parse_topology
from .topology import (
    DEFAULT_MAX_ASSIGNMENTS,
    count_candidate_assignments,
    generated_topology,
    maximal_topology,
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
    for src, names, tgt in paths:
        morphisms.append((path_name(names), src, tgt))
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
    return path_category(("*",), ())


def arrow():
    return path_category(("a", "b"), (("f", "a", "b"),))


def parallel_pair():
    return path_category(("a", "b"), (("f", "a", "b"), ("g", "a", "b")))


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
    return path_category(("c0", "c1"), ())


# ---------------------------------------------------------------------------
# Named sites.

_TRIVIAL = {"named": "trivial"}
_ENDS = {"left": {"objects": ["a"]}, "right": {"objects": ["b"]}}
_LEGS = {"legs": {"objects": ["x", "y"]}}
_STRICT = {"strict": {"objects": ["*"], "morphisms": ["id_*"]}}

# One row per named site: its name, its category, and its topology and
# subcategory blocks in the site schema (read by `siteio`), with its
# presheaves as name -> (sizes, actions).
NAMED_SITES = (
    ("point-trivial", point, _TRIVIAL, {}, {"P": ((2,), ((0, 1),))}),
    ("arrow-trivial", arrow, _TRIVIAL, _ENDS, {}),
    # b is covered by the sieve generated by f, a only by its maximal sieve
    ("arrow-j2", arrow, {"coverage": {"a": [["id_a"]], "b": [["f"], ["id_b", "f"]]}},
     _ENDS, {"P": ((1, 2), ((0,), (0, 1), (0, 0)))}),
    # the empty sieve covers a, which forces sheaves to be singletons there
    ("arrow-emptycover", arrow,
     {"coverage": {"a": [[], ["id_a"]], "b": [["id_b", "f"]]}}, _ENDS, {}),
    ("pair-trivial", parallel_pair, _TRIVIAL, {},
     {"P": ((2, 2), ((0, 1), (0, 1), (0, 1), (1, 0)))}),
    ("vee-trivial", vee, _TRIVIAL, _LEGS, {}),
    # the apex is covered by its two legs
    ("vee-cover", vee, {"coverage": {
        "x": [["id_x"]], "y": [["id_y"]],
        "z": [["x->z", "y->z"], ["id_z", "x->z", "y->z"]],
    }}, _LEGS, {}),
    # the top of the square is covered by its two sides
    ("square-cover", square, {"generate": {"s": [["q->s", "r->s"]]}},
     {"sides": {"objects": ["q", "r"]}, "corner": {"objects": ["p", "s"]}}, {}),
    ("z2-trivial", z2, _TRIVIAL, {}, {"R": ((2,), ((0, 1), (1, 0)))}),
    ("z2-atomic", z2, {"named": "atomic"}, {}, {}),
    ("idem-trivial", idem, _TRIVIAL, _STRICT, {}),
    # the point is covered by the sieve {e}
    ("idem-e", idem, {"coverage": {"*": [["e"], ["id_*", "e"]]}}, _STRICT, {}),
    ("discrete2-trivial", discrete2, _TRIVIAL, {}, {}),
    ("discrete2-maximal", discrete2, {"named": "maximal"},
     {"first": {"objects": ["c0"]}}, {}),
)


def _named_site(name, category, topology, subcategories, presheaves):
    cat = category()
    return SiteFile(
        name,
        cat,
        parse_topology(cat, topology),
        {
            key: parse_subcategory(cat, block, "subcategory %r" % key)
            for key, block in subcategories.items()
        },
        {key: Presheaf(cat, *table) for key, table in presheaves.items()},
    )


def named_sites():
    return [_named_site(*row) for row in NAMED_SITES]


def named_site(name):
    for row in NAMED_SITES:
        if row[0] == name:
            return _named_site(*row)
    raise KeyError(
        "unknown site %r (have %s)"
        % (name, ", ".join(sorted(row[0] for row in NAMED_SITES)))
    )


# ---------------------------------------------------------------------------
# Seeded random categories and sites.


# draws of a random category before `_random_category` gives up
_MAX_ATTEMPTS = 200


def _random_category(rng, what, prefix, chance, build):
    """Draws 2..4 vertices named prefix + index and, for each pair i < j in
    turn, the edge i -> j with the given chance, until build(vertices,
    edges) gives a category (not None) with a bounded topology search."""
    for _ in range(_MAX_ATTEMPTS):
        n = rng.randint(2, 4)
        vertices = tuple("%s%d" % (prefix, i) for i in range(n))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < chance
        ]
        cat = build(vertices, edges)
        if cat is None:
            continue
        if count_candidate_assignments(cat) <= DEFAULT_MAX_ASSIGNMENTS:
            return cat
    raise RuntimeError("no %s within bounds after %d attempts" % (what, _MAX_ATTEMPTS))


def random_poset_category(rng, max_morphisms=12):
    """Random poset on 2..4 points with a bounded topology search space."""

    def build(points, edges):
        cat = poset_category(points, [(points[i], points[j]) for i, j in edges])
        return cat if len(cat.morphisms) <= max_morphisms else None

    return _random_category(rng, "poset", "v", 0.45, build)


def random_path_category(rng, max_morphisms=12):
    """Free category on a random DAG, morphism count bounded."""

    def build(nodes, edges):
        named = [("e%d_%d" % (i, j), nodes[i], nodes[j]) for i, j in edges]
        return path_category(nodes, named, max_morphisms=max_morphisms)

    return _random_category(rng, "path category", "n", 0.4, build)


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
