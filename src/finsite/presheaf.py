"""Finite-set-valued presheaves and natural transformations.

A presheaf stores, per object, an integer size (elements are 0..size-1) and,
per morphism f: a -> b, a function table of length size(b) with entries below
size(a).  Functoriality is checked when a presheaf is built from outside
data: `Presheaf(...)`, and so site files and `random_presheaf`; naturality
likewise for `NatTransformation(...)`.  The constructions here and in
`sheaf.py` and `classify.py` build presheaves and maps whose laws hold by
construction (Yoneda, pullbacks and the limits built from them, natural maps
found by the solver, the plus construction, restriction), and build them
through the unchecked `_trusted` constructors; the tests recheck the laws on
all of them.

A natural map P -> Q is a compatible family on the elements of P: each
element x of P(c) takes a value in Q(c), and each f: a -> b requires the
value at P(f)x to be Q(f) of the value at x.  `compatible_families` is the
one solver for such searches; matching families use it as well, and the
right Kan extension reads its values off `presheaf_homs`.
"""

from functools import cached_property
from itertools import islice

from .category import Frozen
from .errors import PresheafLawError


class Presheaf(Frozen):
    """A presheaf on `category`: `sizes` per object, `actions` per morphism
    a tuple of ints."""

    _fields = ("category", "sizes", "actions")

    def __init__(self, category, sizes, actions):
        self.__dict__.update(category=category, sizes=sizes, actions=actions)
        self._check_laws(category.identity)

    def _check_laws(self, identities, tables_checked=False):
        """Shapes, arities and value ranges (unless `tables_checked` says
        the caller has found them right), the identity arrows given act as
        identities, and functoriality, each raising at its first failure."""
        cat = self.category
        if not tables_checked:
            if len(self.sizes) != len(cat.objects) or len(self.actions) != len(
                cat.morphisms
            ):
                raise PresheafLawError("value tables have the wrong shape")
            for f, tab in enumerate(self.actions):
                a, b = cat.dom[f], cat.cod[f]
                if len(tab) != self.sizes[b]:
                    raise PresheafLawError(
                        "action of %r has arity %d, expected %d"
                        % (cat.morphisms[f], len(tab), self.sizes[b])
                    )
                if tab and (min(tab) < 0 or max(tab) >= self.sizes[a]):
                    raise PresheafLawError(
                        "action of %r leaves the value set" % (cat.morphisms[f],)
                    )
        for f in identities:
            c = cat.dom[f]
            if self.actions[f] != tuple(range(self.sizes[c])):
                raise PresheafLawError(
                    "identity of %r must act as the identity" % (cat.objects[c],)
                )
        # once identities act as identities, every entry holding one holds,
        # and every entry filled in when the category was built holds one
        skip = set(cat.identity)
        actions = self.actions
        for (g, f), h in islice(cat.table.items(), cat._given):
            if g in skip or f in skip:
                continue
            if actions[h] != tuple(map(actions[f].__getitem__, actions[g])):
                raise PresheafLawError(
                    "functoriality fails at %r after %r"
                    % (cat.morphisms[g], cat.morphisms[f])
                )

    @classmethod
    def _checked(cls, category, sizes, actions, identities, tables_checked):
        """A presheaf from outside data whose identity arrows other than
        those given act as identities by construction; every other law is
        checked as `Presheaf(...)` checks it, the arities and value ranges
        only if not `tables_checked`."""
        P = cls._trusted(category, sizes, actions)
        P._check_laws(identities, tables_checked)
        return P

    @classmethod
    def _trusted(cls, category, sizes, actions):
        """A presheaf whose laws hold by construction, built unchecked."""
        P = object.__new__(cls)
        P.__dict__.update(category=category, sizes=sizes, actions=actions)
        return P

    @cached_property
    def _orbits(self):
        """The elements in one bit space, object after object: the offset of
        each object's elements, and per element (c, x) the mask of its orbit
        {(dom f, P(f)x) : f into c}, the least subpresheaf holding it."""
        cat = self.category
        start = [0]
        for n in self.sizes:
            start.append(start[-1] + n)
        orbits = []
        for c, n in enumerate(self.sizes):
            at = [(start[cat.dom[f]], self.actions[f]) for f in cat.into(c)]
            for x in range(n):
                mask = 0
                for offset, tab in at:
                    mask |= 1 << offset + tab[x]
                orbits.append(mask)
        return tuple(start), tuple(orbits)

    @cached_property
    def _hull_steps(self):
        """Memo of `objects._restrictions`, the elements grouped by their
        orbits' part in P|E_D that `objects.closed_hull` and
        `objects.subobjects` close along, keyed by the least covering sieves
        of the topology."""
        return {}

    @cached_property
    def _sheaf_verdicts(self):
        """Memo of `sheaf.is_sheaf`, keyed by the least covering sieves of
        the topology."""
        return {}


class NatTransformation(Frozen):
    """A natural map `source` -> `target`; `components` holds per object a
    tuple mapping source elements to target elements."""

    _fields = ("source", "target", "components")

    def __init__(self, source, target, components):
        self.__dict__.update(source=source, target=target, components=components)
        P, Q = source, target
        cat = P.category
        _same_category(P, Q)
        if len(self.components) != len(cat.objects):
            raise PresheafLawError(
                "%d components for %d objects"
                % (len(self.components), len(cat.objects))
            )
        for c, comp in enumerate(self.components):
            if len(comp) != P.sizes[c]:
                raise PresheafLawError("component at %r has wrong arity" % (c,))
            if any(x < 0 or x >= Q.sizes[c] for x in comp):
                raise PresheafLawError("component at %r leaves the target" % (c,))
        for f in range(len(cat.morphisms)):
            a, b = cat.dom[f], cat.cod[f]
            for x in range(P.sizes[b]):
                if Q.actions[f][self.components[b][x]] != self.components[a][
                    P.actions[f][x]
                ]:
                    raise PresheafLawError(
                        "naturality fails at %r" % (cat.morphisms[f],)
                    )

    @classmethod
    def _trusted(cls, source, target, components):
        """A natural map that is natural by construction, built unchecked."""
        t = object.__new__(cls)
        t.__dict__.update(source=source, target=target, components=components)
        return t

    def is_componentwise_injective(self):
        return all(
            len(set(comp)) == len(comp) for comp in self.components
        )

    def is_componentwise_surjective(self):
        return all(
            set(comp) == set(range(self.target.sizes[c]))
            for c, comp in enumerate(self.components)
        )

    def is_componentwise_bijective(self):
        return (
            self.is_componentwise_injective()
            and self.is_componentwise_surjective()
        )


def _same_category(P, Q):
    if P.category != Q.category:
        raise PresheafLawError("presheaves live on different categories")


def compose_nat(t2, t1):
    """t2 after t1."""
    if t1.target != t2.source:
        raise PresheafLawError("natural transformations do not compose")
    comps = tuple(
        tuple(t2.components[c][x] for x in t1.components[c])
        for c in range(len(t1.components))
    )
    return NatTransformation._trusted(t1.source, t2.target, comps)


def yoneda(category, c):
    """The representable presheaf of object index c."""
    sizes = tuple(
        len(category.hom(d, c)) for d in range(len(category.objects))
    )
    index = {}
    for d in range(len(category.objects)):
        for i, h in enumerate(category.hom(d, c)):
            index[h] = i
    actions = []
    for g in range(len(category.morphisms)):
        b = category.cod[g]
        tab = tuple(
            index[category.compose(h, g)] for h in category.hom(b, c)
        )
        actions.append(tab)
    return Presheaf._trusted(category, sizes, tuple(actions))


def compatible_families(sizes, edges):
    """Every assignment v with v[i] < sizes[i] and v[j] == tab[v[i]] for each
    edge (tab, j) in edges[i], in ascending lexicographic order.

    The search branches on the lowest unassigned node, tries its values in
    ascending order and propagates forced values along the edges, failing at
    the first conflict.  Every node below the branched one is assigned by
    then, which gives the order.  Branch points live on an explicit stack, so
    the depth of the search is not bounded by the recursion limit.  Entries
    of each tab must lie below the size of the edge's target node.
    """
    n = len(sizes)
    value = [None] * n
    trail = []  # assigned nodes, in assignment order
    branches = []  # (node, value, length of trail before it)
    i, x = 0, 0
    while True:
        while i < n and value[i] is not None:
            i += 1
        if i == n:
            yield tuple(value)
        elif x < sizes[i]:
            branches.append((i, x, len(trail)))
            if _propagate(edges, value, trail, i, x):
                x = 0
                continue
        if not branches:
            return
        i, x, mark = branches.pop()
        for j in trail[mark:]:
            value[j] = None
        del trail[mark:]
        x += 1


def _propagate(edges, value, trail, i, x):
    """Assign x to node i and every value it forces; False on a conflict."""
    value[i] = x
    k = len(trail)
    trail.append(i)
    while k < len(trail):
        u = trail[k]
        k += 1
        xu = value[u]
        for tab, j in edges[u]:
            y = tab[xu]
            if value[j] is None:
                value[j] = y
                trail.append(j)
            elif value[j] != y:
                return False
    return True


def _natural_maps(P, Q):
    """Natural maps P -> Q as compatible families on the elements of P.

    Element x of P(c) is a node with values in Q(c); f: a -> b ties node
    (b, x) to node (a, P(f)x) through Q(f), which is naturality at f.
    """
    cat = P.category
    _same_category(P, Q)
    start = [0]
    for n in P.sizes:
        start.append(start[-1] + n)
    sizes = [Q.sizes[c] for c, n in enumerate(P.sizes) for _ in range(n)]
    edges = [[] for _ in sizes]
    for f in range(len(cat.morphisms)):
        if cat.is_identity(f):
            continue
        a, b = cat.dom[f], cat.cod[f]
        for x, y in enumerate(P.actions[f]):
            edges[start[b] + x].append((Q.actions[f], start[a] + y))
    return (
        NatTransformation._trusted(
            P, Q, tuple(v[start[c]:start[c + 1]] for c in range(len(P.sizes)))
        )
        for v in compatible_families(sizes, edges)
    )


def _natural_isos(P, Q):
    maps = _natural_maps(P, Q)  # checks the categories before the sizes
    if P.sizes != Q.sizes:
        return iter(())
    return (t for t in maps if t.is_componentwise_bijective())


def presheaf_homs(P, Q):
    """Every natural transformation P -> Q, in ascending order of their
    concatenated components."""
    return tuple(_natural_maps(P, Q))


def presheaf_isos(P, Q):
    """Every componentwise-bijective natural transformation P -> Q, in the
    order of presheaf_homs."""
    return tuple(_natural_isos(P, Q))


def are_isomorphic(P, Q):
    """The first natural isomorphism in the order of presheaf_isos, or None."""
    return next(_natural_isos(P, Q), None)


# ---------------------------------------------------------------------------
# Finite limits, computed objectwise.  The pullback is the one construction
# of pairs; the product is the pullback over the terminal presheaf.


def terminal_presheaf(category):
    return Presheaf._trusted(
        category,
        tuple(1 for _ in category.objects),
        tuple((0,) * 1 for _ in category.morphisms),
    )


def product_presheaf(P, Q):
    """Product with projections, as the pullback of P -> 1 <- Q; pair (x, y)
    has index x*|Q|+y."""
    T = terminal_presheaf(P.category)
    to_one = [
        NatTransformation._trusted(S, T, tuple((0,) * n for n in S.sizes))
        for S in (P, Q)
    ]
    return pullback_presheaf(*to_one)


def equalizer_presheaf(s, t):
    """Equalizer of parallel maps s, t: P -> Q, with its inclusion."""
    P = s.source
    cat = P.category
    keep = [
        tuple(x for x, (y, z) in enumerate(zip(sc, tc)) if y == z)
        for sc, tc in zip(s.components, t.components)
    ]
    pos = [{x: i for i, x in enumerate(xs)} for xs in keep]
    actions = tuple(
        tuple(pos[cat.dom[f]][P.actions[f][x]] for x in keep[cat.cod[f]])
        for f in range(len(cat.morphisms))
    )
    E = Presheaf._trusted(cat, tuple(map(len, keep)), actions)
    return E, NatTransformation._trusted(E, P, tuple(keep))


def pullback_presheaf(s, t):
    """Pullback of s: P -> R against t: Q -> R, with both projections.

    W(c) is the pairs (x, y) with s(x) = t(y), in ascending order, which is
    the order of the equalizer of s and t inside the product P x Q.
    """
    P, Q = s.source, t.source
    cat = P.category
    pairs = []
    for c in range(len(cat.objects)):
        over = {}
        for y, z in enumerate(t.components[c]):
            over.setdefault(z, []).append(y)
        pairs.append(
            [(x, y) for x, z in enumerate(s.components[c]) for y in over.get(z, ())]
        )
    pos = [{p: i for i, p in enumerate(ps)} for ps in pairs]
    actions = tuple(
        tuple(
            pos[cat.dom[f]][(P.actions[f][x], Q.actions[f][y])]
            for x, y in pairs[cat.cod[f]]
        )
        for f in range(len(cat.morphisms))
    )
    W = Presheaf._trusted(cat, tuple(len(ps) for ps in pairs), actions)
    p1 = NatTransformation._trusted(
        W, P, tuple(tuple(x for x, _ in ps) for ps in pairs)
    )
    p2 = NatTransformation._trusted(
        W, Q, tuple(tuple(y for _, y in ps) for ps in pairs)
    )
    return W, p1, p2


def kernel_pair(t):
    """Pullback of t against itself, with the two projections."""
    return pullback_presheaf(t, t)


# ---------------------------------------------------------------------------
# Seeded random presheaves.


def random_presheaf(category, rng, max_value=3):
    """A random presheaf with value sizes in 0..max_value.

    The draws of one attempt, in order: one `randint(0, max_value)` size per
    object, the attempt ending there unless every arrow can act; one shuffle
    of the non-identity arrows; then, in shuffled order, one `randrange` per
    value of each arrow whose table no composite has forced yet.  After each
    drawn table, every table that composites force is set, and a forced
    table unequal to one already set ends the attempt.  At most 1000
    attempts, then `PresheafLawError`.  Deterministic for a given rng state.

    Forcing runs off a worklist of the entries (g, f) -> h under the arrows
    just set.  The tables it sets are the least set holding the drawn ones
    and closed under "P(g) and P(f) force P(h)", which is the same in any
    visiting order, and an attempt fails exactly when that set gives an
    arrow two tables.  So the draws and failures are those of rescanning
    the whole table to a fixed point after each draw.  Entries with an
    identity operand force nothing new once identities act as identities.
    """
    cat = category
    n_mor = len(cat.morphisms)
    skip = set(cat.identity)
    uses = [[] for _ in range(n_mor)]  # per arrow, the entries it is an operand of
    for (g, f), h in cat.table.items():
        if g not in skip and f not in skip:
            for u in {g, f}:
                uses[u].append((g, f, h))
    for _ in range(1000):
        sizes = [rng.randint(0, max_value) for _ in cat.objects]
        if any(
            sizes[cat.cod[f]] > 0 and sizes[cat.dom[f]] == 0
            for f in range(n_mor)
        ):
            continue
        tables = {}
        for c in range(len(cat.objects)):
            tables[cat.identity[c]] = tuple(range(sizes[c]))
        order = [f for f in range(n_mor) if f not in tables]
        rng.shuffle(order)
        if _fill_tables(cat, uses, sizes, tables, order, rng):
            actions = tuple(tables[f] for f in range(n_mor))
            return Presheaf(cat, tuple(sizes), actions)
    raise PresheafLawError("random presheaf generation did not converge")


def _fill_tables(cat, uses, sizes, tables, order, rng):
    for f in order:
        if f in tables:
            continue
        a, b = cat.dom[f], cat.cod[f]
        tab = tuple(
            rng.randrange(sizes[a]) for _ in range(sizes[b])
        ) if sizes[a] else ()
        tables[f] = tab
        todo = [f]
        while todo:
            for g, f2, h in uses[todo.pop()]:
                if g in tables and f2 in tables:
                    via = tuple(map(tables[f2].__getitem__, tables[g]))
                    if h not in tables:
                        tables[h] = via
                        todo.append(h)
                    elif tables[h] != via:
                        return False
    return True
