"""Finite categories as explicit, validated composition tables.

Objects and morphisms are referred to by stable integer indices in declaration
order; names are kept only for input and output.  All derived structure
(hom-sets, arrows into an object, composites) is precomputed once at
construction so the rest of the package can treat a category as a lookup
table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import mul

from .errors import (
    CodomainMismatch,
    IdentityLawViolation,
    InvalidSubcategory,
    MissingIdentity,
    NonAssociative,
    TypeMismatch,
    UndefinedComposite,
    UnknownName,
    UnknownObject,
)


def bits(mask):
    """Yield the set bit positions of an int mask, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def fact(category, key, compute, *args):
    """compute(category, *args), computed once per category and key.

    The site facts several report tasks read are memoised here: the
    category's `is_cartesian`, `has_right_ore` and `is_cauchy_complete`,
    and per topology, keyed by its least sieves, `j_irreducible_objects`,
    `is_rigid`, `is_subcanonical` and the plus frame of `sheaf._plus`.  The
    first caller computes a fact under the category's own lock while callers
    on other threads wait for it; the lock is reentrant, as one fact reads
    others of the same category.  A compute function must take no other
    lock, nor read the facts of another category.
    """
    facts = category._facts
    if key in facts:
        return facts[key]
    with category._fact_lock:
        if key not in facts:
            facts[key] = compute(category, *args)
        return facts[key]


class FiniteCategory:
    """A finite category given by a total composition table.

    `table[(g, f)] = g after f` is defined exactly when `cod(f) == dom(g)`.
    Instances are immutable once built; use `validate_category` to construct
    one from named data with full law checking.
    """

    __slots__ = (
        "objects",
        "morphisms",
        "dom",
        "cod",
        "identity",
        "table",
        "_obj_index",
        "_mor_index",
        "_hom",
        "_into",
        "_outof",
        "_principal",
        "_maximal",
        "_sieves",
        "_described",
        "_realized",
        "_rep_sheaves",
        "_retracts",
        "_facts",
        "_fact_lock",
        "_hash",
        "__weakref__",
    )

    def __init__(self, objects, morphisms, dom, cod, identity, table):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.identity = tuple(identity)
        self.table = dict(table)
        self._obj_index = {name: i for i, name in enumerate(self.objects)}
        self._mor_index = {name: i for i, name in enumerate(self.morphisms)}
        n_obj = len(self.objects)
        hom = {}
        into = [[] for _ in range(n_obj)]
        outof = [[] for _ in range(n_obj)]
        maximal = [0] * n_obj
        for f, (a, b) in enumerate(zip(self.dom, self.cod)):
            hom.setdefault((a, b), []).append(f)
            into[b].append(f)
            outof[a].append(f)
            maximal[b] |= 1 << f
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._into = tuple(tuple(v) for v in into)
        self._outof = tuple(tuple(v) for v in outof)
        self._maximal = tuple(maximal)
        principal = []
        for f in range(len(self.morphisms)):
            mask = 0
            for g in self._into[self.dom[f]]:
                mask |= 1 << self.table[(f, g)]
            principal.append(mask)
        self._principal = tuple(principal)
        # memos filled by sieves.py, Subcategory.realize, sheaf.py and topology.py
        self._sieves = {}
        self._described = {}
        self._realized = {}
        self._rep_sheaves = {}
        self._retracts = None
        # site facts, filled by `fact` under `_fact_lock`
        self._facts = {}
        self._fact_lock = threading.RLock()
        # computed on first use: hashing sorts the whole composition table
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.dom == other.dom
            and self.cod == other.cod
            and self.identity == other.identity
            and self.table == other.table
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (
                    self.objects,
                    self.morphisms,
                    self.dom,
                    self.cod,
                    self.identity,
                    tuple(sorted(self.table.items())),
                )
            )
        return self._hash

    def __repr__(self):
        return "FiniteCategory(%d objects, %d morphisms)" % (
            len(self.objects),
            len(self.morphisms),
        )

    def obj_index(self, name):
        try:
            return self._obj_index[name]
        except KeyError:
            raise UnknownObject("unknown object %r" % (name,)) from None

    def mor_index(self, name):
        try:
            return self._mor_index[name]
        except KeyError:
            raise UnknownName("unknown morphism %r" % (name,)) from None

    def compose(self, g, f):
        """Composite g after f; both arguments are morphism indices."""
        return self.table[(g, f)]

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def into(self, c):
        """All morphism indices with codomain c, ascending."""
        return self._into[c]

    def outof(self, c):
        return self._outof[c]

    def is_identity(self, f):
        return self.identity[self.dom[f]] == f

    def maximal_sieve(self, c):
        """Mask of all arrows into c."""
        return self._maximal[c]

    def principal_sieve(self, f):
        """Mask of the sieve generated by the single arrow f."""
        return self._principal[f]


def validate_category(objects, morphisms, identities, composites):
    """Build a FiniteCategory from named data, checking every law.

    objects: iterable of object names.
    morphisms: iterable of (name, dom, cod) triples, identities included.
    identities: mapping object name -> morphism name.
    composites: mapping (g_name, f_name) -> h_name for g after f; pairs
        involving identities may be left out and are filled in.

    Raises a CategoryLawError subclass naming the first violated law, with
    witnesses attached.
    """
    objects = tuple(objects)
    morphisms = tuple(tuple(m) for m in morphisms)
    if len(set(objects)) != len(objects):
        raise UnknownObject("duplicate object names")
    names = [m[0] for m in morphisms]
    if len(set(names)) != len(names):
        raise UnknownName("duplicate morphism names")
    obj_index = {name: i for i, name in enumerate(objects)}
    mor_index = {name: i for i, name in enumerate(names)}
    dom = []
    cod = []
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
        i = obj_index[obj]
        f = mor_index[mor]
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

    # Identity laws: fill in elided entries, reject contradicting ones.
    n = len(morphisms)
    for f in range(n):
        left = (identity[cod[f]], f)
        right = (f, identity[dom[f]])
        for key in (left, right):
            if key in table:
                if table[key] != f:
                    raise IdentityLawViolation(
                        "identity composite at %r is %r, expected %r"
                        % (names[f], names[table[key]], names[f]),
                        witnesses=(names[key[0]], names[key[1]], names[table[key]]),
                    )
            else:
                table[key] = f

    # Totality and associativity over composable arrows: g after f for g
    # out of cod f, h after g for h out of cod g, each list ascending.
    outof = [[] for _ in objects]
    for g in range(n):
        outof[dom[g]].append(g)
    for f in range(n):
        for g in outof[cod[f]]:
            if (g, f) not in table:
                raise UndefinedComposite(
                    "no composite for %r after %r" % (names[g], names[f]),
                    witnesses=(names[g], names[f]),
                )

    for f in range(n):
        for g in outof[cod[f]]:
            gf = table[(g, f)]
            for h in outof[cod[g]]:
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise NonAssociative(
                        "h(gf) != (hg)f for h=%r g=%r f=%r"
                        % (names[h], names[g], names[f]),
                        witnesses=(names[h], names[g], names[f]),
                    )

    return FiniteCategory(objects, names, dom, cod, identity, table)


@dataclass(frozen=True)
class Subcategory:
    """A subcategory of a parent category, stored as index masks.

    Not necessarily full.  Must contain the identities of its objects and be
    closed under composition; `subcategory` checks this.
    """

    parent: FiniteCategory
    objects_mask: int
    morphisms_mask: int

    def object_indices(self):
        return tuple(bits(self.objects_mask))

    def morphism_indices(self):
        return tuple(bits(self.morphisms_mask))

    def has_object(self, c):
        return bool(self.objects_mask >> c & 1)

    def has_morphism(self, f):
        return bool(self.morphisms_mask >> f & 1)

    def contains(self, other):
        return (
            other.objects_mask & ~self.objects_mask == 0
            and other.morphisms_mask & ~self.morphisms_mask == 0
        )

    def realize(self):
        """Materialize as a standalone FiniteCategory with index maps."""
        return _realize(self)


@dataclass(frozen=True)
class RealizedSubcategory:
    """A Subcategory rebuilt as its own category, with maps to the parent."""

    parent: FiniteCategory
    category: FiniteCategory
    object_to_parent: tuple
    morphism_to_parent: tuple

    def parent_object(self, c):
        return self.object_to_parent[c]

    def parent_morphism(self, f):
        return self.morphism_to_parent[f]

    def local_object(self, c):
        return self._obj_back[c]

    def local_morphism(self, f):
        return self._mor_back[f]

    def __post_init__(self):
        object.__setattr__(
            self, "_obj_back", {p: i for i, p in enumerate(self.object_to_parent)}
        )
        object.__setattr__(
            self, "_mor_back", {p: i for i, p in enumerate(self.morphism_to_parent)}
        )


def _realize(sub):
    parent = sub.parent
    key = (sub.objects_mask, sub.morphisms_mask)
    hit = parent._realized.get(key)
    if hit is not None:
        return hit
    objs = tuple(bits(sub.objects_mask))
    mors = tuple(bits(sub.morphisms_mask))
    obj_pos = {c: i for i, c in enumerate(objs)}
    mor_pos = {f: i for i, f in enumerate(mors)}
    table = {}
    for g in mors:
        for f in mors:
            if parent.cod[f] == parent.dom[g]:
                table[(mor_pos[g], mor_pos[f])] = mor_pos[parent.compose(g, f)]
    cat = FiniteCategory(
        tuple(parent.objects[c] for c in objs),
        tuple(parent.morphisms[f] for f in mors),
        tuple(obj_pos[parent.dom[f]] for f in mors),
        tuple(obj_pos[parent.cod[f]] for f in mors),
        tuple(mor_pos[parent.identity[c]] for c in objs),
        table,
    )
    out = RealizedSubcategory(parent, cat, objs, mors)
    parent._realized[key] = out
    return out


def subcategory(parent, object_names, morphism_names):
    """Construct and check a Subcategory from names."""
    omask = 0
    for name in object_names:
        omask |= 1 << parent.obj_index(name)
    mmask = 0
    for name in morphism_names:
        mmask |= 1 << parent.mor_index(name)
    return subcategory_from_masks(parent, omask, mmask)


def subcategory_from_masks(parent, objects_mask, morphisms_mask):
    for c in bits(objects_mask):
        if not morphisms_mask >> parent.identity[c] & 1:
            raise InvalidSubcategory(
                "missing identity of %r" % (parent.objects[c],)
            )
    mors = tuple(bits(morphisms_mask))
    for f in mors:
        if not (objects_mask >> parent.dom[f] & 1 and objects_mask >> parent.cod[f] & 1):
            raise InvalidSubcategory(
                "morphism %r leaves the object selection" % (parent.morphisms[f],)
            )
    for g in mors:
        for f in mors:
            if parent.cod[f] == parent.dom[g]:
                h = parent.compose(g, f)
                if not morphisms_mask >> h & 1:
                    raise InvalidSubcategory(
                        "not closed: %r after %r = %r is missing"
                        % (
                            parent.morphisms[g],
                            parent.morphisms[f],
                            parent.morphisms[h],
                        )
                    )
    return Subcategory(parent, objects_mask, morphisms_mask)


def full_subcategory(parent, object_names):
    """Full subcategory on the given objects."""
    omask = 0
    for name in object_names:
        omask |= 1 << parent.obj_index(name)
    return full_subcategory_from_mask(parent, omask)


def full_subcategory_from_mask(parent, objects_mask):
    mmask = 0
    for f in range(len(parent.morphisms)):
        if objects_mask >> parent.dom[f] & 1 and objects_mask >> parent.cod[f] & 1:
            mmask |= 1 << f
    return Subcategory(parent, objects_mask, mmask)


def whole_subcategory(parent):
    return full_subcategory_from_mask(parent, (1 << len(parent.objects)) - 1)


@dataclass(frozen=True)
class CartesianReport:
    """Outcome of the finite-limit search, with witnesses or first failure."""

    ok: bool
    terminal: object = None
    products: object = None
    equalizers: object = None
    failure: object = None

    def __bool__(self):
        return self.ok


def is_cartesian(category):
    """Search exhaustively for a terminal object, binary products, equalizers;
    memoised on the category.

    Products of a and b are tried only on objects p with |hom(c, p)| =
    |hom(c, a)| |hom(c, b)| for every c, where (p1, p2) is a product exactly
    when h |-> (p1 h, p2 h) is injective on each hom(c, p) of two or more.
    A finite category with a terminal object and binary products is thin:
    the powers a^n exist, and |hom(c, a^n)| = |hom(c, a)|^n is bounded by
    the number of arrows for every n.  Its only parallel pairs are then
    (f, f), equalized by e -> dom f exactly when e is isomorphic to dom f,
    so the equalizers are read off and that stage never fails.
    """
    return fact(category, "cartesian", _is_cartesian)


def _is_cartesian(category):
    objs = range(len(category.objects))
    hom, table = category.hom, category.table
    counts = [[0] * len(objs) for _ in objs]  # counts[x][c] = |hom(c, x)|
    for c, x in zip(category.dom, category.cod):
        counts[x][c] += 1
    terminal = next((t for t in objs if all(n == 1 for n in counts[t])), None)
    if terminal is None:
        return CartesianReport(False, failure=("terminal",))

    alike = {}
    for p in objs:
        alike.setdefault(tuple(counts[p]), []).append(p)
    crowded = [[c for c in objs if counts[p][c] > 1] for p in objs]

    def product(a, b):
        want = tuple(map(mul, counts[a], counts[b]))
        for p in alike.get(want, ()):
            for p1 in hom(p, a):
                for p2 in hom(p, b):
                    if all(
                        len({(table[p1, h], table[p2, h]) for h in hom(c, p)})
                        == want[c]
                        for c in crowded[p]
                    ):
                        return p, p1, p2
        return None

    products = {}
    for a in objs:
        for b in objs:
            products[(a, b)] = found = product(a, b)
            if found is None:
                return CartesianReport(
                    False,
                    terminal=terminal,
                    failure=("product", category.objects[a], category.objects[b]),
                )
    # thin now: (f, f) is equalized by the least object isomorphic to dom f
    least = [
        next((e, hom(e, a)[0]) for e in objs if counts[a][e] and counts[e][a])
        for a in objs
    ]
    equalizers = {(f, f): least[a] for f, a in enumerate(category.dom)}
    return CartesianReport(True, terminal, products, equalizers)


@dataclass(frozen=True)
class OreReport:
    ok: bool
    counterexample: object = None

    def __bool__(self):
        return self.ok


def has_right_ore(category):
    """Every cospan f: a -> c <- b :g completes to a commutative square;
    memoised on the category.

    f p = g q for some p, q exactly when the sieves f and g generate meet,
    so each cospan costs one AND of their masks.
    """
    return fact(category, "right_ore", _has_right_ore)


def _has_right_ore(category):
    principal = category.principal_sieve
    for f in range(len(category.morphisms)):
        generated = principal(f)
        for g in category.into(category.cod[f]):
            if not generated & principal(g):
                return OreReport(
                    False, (category.morphisms[f], category.morphisms[g])
                )
    return OreReport(True)


@dataclass(frozen=True)
class CauchyReport:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def is_cauchy_complete(category):
    """Every idempotent splits; the witness is the first unsplit idempotent.
    Memoised on the category.  Identities split through their own object
    and are skipped."""
    return fact(category, "cauchy_complete", _is_cauchy_complete)


def _is_cauchy_complete(category):
    for e, (c, d) in enumerate(zip(category.dom, category.cod)):
        if c != d or category.identity[c] == e or category.compose(e, e) != e:
            continue
        if not _splits(category, e, c):
            return CauchyReport(False, category.morphisms[e])
    return CauchyReport(True)


def _splits(category, e, c):
    for d in range(len(category.objects)):
        for t in category.hom(c, d):
            for s in category.hom(d, c):
                if (
                    category.compose(s, t) == e
                    and category.compose(t, s) == category.identity[d]
                ):
                    return True
    return False
