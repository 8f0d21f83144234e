"""Finite categories as explicit, validated composition tables.

Objects and morphisms are referred to by stable integer indices in declaration
order; names are kept only for input and output.  All derived structure
(hom-sets, arrows into an object, composites) is precomputed once at
construction so the rest of the package can treat a category as a lookup
table.
"""

import threading
from collections import namedtuple
from itertools import product
from operator import mul

from .errors import (
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


def overlap_connected(masks, full):
    """Do the masks, grown by overlap from the first, cover `full`?  False
    when there are none."""
    if not masks:
        return False
    reached, grown = 0, masks[0]
    while grown != reached:
        reached = grown
        for mask in masks:
            if mask & reached:
                grown |= mask
    return reached == full


def unions(masks, start=0):
    """Every union of `start` with some of the given masks, `start` alone
    included, ascending.  The union walk adjoins each mask to each union
    found, so the work is proportional to the number of unions."""
    masks = set(masks)
    seen = {start}
    todo = [start]
    while todo:
        S = todo.pop()
        for P in masks:
            T = S | P
            if T not in seen:
                seen.add(T)
                todo.append(T)
    return tuple(sorted(seen))


def fact(category, key, compute, *args):
    """compute(category, *args), computed once per category and key.

    The site facts several report tasks read are memoised here: the
    category's `is_cartesian`, `has_right_ore`, `is_cauchy_complete` and
    the retract classes of its idempotents (`topology._retract_classes`),
    and per topology, keyed by its least sieves, `j_irreducible_objects`,
    `is_rigid`, `is_subcanonical`, the plus frame of `sheaf._plus`, the
    sheafified representables of `sheaf.representable_sheaf`, and in
    `objects.py` the fixed-arrow masks of the report's checks, the supports
    of the R_d, their generators and the regular probe's sources, and the
    presheaf site with its restricted representables.  The first caller
    computes a fact under the category's own lock while callers on other
    threads wait for it; the lock is reentrant, as one fact reads others of
    the same category.  A compute function must take no other lock, nor
    read the facts of another category.
    """
    facts = category._facts
    if key in facts:
        return facts[key]
    with category._fact_lock:
        if key not in facts:
            facts[key] = compute(category, *args)
        return facts[key]


class Frozen:
    """Base of the classes that keep memos beside their fields.

    The fields, named in `_fields`, are written once into the instance
    dict, where `cached_property` keeps its values too; after that no
    attribute can be assigned or deleted.  Equality and the hash are those
    of the field values, between instances of one class, and the repr
    names the class and each field.
    """

    __slots__ = ()

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(map("%s=%r".__mod__, zip(self._fields, self._values()))),
        )

    def __setattr__(self, name, value):
        raise AttributeError("frozen %s: cannot set %r" % (type(self).__name__, name))

    def __delattr__(self, name):
        raise AttributeError("frozen %s: cannot del %r" % (type(self).__name__, name))


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
        "_given",
        "_maximal",
        "_described",
        "_realized",
        "_facts",
        "_fact_lock",
        "_hash",
        "__weakref__",
    )

    def __init__(self, objects, morphisms, dom, cod, identity, table):
        objects, morphisms = tuple(objects), tuple(morphisms)
        self._build(
            objects,
            morphisms,
            {name: i for i, name in enumerate(objects)},
            {name: i for i, name in enumerate(morphisms)},
            tuple(dom),
            tuple(cod),
            tuple(identity),
            dict(table),
        )

    def _build(self, objects, morphisms, obj_index, mor_index, dom, cod, identity, table):
        """Keep the arguments, none copied, and derive the rest.

        One walk over the arrows lists the arrows between each pair of
        objects and into and out of each object, and fills in the identity
        composites the table leaves out after the `_given` entries it was
        given, so every later entry holds an identity.  An entry given for
        an identity composite that is not the arrow itself raises
        IdentityLawViolation, at the first such arrow; a table that is then
        not total raises UndefinedComposite.
        """
        n_obj = len(objects)
        hom = {}
        into = [()] * n_obj
        outof = [()] * n_obj
        maximal = [0] * n_obj
        # the sieve f generates is f after each g into dom f: the entries
        # given, then those the walk fills in, f after the identity of dom f
        # and, for the identity of c, every arrow into c
        principal = [0] * len(dom)
        for (f, _), h in table.items():
            principal[f] |= 1 << h
        self._given = len(table)
        fill = table.setdefault
        for f, (a, b) in enumerate(zip(dom, cod)):
            hom[a, b] = hom.get((a, b), ()) + (f,)
            into[b] += (f,)
            outof[a] += (f,)
            maximal[b] |= 1 << f
            principal[f] |= 1 << f
            if fill((identity[b], f), f) != f or fill((f, identity[a]), f) != f:
                for key in ((identity[b], f), (f, identity[a])):
                    h = table[key]
                    if h != f:
                        raise IdentityLawViolation(
                            "identity composite at %r is %r, expected %r"
                            % (morphisms[f], morphisms[h], morphisms[f]),
                            witnesses=(morphisms[key[0]], morphisms[key[1]], morphisms[h]),
                        )
        # Totality by count: every entry is a composable pair, and the pairs
        # (g, f) with cod f = c = dom g number |into(c)| |outof(c)|, so the
        # table is total exactly when it has that many entries in all.  Only
        # a short table is scanned, to name its first missing pair.
        if len(table) != sum(map(mul, map(len, into), map(len, outof))):
            g, f = next(
                (g, f)
                for f in range(len(dom))
                for g in outof[cod[f]]
                if (g, f) not in table
            )
            raise UndefinedComposite(
                "no composite for %r after %r" % (morphisms[g], morphisms[f]),
                witnesses=(morphisms[g], morphisms[f]),
            )
        for c, e in enumerate(identity):
            principal[e] = maximal[c]
        self.objects = objects
        self.morphisms = morphisms
        self.dom = dom
        self.cod = cod
        self.identity = identity
        self.table = table
        self._obj_index = obj_index
        self._mor_index = mor_index
        self._hom = hom
        self._into = tuple(into)
        self._outof = tuple(outof)
        self._maximal = tuple(maximal)
        self._principal = tuple(principal)
        # memos filled by Subcategory.realize and topology.py
        self._described = {}
        self._realized = {}
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
    witnesses attached.  This is the one resolver of names, site files
    included.  The checks come in this order, each raising at its first
    witness: repeated names; the ends of each arrow (UnknownObject); each
    identity (UnknownObject, UnknownName, MissingIdentity); each composite
    in turn, its names (UnknownName), then its ends (TypeMismatch); then,
    in `FiniteCategory._build`, the identity laws (IdentityLawViolation) and
    totality (UndefinedComposite); and associativity (NonAssociative).
    """
    objects = tuple(objects)
    morphisms = tuple(morphisms)
    obj_index = {name: i for i, name in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise UnknownObject("duplicate object names")
    # one walk reads the arrows, an unknown end as None
    names, dom, cod = [], [], []
    for name, a, b in morphisms:
        names.append(name)
        dom.append(obj_index.get(a))
        cod.append(obj_index.get(b))
    names, dom, cod = tuple(names), tuple(dom), tuple(cod)
    mor_index = {name: i for i, name in enumerate(names)}
    if len(mor_index) != len(names):
        raise UnknownName("duplicate morphism names")
    if None in dom or None in cod:
        for name, a, b in morphisms:
            if a not in obj_index:
                raise UnknownObject("morphism %r has unknown domain %r" % (name, a))
            if b not in obj_index:
                raise UnknownObject("morphism %r has unknown codomain %r" % (name, b))

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
    if None in identity:
        obj = objects[identity.index(None)]
        raise MissingIdentity("object %r has no identity" % (obj,), witnesses=(obj,))

    table = {}
    for (g_name, f_name), h_name in composites.items():
        try:
            g, f, h = mor_index[g_name], mor_index[f_name], mor_index[h_name]
        except KeyError:
            nm = next(nm for nm in (g_name, f_name, h_name) if nm not in mor_index)
            raise UnknownName(
                "composition table mentions unknown morphism %r" % (nm,)
            ) from None
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
        table[g, f] = h

    category = FiniteCategory.__new__(FiniteCategory)
    category._build(
        objects, names, obj_index, mor_index, dom, cod, tuple(identity), table
    )
    _check_associative(category)
    return category


def _check_associative(category):
    """Raise NonAssociative at the first triple, by f, then g out of cod f,
    then h out of cod g, each ascending, with h(gf) != (hg)f.

    - Thin categories.  h(gf) and (hg)f both lie in hom(dom f, cod h), so
      where no hom-set holds two arrows the equation cannot fail, and no
      triple is scanned.
    - Light's test (Clifford-Preston, The Algebraic Theory of Semigroups I,
      1.2) for the rest.  Call g associative when h(gf) = (hg)f for every f
      into dom g and h out of cod g.  The identities are, by the identity
      laws, and a composite g'g of associative arrows is:
      h((g'g)f) = h(g'(gf)) = (hg')(gf) = ((hg')g)f = (h(g'g))f, using g,
      then g', then g, then g'.  So when every arrow of `_generators` is
      associative, so is every arrow they reach, which is every arrow.  That
      costs O(|into(dom g)| |outof(cod g)|) per generator instead of a scan
      over every triple; only a failing test runs the scan, which names the
      witness.
    """
    if len(category._hom) == len(category.morphisms):
        return
    if all(_associative(category, g) for g in _generators(category)):
        return
    table, outof, cod, names = (
        category.table, category._outof, category.cod, category.morphisms
    )
    for f in range(len(names)):
        for g in outof[cod[f]]:
            gf = table[(g, f)]
            for h in outof[cod[g]]:
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise NonAssociative(
                        "h(gf) != (hg)f for h=%r g=%r f=%r"
                        % (names[h], names[g], names[f]),
                        witnesses=(names[h], names[g], names[f]),
                    )


def _associative(category, g):
    """h(gf) = (hg)f for every f into dom g and h out of cod g, the pairs
    of each side looked up in one pass."""
    table = category.table
    fs = category._into[category.dom[g]]
    hs = category._outof[category.cod[g]]
    gfs = [table[g, f] for f in fs]
    hgs = [table[h, g] for h in hs]
    get = table.__getitem__
    return [*map(get, product(hs, gfs))] == [*map(get, product(hgs, fs))]


def _generators(category):
    """Arrows that, with the identities, generate every arrow by composition.

    Greedy, in index order: an arrow not yet reached is taken, and the
    reached set, the identities at first, is closed again under composing
    on the left with the arrows taken.  Each reached arrow is a composite of
    arrows taken, and every arrow is reached or taken."""
    table, dom, cod = category.table, category.dom, category.cod
    reached = set(category.identity)
    taken = []
    taken_out = [[] for _ in category.objects]
    for a in range(len(category.morphisms)):
        if a in reached:
            continue
        taken.append(a)
        taken_out[dom[a]].append(a)
        todo = [table[(a, r)] for r in category._into[dom[a]] if r in reached]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                for t in taken_out[cod[x]]:
                    todo.append(table[t, x])
    return taken


class Subcategory(Frozen):
    """A subcategory of a parent category, stored as index masks.

    Not necessarily full.  Must contain the identities of its objects and be
    closed under composition; `subcategory` checks this.
    """

    _fields = ("parent", "objects_mask", "morphisms_mask")

    def __init__(self, parent, objects_mask, morphisms_mask):
        self.__dict__.update(
            parent=parent, objects_mask=objects_mask, morphisms_mask=morphisms_mask
        )

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


class RealizedSubcategory(Frozen):
    """A Subcategory rebuilt as its own category, with maps to the parent."""

    _fields = ("parent", "category", "object_to_parent", "morphism_to_parent")

    def __init__(self, parent, category, object_to_parent, morphism_to_parent):
        self.__dict__.update(
            parent=parent,
            category=category,
            object_to_parent=object_to_parent,
            morphism_to_parent=morphism_to_parent,
            _obj_back={p: i for i, p in enumerate(object_to_parent)},
            _mor_back={p: i for i, p in enumerate(morphism_to_parent)},
        )

    def parent_object(self, c):
        return self.object_to_parent[c]

    def parent_morphism(self, f):
        return self.morphism_to_parent[f]

    def local_object(self, c):
        return self._obj_back[c]

    def local_morphism(self, f):
        return self._mor_back[f]


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
    table, into = parent.table, parent._into
    for g in mors:
        for f in into[parent.dom[g]]:
            if morphisms_mask >> f & 1:
                h = table[g, f]
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


class CartesianReport(
    namedtuple(
        "CartesianReport",
        "ok terminal products equalizers failure",
        defaults=(None, None, None, None),
    )
):
    """Outcome of the finite-limit search, with witnesses or first failure."""

    __slots__ = ()

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


class OreReport(namedtuple("OreReport", "ok counterexample", defaults=(None,))):
    __slots__ = ()

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


class CauchyReport(namedtuple("CauchyReport", "ok witness", defaults=(None,))):
    __slots__ = ()

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
