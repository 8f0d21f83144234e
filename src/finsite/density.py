"""Dense subcategories and the family of topologies making one dense.

A subcategory D is dense for a topology J when
  (i)  every object has a covering sieve generated by arrows whose domains
       lie in D, and
  (ii) for every arrow f landing in a D-object there is a covering sieve on
       its domain generated by arrows g with f-after-g a D-arrow.

Since the covering sieves are the sieves containing the least one, M_c,
each condition asks whether M_c lies inside the sieve generated by all the
qualifying arrows: that sieve then covers and is generated by its own
qualifying members.  Those sieves depend on the subcategory alone, so the
family of topologies making it dense checks one mask per object.
"""

from collections import namedtuple

from .sieves import generate_mask
from .topology import enumerate_topologies


# condition "i" or "ii", kind "object" or "morphism", witness the object or
# morphism name
DensityFailure = namedtuple("DensityFailure", "condition kind witness")


class DensityVerdict(namedtuple("DensityVerdict", "dense failures")):
    __slots__ = ()

    def __bool__(self):
        return self.dense


def _qualifying_sieves(category, sub):
    """The sieves generated by the qualifying arrows: per object c, by the
    arrows into c from objects of the subcategory (condition i), and per
    arrow f landing in the subcategory, in index order, the pair of f and
    the sieve on dom f generated by the g with f-after-g in it (condition ii)."""
    cat = category
    objects = [
        generate_mask(cat, [f for f in cat.into(c) if sub.has_object(cat.dom[f])])
        for c in range(len(cat.objects))
    ]
    arrows = []
    for f in range(len(cat.morphisms)):
        if sub.has_object(cat.cod[f]):
            into = cat.into(cat.dom[f])
            keep = [g for g in into if sub.has_morphism(cat.compose(f, g))]
            arrows.append((f, generate_mask(cat, keep)))
    return objects, arrows


def is_dense(category, J, sub):
    """DensityVerdict for the subcategory, with every failing witness listed."""
    objects, arrows = _qualifying_sieves(category, sub)
    M = J.minimal
    failures = [
        DensityFailure("i", "object", category.objects[c])
        for c, Q in enumerate(objects)
        if M[c] & ~Q
    ]
    failures += [
        DensityFailure("ii", "morphism", category.morphisms[f])
        for f, Q in arrows
        if M[category.dom[f]] & ~Q
    ]
    return DensityVerdict(not failures, tuple(failures))


class DenseFamily(namedtuple("DenseFamily", "lattice member_indices minimum_index")):
    """The topologies in a lattice for which a fixed subcategory is dense."""

    __slots__ = ()

    def members(self):
        return tuple(self.lattice.elements[i] for i in self.member_indices)

    @property
    def minimum(self):
        return self.lattice.elements[self.minimum_index]


def topologies_with_dense(category, sub):
    """All topologies making the subcategory dense, plus their minimum.

    Every topology is enumerated under `enumerate_topologies`'s bound.  The
    family is closed upward and under meets, so the minimum is the meet of
    all members.  It is never empty: the maximal topology, whose empty
    sieves cover, makes every subcategory dense.
    """
    lattice = enumerate_topologies(category)
    need, arrows = _qualifying_sieves(category, sub)
    for f, Q in arrows:
        need[category.dom[f]] &= Q
    members = tuple(
        i
        for i, J in enumerate(lattice.elements)
        if not any(m & ~q for m, q in zip(J.minimal, need))
    )
    low = members[0]
    for i in members[1:]:
        low = lattice.meet(low, i)
    return DenseFamily(lattice, members, low)
