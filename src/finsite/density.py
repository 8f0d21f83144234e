"""Dense subcategories and the family of topologies making one dense.

A subcategory S is dense for a topology J when
  (i)  every object has a covering sieve generated by arrows whose domains
       lie in S, and
  (ii) for every arrow f landing in an S-object there is a covering sieve on
       its domain generated by arrows g with f-after-g an S-arrow.

Since the covering sieves are the sieves containing the least one, M_c,
each condition asks whether M_c lies inside the sieve generated by all the
qualifying arrows: that sieve then covers and is generated by its own
qualifying members.  Those sieves depend on the subcategory alone, so the
family of topologies making it dense checks one mask per object.

The family is read off the retract classes (`topology._RetractClasses`).
Let N_c be the intersection of the condition (i) sieve on c with the
condition (ii) sieves of the arrows f with dom f = c, N the union of the
N_c, one arrow mask, and A the set of classes k whose generated mask G_k
lies inside N.

Fact 1.  J_D makes the subcategory dense exactly when D lies inside A.
Proof.  By the above J_D makes it dense exactly when M_c(D) lies inside
N_c for every c.  N_c holds only arrows into c, so N_c is the part of N
inside maximal(c), and M_c(D) is the part of the union of the G_k, k in D,
inside maximal(c).  So the condition holds at every c exactly when every
G_k with k in D lies inside N, that is when D lies inside A.

Fact 2.  A is a down-set, and the least topology of the family is J_A,
so D* = {k : down[k] inside A}, the largest down-set inside A, is A.
Proof.  If class j lies below k, e_j = r.e_k.s for some arrows r and s, so
g.e_j = (g.r).e_k.s lies in the sieve generated by (g.r).e_k for every g
out of dom e_j: G_j lies inside G_k, and j is in A when k is.  So J_A is
in the family by fact 1, and any member J_D has D inside A, hence
J_A <= J_D.
"""

from collections import namedtuple
from functools import reduce
from operator import or_

from .category import fact
from .topology import GrothendieckTopology, _retract_classes, enumerate_topologies


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
    the sieve on dom f generated by the g with f-after-g in it (condition ii).
    Memoised on the category per subcategory, so `is_dense` and
    `topologies_with_dense` share them."""
    key = ("qualifying", sub.objects_mask, sub.morphisms_mask)
    return fact(category, key, _qualifying, sub)


def _qualifying(cat, sub):
    table, dom, into, principal = cat.table, cat.dom, cat._into, cat._principal
    inside, kept = sub.objects_mask, sub.morphisms_mask
    objects = []
    for incoming in into:
        mask = 0
        for f in incoming:
            if inside >> dom[f] & 1:
                mask |= principal[f]
        objects.append(mask)
    arrows = []
    for f, b in enumerate(cat.cod):
        if inside >> b & 1:
            mask = 0
            for g in into[dom[f]]:
                if kept >> table[f, g] & 1:
                    mask |= principal[g]
            arrows.append((f, mask))
    return tuple(objects), tuple(arrows)


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
        lat = self.lattice
        return GrothendieckTopology(lat.category, lat.minimals[self.minimum_index])


def topologies_with_dense(category, sub):
    """All topologies making the subcategory dense, plus their minimum.

    Every topology is enumerated under `enumerate_topologies`'s bound.  The
    members are the J_D with D inside A and the minimum is J_A (facts 1
    and 2 of the module docstring).  The family is never empty: the
    maximal topology, whose empty sieves cover, makes every subcategory
    dense.
    """
    lattice = enumerate_topologies(category)
    objects, arrows = _qualifying_sieves(category, sub)
    need = list(objects)
    for f, Q in arrows:
        need[category.dom[f]] &= Q
    N = reduce(or_, need, 0)
    classes = _retract_classes(category)
    A = sum(1 << k for k, G in enumerate(classes.generated) if not G & ~N)
    members = tuple(i for i, D in enumerate(lattice.downsets) if not D & ~A)
    return DenseFamily(lattice, members, lattice._of_downset(A))
