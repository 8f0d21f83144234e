"""Dense subcategories and the family of topologies making one dense.

A subcategory D is dense for a topology J when
  (i)  every object has a covering sieve generated by arrows whose domains
       lie in D, and
  (ii) for every arrow f landing in a D-object there is a covering sieve on
       its domain generated by arrows g with f-after-g a D-arrow.

Since the covering sieves are the sieves containing the least one, M_c,
each condition asks whether M_c lies inside the sieve generated by all the
qualifying arrows: that sieve then covers and is generated by its own
qualifying members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyFamily
from .sieves import generate_mask
from .topology import enumerate_topologies


@dataclass(frozen=True)
class DensityFailure:
    condition: str  # "i" or "ii"
    kind: str  # "object" or "morphism"
    witness: str  # object or morphism name


@dataclass(frozen=True)
class DensityVerdict:
    dense: bool
    failures: tuple

    def __bool__(self):
        return self.dense


def _condition_i(category, J, sub, c):
    qualifying = [
        f for f in category.into(c) if sub.has_object(category.dom[f])
    ]
    return not J.minimal[c] & ~generate_mask(category, qualifying)


def _condition_ii(category, J, sub, f):
    c = category.dom[f]
    qualifying = [
        g for g in category.into(c) if sub.has_morphism(category.compose(f, g))
    ]
    return not J.minimal[c] & ~generate_mask(category, qualifying)


def is_dense(category, J, sub):
    """DensityVerdict for the subcategory, with every failing witness listed."""
    failures = []
    for c in range(len(category.objects)):
        if not _condition_i(category, J, sub, c):
            failures.append(
                DensityFailure("i", "object", category.objects[c])
            )
    for f in range(len(category.morphisms)):
        if not sub.has_object(category.cod[f]):
            continue
        if not _condition_ii(category, J, sub, f):
            failures.append(
                DensityFailure("ii", "morphism", category.morphisms[f])
            )
    return DensityVerdict(not failures, tuple(failures))


@dataclass(frozen=True)
class DenseFamily:
    """The topologies in a lattice for which a fixed subcategory is dense."""

    lattice: object
    member_indices: tuple
    minimum_index: int

    def members(self):
        return tuple(self.lattice.elements[i] for i in self.member_indices)

    @property
    def minimum(self):
        return self.lattice.elements[self.minimum_index]


def topologies_with_dense(category, sub, lattice=None, max_assignments=None):
    """All topologies making the subcategory dense, plus their minimum.

    The family is closed upward and under meets, so the minimum is the meet
    of all members; it is re-verified to be a member.
    """
    if lattice is None:
        lattice = enumerate_topologies(category, max_assignments)
    members = tuple(
        i
        for i, J in enumerate(lattice.elements)
        if is_dense(category, J, sub)
    )
    if not members:
        raise EmptyFamily(
            "no topology on this category makes the subcategory dense"
        )
    low = members[0]
    for i in members[1:]:
        low = lattice.meet(low, i)
    assert low in members, "meet of the dense family fell outside it"
    return DenseFamily(lattice, members, low)
