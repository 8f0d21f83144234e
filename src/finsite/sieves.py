"""Sieves on a finite category, represented as int bitmasks over morphisms.

A sieve on c is a set of arrows with codomain c closed under composition on
the right.  Masks index the parent category's morphism list, so sieves on
different objects live in the same bit space; the base object is carried
alongside.
"""

from collections import namedtuple

from .category import bits, overlap_connected, unions
from .errors import CodomainMismatch, TypeMismatch


class Sieve(namedtuple("Sieve", "base arrows")):
    """A sieve on the object `base`; `arrows` is its bitmask over the parent
    category's morphism indices."""

    __slots__ = ()

    def arrow_indices(self):
        return tuple(bits(self.arrows))

    def __contains__(self, f):
        return bool(self.arrows >> f & 1)

    def is_empty(self):
        return self.arrows == 0


def is_right_closed(category, mask):
    for f in bits(mask):
        if category.principal_sieve(f) & ~mask:
            return False
    return True


def generate_mask(category, arrows):
    mask = 0
    for f in arrows:
        mask |= category.principal_sieve(f)
    return mask


def generate_sieve(category, c, arrows):
    """Smallest sieve on c containing the given arrow indices."""
    for f in arrows:
        if category.cod[f] != c:
            raise CodomainMismatch(
                "arrow %r does not end at %r"
                % (category.morphisms[f], category.objects[c])
            )
    return Sieve(c, generate_mask(category, arrows))


def pullback_mask(category, mask, h):
    """Mask of h^*(S) = {g : h after g lands in S}, a sieve on dom(h)."""
    out = 0
    for g in category.into(category.dom[h]):
        if mask >> category.compose(h, g) & 1:
            out |= 1 << g
    return out


def pullback_sieve(category, sieve, h):
    if category.cod[h] != sieve.base:
        raise TypeMismatch(
            "cannot pull back a sieve on %r along %r"
            % (category.objects[sieve.base], category.morphisms[h])
        )
    return Sieve(category.dom[h], pullback_mask(category, sieve.arrows, h))


def sieve_masks_on(category, c):
    """All sieve masks on c, ascending.  Cached on the category.

    Every sieve is the union of the principal sieves of its arrows, so the
    sieves are the unions of the principal sieves on c.
    """
    cached = category._sieves.get(c)
    if cached is None:
        principals = (category.principal_sieve(f) for f in category.into(c))
        cached = category._sieves[c] = unions(principals)
    return cached


def sieves_on(category, c):
    return tuple(Sieve(c, m) for m in sieve_masks_on(category, c))


def is_sieve_connected(category, sieve):
    """Zig-zag connectivity of the sieve's arrows in the slice over its base.

    f is joined to each f.g among the arrows, so a component is the union
    of the principal sieves of its arrows, cut to the arrows (the mask need
    not be right-closed) and grown by overlap.  The empty sieve counts as
    disconnected.
    """
    S = sieve.arrows
    principal = category.principal_sieve
    return overlap_connected([principal(f) & S for f in bits(S)], S)
