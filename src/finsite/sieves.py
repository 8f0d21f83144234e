"""Sieves on a finite category, as plain int bitmasks over morphisms.

A sieve on c is a set of arrows with codomain c closed under composition on
the right.  Masks index the parent category's morphism list, so sieves on
different objects live in the same bit space.  A sieve is passed as its
plain mask; a caller that needs the base object passes it beside the mask.
"""

from .category import bits, overlap_connected, unions


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


def pullback_mask(category, mask, h):
    """Mask of h^*(S) = {g : h after g lands in S}, a sieve on dom(h)."""
    out = 0
    for g in category.into(category.dom[h]):
        if mask >> category.compose(h, g) & 1:
            out |= 1 << g
    return out


def sieve_masks_on(category, c):
    """All sieve masks on c, ascending, walked afresh on each call.

    Every sieve is the union of the principal sieves of its arrows, so the
    sieves are the unions of the principal sieves on c.  There are up to 2^n
    of them for n arrows into c; `covering_masks` walks only those above M_c.
    """
    return unions(map(category.principal_sieve, category.into(c)))


def is_sieve_connected(category, mask):
    """Zig-zag connectivity of the mask's arrows, all into one object, in the
    slice over that object.

    f is joined to each f.g among the arrows, so a component is the union
    of the principal sieves of its arrows, cut to the arrows (the mask need
    not be right-closed) and grown by overlap.  The empty sieve counts as
    disconnected.
    """
    principal = category.principal_sieve
    return overlap_connected([principal(f) & mask for f in bits(mask)], mask)
