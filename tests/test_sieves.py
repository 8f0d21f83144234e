"""Sieve arithmetic against brute-force definitions."""

import pytest

from finsite.category import bits
from finsite.corpus import arrow, corpus, idem, square, vee, z2
from finsite.sieves import (
    generate_mask,
    is_right_closed,
    is_sieve_connected,
    pullback_mask,
    sieve_masks_on,
)


def closed_by_definition(cat, mask, c):
    """Literal right-closure: f in S and g composable imply fg in S."""
    for f in bits(mask):
        if cat.cod[f] != c:
            return False
        for g in range(len(cat.morphisms)):
            if cat.cod[g] == cat.dom[f] and not mask >> cat.compose(f, g) & 1:
                return False
    return True


def all_masks_on(cat, c):
    arrows = cat.into(c)
    for pick in range(1 << len(arrows)):
        mask = 0
        for i, f in enumerate(arrows):
            if pick >> i & 1:
                mask |= 1 << f
        yield mask


@pytest.mark.parametrize("build", [arrow, vee, square, z2, idem])
def test_sieve_enumeration_matches_definition(build):
    cat = build()
    for c in range(len(cat.objects)):
        expected = sorted(
            m for m in all_masks_on(cat, c) if closed_by_definition(cat, m, c)
        )
        assert list(sieve_masks_on(cat, c)) == expected


def test_right_closure_probe():
    cat = square()
    s = cat.obj_index("s")
    qs = cat.mor_index("q->s")
    ps = cat.mor_index("p->s")
    # {q->s} misses its composite with p->q
    assert not is_right_closed(cat, 1 << qs)
    assert is_right_closed(cat, (1 << qs) | (1 << ps))


def test_generate_closes_up():
    cat = square()
    qs = cat.mor_index("q->s")
    rs = cat.mor_index("r->s")
    ps = cat.mor_index("p->s")
    got = generate_mask(cat, (qs, rs))
    assert got == (1 << qs) | (1 << rs) | (1 << ps)
    assert is_right_closed(cat, got)


def test_generate_is_smallest_closed_superset():
    for site in corpus(seed=11, random_count=3):
        cat = site.category
        for c in range(len(cat.objects)):
            arrows = cat.into(c)
            for pick in range(1 << len(arrows)):
                chosen = [f for i, f in enumerate(arrows) if pick >> i & 1]
                base = 0
                for f in chosen:
                    base |= 1 << f
                gen = generate_mask(cat, chosen)
                assert gen & base == base
                assert is_right_closed(cat, gen)
                smaller = [
                    m
                    for m in sieve_masks_on(cat, c)
                    if m & base == base and m & ~gen == 0 and m != gen
                ]
                assert not smaller


def test_pullback_matches_definition():
    for site in corpus(seed=5, random_count=3):
        cat = site.category
        for c in range(len(cat.objects)):
            for mask in sieve_masks_on(cat, c):
                for h in cat.into(c):
                    got = pullback_mask(cat, mask, h)
                    want = 0
                    for g in range(len(cat.morphisms)):
                        if cat.cod[g] == cat.dom[h] and mask >> cat.compose(h, g) & 1:
                            want |= 1 << g
                    assert got == want
                    assert is_right_closed(cat, got)


def test_sieve_masks_on_run_from_empty_to_maximal():
    for site in corpus(seed=3, random_count=3):
        cat = site.category
        for c in range(len(cat.objects)):
            masks = sieve_masks_on(cat, c)
            assert masks[0] == 0 and masks[-1] == cat.maximal_sieve(c)
            assert all(a < b for a, b in zip(masks, masks[1:]))
            # cached on the category
            assert sieve_masks_on(cat, c) is masks


def test_generated_mask_lies_on_the_codomain():
    # generate_mask takes no base object: the sieve lies on the codomain
    # of the arrows that generate it
    for site in corpus(seed=11, random_count=3):
        cat = site.category
        for c in range(len(cat.objects)):
            top = cat.maximal_sieve(c)
            assert generate_mask(cat, ()) == 0
            assert generate_mask(cat, (cat.identity[c],)) == top
            for f in cat.into(c):
                got = generate_mask(cat, (f,))
                assert got >> f & 1 and got & ~top == 0
                assert all(cat.cod[g] == c for g in bits(got))


def test_pullback_along_member_is_maximal():
    cat = vee()
    u = cat.mor_index("x->z")
    legs = generate_mask(cat, (u, cat.mor_index("y->z")))
    assert pullback_mask(cat, legs, u) == cat.maximal_sieve(cat.obj_index("x"))


def test_sieve_connectivity():
    cat = vee()
    z = cat.obj_index("z")
    u, v = cat.mor_index("x->z"), cat.mor_index("y->z")
    # two legs with nothing joining them
    assert not is_sieve_connected(cat, (1 << u) | (1 << v))
    # the maximal sieve is joined through the identity
    assert is_sieve_connected(cat, cat.maximal_sieve(z))
    assert not is_sieve_connected(cat, 0)


def test_square_cover_sieve_is_connected():
    cat = square()
    mask = generate_mask(cat, (cat.mor_index("q->s"), cat.mor_index("r->s")))
    # q->s and r->s share the composite p->s
    assert is_sieve_connected(cat, mask)
