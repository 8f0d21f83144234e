"""Category construction, law checking, and structural operations."""

import pytest

from finsite.category import (
    full_subcategory,
    has_right_ore,
    is_cartesian,
    is_cauchy_complete,
    subcategory,
    validate_category,
    whole_subcategory,
)
from finsite.corpus import (
    arrow,
    discrete2,
    idem,
    parallel_pair,
    point,
    poset_category,
    square,
    vee,
    z2,
)
from finsite.errors import (
    IdentityLawViolation,
    InvalidSubcategory,
    MissingIdentity,
    NonAssociative,
    TypeMismatch,
    UndefinedComposite,
    UnknownName,
    UnknownObject,
)


def relawed(cat):
    """Re-run full validation on a category's own data; returns the rebuild."""
    morphisms = [
        (cat.morphisms[f], cat.objects[cat.dom[f]], cat.objects[cat.cod[f]])
        for f in range(len(cat.morphisms))
    ]
    identities = {
        cat.objects[c]: cat.morphisms[cat.identity[c]]
        for c in range(len(cat.objects))
    }
    composites = {
        (cat.morphisms[g], cat.morphisms[f]): cat.morphisms[h]
        for (g, f), h in cat.table.items()
    }
    return validate_category(cat.objects, morphisms, identities, composites)


def test_arrow_builds_and_precomputes():
    cat = arrow()
    assert cat.objects == ("a", "b")
    assert cat.morphisms == ("id_a", "id_b", "f")
    f = cat.mor_index("f")
    assert cat.dom[f] == cat.obj_index("a")
    assert cat.cod[f] == cat.obj_index("b")
    assert cat.hom(0, 1) == (f,)
    assert cat.into(1) == (1, 2)
    assert cat.outof(0) == (0, 2)
    assert cat.compose(f, cat.identity[0]) == f
    assert cat.is_identity(0) and not cat.is_identity(f)


def test_maximal_and_principal_sieves():
    cat = arrow()
    f = cat.mor_index("f")
    assert cat.maximal_sieve(0) == 1 << 0
    assert cat.maximal_sieve(1) == (1 << 1) | (1 << f)
    # f generates {f} on b; id_b generates everything into b
    assert cat.principal_sieve(f) == 1 << f
    assert cat.principal_sieve(1) == cat.maximal_sieve(1)


def test_unknown_names_raise():
    with pytest.raises(UnknownObject):
        arrow().obj_index("zz")
    with pytest.raises(UnknownName):
        arrow().mor_index("zz")


def test_duplicate_names_rejected():
    with pytest.raises(UnknownObject):
        validate_category(("a", "a"), (), {}, {})
    with pytest.raises(UnknownName):
        validate_category(
            ("a",),
            (("u", "a", "a"), ("u", "a", "a")),
            {"a": "u"},
            {},
        )


def test_missing_identity_detected():
    with pytest.raises(MissingIdentity):
        validate_category(("a",), (("e", "a", "a"),), {}, {("e", "e"): "e"})
    # declared identity must be an endomorphism of its object
    with pytest.raises(MissingIdentity):
        validate_category(
            ("a", "b"),
            (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")),
            {"a": "id_a", "b": "f"},
            {},
        )


def test_noncomposable_entry_rejected():
    with pytest.raises(TypeMismatch):
        validate_category(
            ("a", "b"),
            (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")),
            {"a": "id_a", "b": "id_b"},
            {("f", "f"): "f"},
        )


def test_wrongly_typed_composite_rejected():
    # g after f must go a -> b here, id_a does not
    with pytest.raises(TypeMismatch):
        validate_category(
            ("a", "b"),
            (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")),
            {"a": "id_a", "b": "id_b"},
            {("id_b", "f"): "id_a"},
        )


def test_identity_composites_filled_and_contradictions_rejected():
    cat = validate_category(
        ("a", "b"),
        (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")),
        {"a": "id_a", "b": "id_b"},
        {},
    )
    f = cat.mor_index("f")
    assert cat.compose(cat.identity[1], f) == f
    with pytest.raises(IdentityLawViolation):
        validate_category(
            ("a", "b"),
            (
                ("id_a", "a", "a"),
                ("id_b", "b", "b"),
                ("f", "a", "b"),
                ("g", "a", "b"),
            ),
            {"a": "id_a", "b": "id_b"},
            {("id_b", "f"): "g"},
        )


def test_missing_composite_detected():
    with pytest.raises(UndefinedComposite):
        validate_category(
            ("a", "b", "c"),
            (
                ("id_a", "a", "a"),
                ("id_b", "b", "b"),
                ("id_c", "c", "c"),
                ("f", "a", "b"),
                ("g", "b", "c"),
            ),
            {"a": "id_a", "b": "id_b", "c": "id_c"},
            {},
        )


def test_associativity_violation_detected():
    with pytest.raises(NonAssociative):
        validate_category(
            ("a",),
            (("1", "a", "a"), ("x", "a", "a"), ("y", "a", "a")),
            {"a": "1"},
            {
                ("x", "x"): "y",
                ("y", "x"): "x",
                ("x", "y"): "1",
                ("y", "y"): "1",
            },
        )


def test_named_categories_pass_revalidation():
    for cat in (point(), arrow(), parallel_pair(), vee(), square(), z2(), idem(), discrete2()):
        assert relawed(cat) == cat


def test_poset_builder_closes_transitively():
    chain = poset_category(("0", "1", "2"), (("0", "1"), ("1", "2")))
    assert "0->2" in chain.morphisms
    assert relawed(chain) == chain
    with pytest.raises(ValueError):
        poset_category(("0", "1"), (("0", "1"), ("1", "0")))


def test_subcategory_masks_and_membership():
    cat = arrow()
    left = subcategory(cat, ("a",), ("id_a",))
    assert left.has_object(cat.obj_index("a"))
    assert not left.has_object(cat.obj_index("b"))
    assert left.object_indices() == (0,)
    whole = whole_subcategory(cat)
    assert whole.contains(left)
    assert not left.contains(whole)


def test_non_full_subcategory_allowed():
    cat = idem()
    strict = subcategory(cat, ("*",), ("id_*",))
    assert strict.morphism_indices() == (cat.mor_index("id_*"),)
    realized = strict.realize()
    assert len(realized.category.morphisms) == 1
    assert relawed(realized.category) == realized.category


def test_subcategory_requires_identities():
    cat = idem()
    with pytest.raises(InvalidSubcategory):
        subcategory(cat, ("*",), ("e",))


def test_subcategory_requires_endpoint_objects():
    cat = arrow()
    with pytest.raises(InvalidSubcategory):
        subcategory(cat, ("a",), ("id_a", "f"))


def test_subcategory_requires_composition_closure():
    sq = square()
    with pytest.raises(InvalidSubcategory):
        subcategory(
            sq,
            ("p", "q", "s"),
            ("id_p", "id_q", "id_s", "p->q", "q->s"),
        )


def test_full_subcategory_collects_all_arrows():
    sq = square()
    sub = full_subcategory(sq, ("p", "s"))
    names = {sq.morphisms[f] for f in sub.morphism_indices()}
    assert names == {"id_p", "id_s", "p->s"}


def test_realize_is_cached_and_consistent():
    cat = vee()
    sub = full_subcategory(cat, ("x", "y"))
    r1 = sub.realize()
    r2 = full_subcategory(cat, ("x", "y")).realize()
    assert r1 is r2
    for d in range(len(r1.category.objects)):
        assert r1.local_object(r1.parent_object(d)) == d


def test_cartesian_search_on_posets():
    assert is_cartesian(point())
    assert is_cartesian(arrow())
    report = is_cartesian(square())
    assert report
    # the meet of q and r in the square is p
    sq = square()
    q, r, p = sq.obj_index("q"), sq.obj_index("r"), sq.obj_index("p")
    assert report.products[(q, r)][0] == p


def test_cartesian_failures_carry_witnesses():
    report = is_cartesian(vee())
    assert not report
    assert report.failure[0] == "product"
    # parallel pair: neither a nor b sees exactly one arrow from everywhere
    pair = is_cartesian(parallel_pair())
    assert not pair
    assert pair.failure == ("terminal",)
    no_terminal = is_cartesian(idem())
    assert not no_terminal
    assert no_terminal.failure == ("terminal",)


def test_equalizer_helper_semantics():
    # A finite category with a terminal object and all binary products is
    # thin (powers of an object pump hom sizes), so the equalizer stage of
    # the search can never be the first failure; exercise its core directly.
    from test_minimal_oracles import _is_equalizer

    cat = idem()
    i_id = cat.mor_index("id_*")
    e = cat.mor_index("e")
    # the identity arrow equalizes (id, id)
    assert _is_equalizer(cat, i_id, i_id, 0, i_id)
    # e does not: the identity cone through * fails to factor through e
    assert not _is_equalizer(cat, i_id, i_id, 0, e)


def test_right_ore_condition():
    assert has_right_ore(z2())
    assert has_right_ore(arrow())
    report = has_right_ore(vee())
    assert not report
    assert set(report.counterexample) == {"x->z", "y->z"}


def test_cauchy_completeness_and_idempotent_splitting():
    assert is_cauchy_complete(z2())
    report = is_cauchy_complete(idem())
    assert not report
    assert report.witness == "e"
    # adjoining a splitting of e makes it complete
    split = validate_category(
        ("c", "d"),
        (
            ("id_c", "c", "c"),
            ("id_d", "d", "d"),
            ("e", "c", "c"),
            ("t", "c", "d"),
            ("s", "d", "c"),
        ),
        {"c": "id_c", "d": "id_d"},
        {
            ("e", "e"): "e",
            ("t", "e"): "t",
            ("e", "s"): "s",
            ("t", "s"): "id_d",
            ("s", "t"): "e",
        },
    )
    assert is_cauchy_complete(split)
