"""Reading and writing sites as JSON documents (schema "finsite-site/1").

A site file bundles one category with an optional topology plus named
subcategories and presheaves.  Identity composites may be left out of the
input; serialization always emits the same canonical bytes for equal data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .category import (
    FiniteCategory,
    Subcategory,
    bits,
    subcategory,
    validate_category,
)
from .errors import ParseError, TopologyAxiomViolation, UnknownName, UnknownObject
from .presheaf import Presheaf
from .topology import (
    GrothendieckTopology,
    atomic_topology,
    generated_topology,
    maximal_topology,
    topology,
    trivial_topology,
)

SCHEMA = "finsite-site/1"

_CONSTANTS = {None: "null", True: "true", False: "false"}
# scalars of these exact types are written inline, not through `write`
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}
_SCALARS.update(dict.fromkeys((bool, type(None)), _CONSTANTS.__getitem__))

NAMED_TOPOLOGIES = {
    "trivial": trivial_topology,
    "maximal": maximal_topology,
    "atomic": atomic_topology,
}


@dataclass
class SiteFile:
    """Parsed contents of one site document."""

    name: str
    category: FiniteCategory
    topology: GrothendieckTopology | None = None
    subcategories: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)


def _str_leaves(value):
    return all(
        type(x) is str or (type(x) is tuple and _str_leaves(x)) for x in value
    )


def canonical_json(data):
    """Stable text form: sorted keys, two-space indent, trailing newline.

    The bytes are those of `json.dumps(data, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n"`, written in one pass (given an indent, the
    stdlib leaves its C encoder for a generator per value).  Data holds str,
    int, bool, None, lists, tuples and dicts with str keys; anything else,
    such as a float, an int key or a set, raises TypeError instead of
    printing other bytes.

    Reports repeat fragments, such as the covering sieves that
    `GrothendieckTopology.describe` shares between topologies, so a tuple
    whose leaves are all strings is printed once per indent and call.  Only
    such tuples are memoised, since the equal (1,) and (True,) print
    differently; a tuple equal to a memoised one has string leaves too,
    because among JSON values only a string equals a string.
    """
    memo = {}
    scalar = _SCALARS.get

    def array(value, pad):
        if not value:
            return "[]"
        inner = pad + "  "
        if all(type(x) is str for x in value):
            items = map(encode_basestring_ascii, value)
        else:
            items = []
            for x in value:
                emit = scalar(type(x))
                items.append(emit(x) if emit else write(x, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"

    def write(value, pad):
        if type(value) is tuple:
            key = (value, pad)
            try:
                return memo[key]
            except KeyError:
                text = array(value, pad)
                if _str_leaves(value):
                    memo[key] = text
                return text
            except TypeError:  # unhashable: it holds a list or a dict
                return array(value, pad)
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None or value is True or value is False:
            return _CONSTANTS[value]
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, (list, tuple)):
            return array(value, pad)
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = pad + "  "
            items = []
            for k, v in sorted(value.items()):
                emit = scalar(type(v))
                text = emit(v) if emit else write(v, inner)
                # encode_basestring_ascii raises TypeError on other keys
                items.append(encode_basestring_ascii(k) + ": " + text)
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        raise TypeError("%s is not canonical JSON data" % type(value).__name__)

    return write(data, "") + "\n"


def _require(mapping, key, where):
    if key not in mapping:
        raise ParseError("%s is missing %r" % (where, key))
    return mapping[key]


def _check_type(value, types, where):
    if not isinstance(value, types):
        raise ParseError(
            "%s must be %s, got %s"
            % (where, " or ".join(t.__name__ for t in types), type(value).__name__)
        )
    return value


def _check_names(names, where):
    """Names are JSON strings; a list or a number is not a name."""
    for name in names:
        if type(name) is not str:
            raise ParseError("%s must be str, got %r" % (where, name))


def parse_category(data):
    """Build a validated category from the "category" block."""
    _check_type(data, (dict,), "category block")
    objects = _check_type(
        _require(data, "objects", "category block"), (list,), "objects"
    )
    _check_names(objects, "object name")
    raw_morphisms = _check_type(
        _require(data, "morphisms", "category block"), (list,), "morphisms"
    )
    morphisms = []
    for entry in raw_morphisms:
        _check_type(entry, (list,), "morphism entry")
        if len(entry) != 3:
            raise ParseError(
                "morphism entry must be [name, dom, cod], got %r" % (entry,)
            )
        _check_names(entry, "name in a morphism entry")
        morphisms.append(tuple(entry))
    identities = _check_type(
        _require(data, "identities", "category block"), (dict,), "identities"
    )
    _check_names(identities.values(), "identity")
    raw_composites = _check_type(
        data.get("composites", []), (list,), "composites"
    )
    composites = {}
    for entry in raw_composites:
        _check_type(entry, (list,), "composite entry")
        if len(entry) != 3:
            raise ParseError(
                "composite entry must be [g, f, h] meaning g after f = h, got %r"
                % (entry,)
            )
        _check_names(entry, "name in a composite entry")
        g, f, h = entry
        if (g, f) in composites:
            raise ParseError("composite (%r after %r) listed twice" % (g, f))
        composites[(g, f)] = h
    return validate_category(objects, morphisms, identities, composites)


def parse_topology(category, data):
    """Accepts {"named": ...}, {"coverage": ...} or {"generate": ...}."""
    _check_type(data, (dict,), "topology block")
    keys = sorted(set(data) & {"named", "coverage", "generate"})
    if len(keys) != 1:
        raise ParseError(
            "topology block needs exactly one of named/coverage/generate, got %r"
            % (sorted(data),)
        )
    kind = keys[0]
    if kind == "named":
        name = _check_type(data["named"], (str,), "named topology")
        if name not in NAMED_TOPOLOGIES:
            raise ParseError(
                "unknown named topology %r (have %s)"
                % (name, ", ".join(sorted(NAMED_TOPOLOGIES)))
            )
        return NAMED_TOPOLOGIES[name](category)

    families = _check_type(data[kind], (dict,), "topology %s block" % kind)
    per_object = {}
    for obj_name, sieves in families.items():
        c = category.obj_index(obj_name)
        _check_type(sieves, (list,), "sieve list of %r" % obj_name)
        masks = []
        for arrows in sieves:
            _check_type(arrows, (list,), "sieve of %r" % obj_name)
            mask = 0
            _check_names(arrows, "arrow in a sieve")
            for arrow_name in arrows:
                f = category.mor_index(arrow_name)
                if category.cod[f] != c:
                    raise ParseError(
                        "arrow %r does not land in %r" % (arrow_name, obj_name)
                    )
                mask |= 1 << f
            masks.append(mask)
        per_object[c] = masks

    if kind == "generate":
        seeds = {
            c: [sorted(bits(mask)) for mask in masks]
            for c, masks in sorted(per_object.items())
        }
        return generated_topology(category, seeds)

    covering = []
    for c in range(len(category.objects)):
        if c not in per_object:
            raise ParseError(
                "coverage block is missing object %r" % (category.objects[c],)
            )
        masks = per_object[c]
        if len(set(masks)) != len(masks):
            raise ParseError(
                "coverage of %r lists a sieve twice" % (category.objects[c],)
            )
        covering.append(masks)
    try:
        return topology(category, covering)
    except TopologyAxiomViolation as exc:
        if exc.axiom != "sieve":  # every arrow lands in its object by now
            raise
        c, mask = exc.witness
        raise ParseError(
            "coverage of %r lists %r, which is not a sieve"
            % (category.objects[c], [category.morphisms[f] for f in bits(mask)])
        ) from None


def parse_subcategory(category, data, where):
    _check_type(data, (dict,), where)
    objects = _check_type(_require(data, "objects", where), (list,), where)
    _check_names(objects, "object name")
    if "morphisms" in data:
        morphisms = _check_type(data["morphisms"], (list,), where)
        _check_names(morphisms, "morphism name")
    else:
        # default to the full subcategory on the listed objects
        objs = {category.obj_index(o) for o in objects}
        morphisms = [
            category.morphisms[f]
            for f in range(len(category.morphisms))
            if category.dom[f] in objs and category.cod[f] in objs
        ]
    return subcategory(category, objects, morphisms)


def parse_presheaf(category, data, where):
    _check_type(data, (dict,), where)
    sizes_map = _check_type(_require(data, "sizes", where), (dict,), where)
    sizes = [None] * len(category.objects)
    for obj_name, size in sizes_map.items():
        c = category.obj_index(obj_name)
        if type(size) is not int or size < 0:
            raise ParseError("%s: size of %r must be a nonnegative int" % (where, obj_name))
        sizes[c] = size
    for c, size in enumerate(sizes):
        if size is None:
            raise ParseError(
                "%s is missing a size for %r" % (where, category.objects[c])
            )
    actions_map = _check_type(
        _require(data, "actions", where), (dict,), where
    )
    actions = [None] * len(category.morphisms)
    for mor_name, table in actions_map.items():
        f = category.mor_index(mor_name)
        _check_type(table, (list,), "%s action %r" % (where, mor_name))
        if not all(type(x) is int for x in table):
            raise ParseError("%s: action of %r must list ints" % (where, mor_name))
        actions[f] = tuple(table)
    for f in range(len(category.morphisms)):
        if actions[f] is None:
            if category.is_identity(f):
                actions[f] = tuple(range(sizes[category.dom[f]]))
            else:
                raise ParseError(
                    "%s is missing the action of %r"
                    % (where, category.morphisms[f])
                )
    return Presheaf(category, tuple(sizes), tuple(actions))


def parse_site(text):
    """Parse a site document from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % (exc,)) from None
    _check_type(data, (dict,), "site document")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ParseError("expected schema %r, got %r" % (SCHEMA, schema))
    name = data.get("name", "site")
    _check_type(name, (str,), "name")
    category = parse_category(_require(data, "category", "site document"))
    J = None
    if "topology" in data:
        J = parse_topology(category, data["topology"])
    subcategories = {}
    for sub_name, block in sorted(
        _check_type(data.get("subcategories", {}), (dict,), "subcategories").items()
    ):
        subcategories[sub_name] = parse_subcategory(
            category, block, "subcategory %r" % sub_name
        )
    presheaves = {}
    for p_name, block in sorted(
        _check_type(data.get("presheaves", {}), (dict,), "presheaves").items()
    ):
        presheaves[p_name] = parse_presheaf(
            category, block, "presheaf %r" % p_name
        )
    return SiteFile(name, category, J, subcategories, presheaves)


def load_site(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not ASCII text: %s" % (path, exc)) from None
    return parse_site(text)


def category_data(category):
    """The canonical "category" block for serialization."""
    composites = []
    for (g, f), h in sorted(category.table.items()):
        if category.is_identity(g) or category.is_identity(f):
            continue
        composites.append(
            [category.morphisms[g], category.morphisms[f], category.morphisms[h]]
        )
    return {
        "objects": list(category.objects),
        "morphisms": [
            [
                category.morphisms[f],
                category.objects[category.dom[f]],
                category.objects[category.cod[f]],
            ]
            for f in range(len(category.morphisms))
        ],
        "identities": {
            category.objects[c]: category.morphisms[category.identity[c]]
            for c in range(len(category.objects))
        },
        "composites": composites,
    }


def topology_data(category, J):
    """Explicit coverage block listing every covering sieve."""
    coverage = {}
    for c in range(len(category.objects)):
        coverage[category.objects[c]] = [
            [category.morphisms[f] for f in bits(mask)]
            for mask in J.covering[c]
        ]
    return {"coverage": coverage}


def subcategory_data(sub):
    parent = sub.parent
    return {
        "objects": [parent.objects[c] for c in bits(sub.objects_mask)],
        "morphisms": [parent.morphisms[f] for f in bits(sub.morphisms_mask)],
    }


def presheaf_data(P):
    category = P.category
    actions = {}
    for f in range(len(category.morphisms)):
        if category.is_identity(f):
            continue
        actions[category.morphisms[f]] = list(P.actions[f])
    return {
        "sizes": {
            category.objects[c]: P.sizes[c]
            for c in range(len(category.objects))
        },
        "actions": actions,
    }


def site_data(site):
    data = {
        "schema": SCHEMA,
        "name": site.name,
        "category": category_data(site.category),
    }
    if site.topology is not None:
        data["topology"] = topology_data(site.category, site.topology)
    if site.subcategories:
        data["subcategories"] = {
            name: subcategory_data(sub)
            for name, sub in sorted(site.subcategories.items())
        }
    if site.presheaves:
        data["presheaves"] = {
            name: presheaf_data(P)
            for name, P in sorted(site.presheaves.items())
        }
    return data


def serialize_site(site):
    return canonical_json(site_data(site))


def save_site(site, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_site(site))
