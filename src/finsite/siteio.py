"""Reading and writing sites as JSON documents (schema "finsite-site/1").

A site file bundles one category with an optional topology plus named
subcategories and presheaves.  Identity composites may be left out of the
input; serialization always emits the same canonical bytes for equal data.

Loading checks, in this order, and raises at the first failure:

0. The file: it can be read, and its bytes are ASCII (ParseError); line
   ends are turned as a read in text mode turns them.
1. The document: JSON, within the decoder's limits on nesting and on the
   digits of an int, with no lone surrogate in a string; a dict, the
   schema, a str name (ParseError).
2. The category block: the shape of every entry and the type of every name
   (ParseError); then, in `category.validate_category`, repeated object and
   arrow names, the ends of each arrow, the identities, each in turn
   (UnknownObject, UnknownName, MissingIdentity); each composite in turn,
   its names, then its ends (UnknownName, TypeMismatch); the identity laws,
   totality and associativity.
3. The topology block: its form; object by object, each sieve's shape,
   names and arrows into the object (ParseError, UnknownObject,
   UnknownName); every object listed, no sieve listed twice; then the
   axioms, in `topology.topology` (TopologyAxiomViolation, or ParseError
   for a listed set of arrows that is not a sieve).
4. Each subcategory, by name: shape, names, identities and closure; a
   block without "morphisms" is the full subcategory on its objects.
5. Each presheaf, by name: its sizes, and their sum against the size bound
   (`FINSITE_MAX_ASSIGNMENTS` or 2^16; SizeBoundExceeded) before any value
   table is read or built; then its actions, every arrow but the
   identities listed, and the presheaf laws (PresheafLawError).

So a site loads through the library's own checkers, `validate_category`
and `topology`; the loader checks shapes, each list in one walk over its
entries, and walks a failing block again only to name its first error.
"""

import json
from json.encoder import encode_basestring_ascii

from .category import (
    Frozen,
    bits,
    full_subcategory,
    subcategory,
    validate_category,
)
from .errors import FinsiteError, ParseError, SizeBoundExceeded, TopologyAxiomViolation
from .presheaf import Presheaf
from .topology import (
    _resolve_bound,
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


class SiteFile:
    """Parsed contents of one site document: its name, its FiniteCategory,
    its GrothendieckTopology or None, and dicts of named subcategories and
    presheaves.  Mutable, and compared and printed field by field as the
    `Frozen` classes are."""

    _fields = ("name", "category", "topology", "subcategories", "presheaves")
    _values, __eq__, __repr__ = Frozen._values, Frozen.__eq__, Frozen.__repr__

    def __init__(
        self, name, category, topology=None, subcategories=None, presheaves=None
    ):
        self.name = name
        self.category = category
        self.topology = topology
        self.subcategories = {} if subcategories is None else subcategories
        self.presheaves = {} if presheaves is None else presheaves


def canonical_json(data):
    """Stable text form: sorted keys, two-space indent, trailing newline.

    The bytes are those of `json.dumps(data, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n"`, written in one pass (given an indent, the
    stdlib leaves its C encoder for a generator per value).  Data holds str,
    int, bool, None, lists, tuples and dicts with str keys; anything else,
    such as a float, an int key or a set, raises TypeError instead of
    printing other bytes.

    Reports repeat fragments, such as the covering sieves that
    `GrothendieckTopology.describe` shares between topologies, so each tuple
    object, and each dict entry whose value is one, is printed once per
    indent and call, under (id, indent) and (key, id, indent).  An id names
    one object only while it lives: the memo dies with the call, `data` keeps
    every tuple in it alive, and the writer memoises no tuple it built.
    """
    shared = {}  # (id(tuple), pad) and (key, id(tuple), pad) -> text
    hit = shared.get
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
                items.append(
                    emit(x) if emit
                    else (hit((id(x), inner)) or write(x, inner)) if type(x) is tuple
                    else write(x, inner)
                )
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"

    def write(value, pad):
        if type(value) is tuple:  # a tuple comes here only on a miss
            return shared.setdefault((id(value), pad), array(value, pad))
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = pad + "  "
            items = []
            # encode_basestring_ascii raises TypeError on a key that is not a str
            for k, v in sorted(value.items()):
                emit = scalar(type(v))
                if emit or type(v) is not tuple:
                    text = emit(v) if emit else write(v, inner)
                    text = encode_basestring_ascii(k) + ": " + text
                else:  # the whole entry, once per call
                    entry = (k, id(v), inner)
                    text = hit(entry)
                    if text is None:
                        text = hit((id(v), inner)) or write(v, inner)
                        text = shared[entry] = encode_basestring_ascii(k) + ": " + text
                items.append(text)
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        if isinstance(value, (list, tuple)):
            return array(value, pad)
        # str, int, bool and None reach here only as subclasses or at the top
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None or value is True or value is False:
            return _CONSTANTS[value]
        if isinstance(value, int):
            return int.__repr__(value)
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


def _triples(entries, what, form, unique=False):
    """The dict (a, b) -> c of a list of [a, b, c] lists of names, checked
    in one walk that raises at the first entry that is not one or, if
    unique, repeats the (a, b) of an earlier one."""
    pairs = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            _check_type(entry, (list,), what + " entry")
            raise ParseError("%s entry must be %s, got %r" % (what, form, entry))
        a, b, c = entry
        if not type(a) is type(b) is type(c) is str:
            _check_names(entry, "name in a %s entry" % what)
        if unique and (a, b) in pairs:
            raise ParseError("%s (%r after %r) listed twice" % (what, a, b))
        pairs[a, b] = c
    return pairs


def _entries_shaped(morphisms, composites):
    """Are the entries lists of three, each morphism's name a string?"""
    for entry in morphisms:
        if type(entry) is not list or len(entry) != 3 or type(entry[0]) is not str:
            return False
    for entry in composites:
        if type(entry) is not list or len(entry) != 3:
            return False
    return True


def parse_category(data):
    """Build a validated category from the "category" block: its shape is
    checked here, its names and laws by `validate_category`.

    A block whose entries are lists of three, each morphism's name a
    string, goes to `validate_category` as it is.  Every name that then
    resolves is a string: each object takes an identity listed under a
    string key, and every other name must be an object's or a morphism's.
    Only a block that fails is read again, to raise its first shape error.
    """
    if type(data) is dict:
        objects = data.get("objects")
        morphisms = data.get("morphisms")
        identities = data.get("identities")
        composites = data.get("composites", [])
        if (
            type(objects) is type(morphisms) is type(composites) is list
            and type(identities) is dict
            and _entries_shaped(morphisms, composites)
        ):
            try:
                pairs = {(g, f): h for g, f, h in composites}
                if len(pairs) == len(composites):
                    return validate_category(objects, morphisms, identities, pairs)
            except (FinsiteError, TypeError):  # TypeError: an unhashable name
                pass
    _check_type(data, (dict,), "category block")
    objects = _check_type(
        _require(data, "objects", "category block"), (list,), "objects"
    )
    _check_names(objects, "object name")
    morphisms = _check_type(
        _require(data, "morphisms", "category block"), (list,), "morphisms"
    )
    _triples(morphisms, "morphism", "[name, dom, cod]")
    identities = _check_type(
        _require(data, "identities", "category block"), (dict,), "identities"
    )
    _check_names(identities.values(), "identity")
    composites = _triples(
        _check_type(data.get("composites", []), (list,), "composites"),
        "composite",
        "[g, f, h] meaning g after f = h",
        unique=True,
    )
    return validate_category(objects, morphisms, identities, composites)


def _diagnose_sieve(category, c, obj_name, arrows):
    """Raise the first error of a listed sieve that is not a list of the
    names of arrows into c, in list order."""
    _check_type(arrows, (list,), "sieve of %r" % obj_name)
    _check_names(arrows, "arrow in a sieve")
    for arrow_name in arrows:
        if category.cod[category.mor_index(arrow_name)] != c:
            raise ParseError("arrow %r does not land in %r" % (arrow_name, obj_name))


def parse_topology(category, data):
    """Accepts {"named": ...}, {"coverage": ...} or {"generate": ...}.

    Each sieve's arrows are resolved in one walk; a malformed sieve is read
    again arrow by arrow to name its first error.  A coverage must list
    every object and no sieve twice; `topology` checks the axioms on the
    sets of masks built for the repeat check."""
    if type(data) is not dict:
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

    families = data[kind]
    if type(families) is not dict:
        _check_type(families, (dict,), "topology %s block" % kind)
    arrow = category._mor_index.__getitem__
    obj_index = category._obj_index
    maximal = category._maximal
    listed = [None] * len(maximal)  # per object index, the set of masks listed
    for obj_name, sieves in families.items():
        c = obj_index[obj_name] if obj_name in obj_index else category.obj_index(obj_name)
        if type(sieves) is not list:
            _check_type(sieves, (list,), "sieve list of %r" % obj_name)
        outside = ~maximal[c]
        listed[c] = masks = set()
        for arrows in sieves:
            mask = 0
            try:
                # the index holds only names, so a name that is not one
                # raises KeyError, or TypeError if unhashable
                for name in arrows:
                    mask |= 1 << arrow(name)
            except (KeyError, TypeError):
                mask = outside
            if mask & outside or type(arrows) is not list:
                _diagnose_sieve(category, c, obj_name, arrows)
            masks.add(mask)

    if kind == "generate":
        seeds = {
            c: [sorted(bits(mask)) for mask in masks]
            for c, masks in enumerate(listed)
            if masks is not None
        }
        return generated_topology(category, seeds)

    for c, masks in enumerate(listed):
        if masks is None:
            raise ParseError(
                "coverage block is missing object %r" % (category.objects[c],)
            )
        if len(masks) != len(families[category.objects[c]]):
            raise ParseError(
                "coverage of %r lists a sieve twice" % (category.objects[c],)
            )
    try:
        return topology(category, listed)
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
    if "morphisms" not in data:
        return full_subcategory(category, objects)
    morphisms = _check_type(data["morphisms"], (list,), where)
    _check_names(morphisms, "morphism name")
    return subcategory(category, objects, morphisms)


def parse_presheaf(category, data, where):
    """A presheaf block.  Its sizes are checked against the size bound
    (`FINSITE_MAX_ASSIGNMENTS` or the default 2^16 elements in all) before
    any value table is read or built."""
    sizes_map = data.get("sizes") if type(data) is dict else None
    if type(sizes_map) is not dict:
        _check_type(data, (dict,), where)
        _check_type(_require(data, "sizes", where), (dict,), where)
    sizes = [None] * len(category.objects)
    obj_index = category._obj_index
    for obj_name, size in sizes_map.items():
        c = obj_index[obj_name] if obj_name in obj_index else category.obj_index(obj_name)
        if type(size) is not int or size < 0:
            raise ParseError("%s: size of %r must be a nonnegative int" % (where, obj_name))
        sizes[c] = size
    if None in sizes:
        raise ParseError(
            "%s is missing a size for %r"
            % (where, category.objects[sizes.index(None)])
        )
    total, bound = sum(sizes), _resolve_bound(None)
    if total > bound:
        raise SizeBoundExceeded(
            "%s has %d elements in all, over the bound %d" % (where, total, bound),
            total,
            bound,
        )
    actions_map = data.get("actions")
    if type(actions_map) is not dict:
        _check_type(_require(data, "actions", where), (dict,), where)
    actions = [None] * len(category.morphisms)
    mor_index, dom, cod = category._mor_index, category.dom, category.cod
    # the walk checks the types in each table, and notes whether every
    # table has the arity and the value range of its arrow
    lawful = True
    for mor_name, table in actions_map.items():
        f = mor_index[mor_name] if mor_name in mor_index else category.mor_index(mor_name)
        if type(table) is not list:
            _check_type(table, (list,), "%s action %r" % (where, mor_name))
        values = sizes[dom[f]]
        for x in table:
            if type(x) is not int:
                raise ParseError("%s: action of %r must list ints" % (where, mor_name))
            if not 0 <= x < values:
                lawful = False
        if len(table) != sizes[cod[f]]:
            lawful = False
        actions[f] = tuple(table)
    # an identity left out acts as the identity, and needs no check
    listed = []
    for f, size in zip(category.identity, sizes):
        if actions[f] is None:
            actions[f] = tuple(range(size))
        else:
            listed.append(f)
    if None in actions:
        raise ParseError(
            "%s is missing the action of %r"
            % (where, category.morphisms[actions.index(None)])
        )
    return Presheaf._checked(category, tuple(sizes), tuple(actions), listed, lawful)


def parse_site(text):
    """Parse a site document from JSON text."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an int literal over Python's digit limit, or
        # nesting deeper than the recursion limit
        raise ParseError("invalid JSON: %s" % (exc,)) from None
    if "\\u" in text or not text.isascii():
        try:
            json.dumps(data, ensure_ascii=False).encode()
        except UnicodeEncodeError as exc:
            raise ParseError(
                "invalid JSON: lone surrogate %r in a string" % (exc.object[exc.start],)
            ) from None
    if type(data) is not dict:
        _check_type(data, (dict,), "site document")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ParseError("expected schema %r, got %r" % (SCHEMA, schema))
    name = data.get("name", "site")
    if type(name) is not str:
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
    """Read and parse a site file, as step 0 of the module docstring says."""
    try:
        with open(path, "rb", buffering=0) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not ASCII text: %s" % (path, exc)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
