"""The ten frozen records behave as @dataclass(frozen=True) made them.

Each record is a plain class on core.Record.  Every test builds it next
to a frozen dataclass with the same name and fields, made here, and
holds the two to the same repr, ==, hash, constructor signature and
refusal to be changed.
"""

import dataclasses
import inspect

import pytest

from gds.box import BoxResult
from gds.core import DiscreteMeasure, FeatureFamily, GeometricDataSet, MmSpace, gds_to_mm
from gds.coupling import Coupling
from gds.metrics import CellSet
from gds.numerics import EXACT, FLOAT, Q
from gds.observable import DconcResult
from gds.suite import PropertyOutcome, SuiteReport

D = dataclasses.field


def reference(cls, *fields):
    """A frozen dataclass named as cls, with these (name, default) fields."""
    specs = [(name, object) if default is None else (name, object, default)
             for name, default in fields]
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


def measure(i):
    return DiscreteMeasure((Q(1, 2 + i), 1 - Q(1, 2 + i)))


def family(i):
    return FeatureFamily(((Q(0), Q(1, 1 + i)), (Q(1), Q(0))), ("f0", "f1"))


def coupling(i):
    return Coupling(((Q(1, 3 + i), Q(0)), (Q(0), 1 - Q(1, 3 + i))))


def outcome(i):
    return PropertyOutcome(f"p{i}", True, 3, i, None if i == 0 else f"trial {i}: off")


# cls, its reference's fields with their defaults (None: no default), and
# positional arguments for value i; values 0 and 1 differ.
CASES = [
    (DiscreteMeasure, [("weights", None), ("mode", D(default=EXACT))],
     lambda i: [measure(i).weights, EXACT]),
    (FeatureFamily, [("rows", None), ("labels", None), ("mode", D(default=EXACT))],
     lambda i: [family(i).rows, ("a", f"b{i}"), EXACT]),
    (GeometricDataSet, [("features", None), ("measure", None), ("point_labels", D(default=()))],
     lambda i: [family(i), measure(0), ("x", "y")]),
    (MmSpace, [("dist", None), ("measure", None), ("point_labels", D(default=()))],
     lambda i: [((0, 1 + i), (1 + i, 0)), DiscreteMeasure((0.5, 0.5), FLOAT), ("x", "y")]),
    (Coupling, [("matrix", None), ("mode", D(default=EXACT))],
     lambda i: [coupling(i).matrix, EXACT]),
    (CellSet, [("n", None), ("m", None), ("cells", None)],
     lambda i: [2, 3, frozenset({(0, 0), (1, 1 + i)})]),
    (DconcResult, [("value", None), ("coupling", None), ("to_right", None), ("to_left", None)],
     lambda i: [Q(i, 4), coupling(i), (0, 1), (1, i)]),
    (BoxResult, [("value", None), ("coupling", None), ("cells", None)],
     lambda i: [Q(i, 4), coupling(0), CellSet(2, 2, frozenset({(0, i)}))]),
    (PropertyOutcome,
     [("name", None), ("asserted", None), ("trials", None), ("failures", None),
      ("example", D(default=None))],
     lambda i: [f"p{i}", True, 3, i, "trial 0: off"]),
    (SuiteReport, [("seed", None), ("trials", None), ("outcomes", None)],
     lambda i: [i, 3, (outcome(0), outcome(1))]),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    cls, fields, args = request.param
    return cls, reference(cls, *fields), [name for name, _ in fields], args


def pair(cls, ref, args):
    """A record and its reference, built from the same arguments."""
    return cls(*args), ref(*args)


def test_ten_records_all_on_the_one_base():
    from gds.core import Record

    assert len(CASES) == 10
    assert all(issubclass(cls, Record) and not dataclasses.is_dataclass(cls)
               for cls, _, _ in CASES)


def test_fields_and_signature_match_the_reference(case):
    cls, ref, names, _ = case
    assert cls._fields == tuple(f.name for f in dataclasses.fields(ref)) == tuple(names)
    shape = lambda c: [(p.name, p.kind, p.default)
                       for p in inspect.signature(c).parameters.values()]
    assert shape(cls) == shape(ref)


def test_repr(case):
    cls, ref, _, args = case
    for i in (0, 1):
        rec, twin = pair(cls, ref, args(i))
        assert repr(rec) == repr(twin)


def test_eq_ne_and_hash(case):
    cls, ref, _, args = case
    a, ra = pair(cls, ref, args(0))
    b, rb = pair(cls, ref, args(0))
    c, rc = pair(cls, ref, args(1))
    assert a is not b
    assert (a == b, a != b, a == c, a != c) == (ra == rb, ra != rb, ra == rc, ra != rc)
    assert (a == b, a == c) == (True, False)
    assert hash(a) == hash(b) == hash(ra)
    assert hash(c) == hash(rc)
    # Another class, with the same field values too, is never equal, and
    # neither is a subclass, as between the references.
    sub, ref_sub = type("Sub", (cls,), {})(*args(0)), type("Sub", (ref,), {})(*args(0))
    assert (ra == ref_sub, ra != ref_sub) == (False, True)
    for other in (sub, ra, tuple(args(0)), None, object()):
        assert (a == other, a != other) == (False, True)
        assert (other == a, other != a) == (False, True)


def test_positional_and_keyword_construction(case):
    cls, ref, names, args = case
    values = args(1)
    rec = cls(*values)
    assert cls(**dict(zip(names, values))) == rec
    assert tuple(getattr(rec, n) for n in names) == tuple(values)
    # Each defaulted field may be left out, positionally or by keyword.
    required = [p.name for p in inspect.signature(ref).parameters.values()
                if p.default is inspect.Parameter.empty]
    if len(required) < len(names):
        head = values[: len(required)]
        assert cls(*head) == cls(**dict(zip(required, head)))


def test_frozen(case):
    cls, ref, names, args = case
    rec, twin = pair(cls, ref, args(0))
    for name in [*names, "extra"]:
        for obj in (rec, twin):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert rec == cls(*args(0))


def test_post_init_still_validates():
    with pytest.raises(Exception, match="sum"):
        DiscreteMeasure((Q(1, 2), Q(1, 4)))
    with pytest.raises(Exception, match="outside"):
        CellSet(2, 2, frozenset({(2, 0)}))


def test_cached_dist_is_neither_compared_nor_shown():
    X = GeometricDataSet(family(0), measure(0))
    Y = GeometricDataSet(family(0), measure(0))
    before = repr(X), hash(X)
    assert "dist" not in vars(X)
    assert X.dist == ((0, 1), (1, 0))
    assert "dist" in vars(X) and "dist" not in vars(Y)
    assert X == Y and hash(X) == hash(Y)
    assert (repr(X), hash(X)) == before == (repr(Y), hash(Y))
    assert "dist" not in repr(X)
    # The default labels are filled in before the record is frozen.
    assert X.point_labels == ("p0", "p1")


def test_unchecked_constructions_equal_the_checked_ones():
    # gds_to_mm and Coupling.certified skip __init__'s check, and must
    # still build the record __init__ builds.
    X = GeometricDataSet(family(1), measure(1))
    M = gds_to_mm(X)
    checked = MmSpace(X.dist, X.measure, X.point_labels)
    assert (M == checked, hash(M), repr(M)) == (True, hash(checked), repr(checked))
    pi = Coupling.certified([[1, 0], [0, 2]], 3, EXACT)
    checked = Coupling(((Q(1, 3), Q(0)), (Q(0), Q(2, 3))), EXACT)
    assert (pi == checked, hash(pi), repr(pi)) == (True, hash(checked), repr(checked))
    assert list(vars(M)) == list(MmSpace._fields)
    assert list(vars(pi)) == list(Coupling._fields)
