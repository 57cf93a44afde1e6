"""The package's immutable records: equality and hashing by field,
no assignment, and a pickle round trip (pool workers receive entries
pickled)."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from orbimf.constraints import ConstraintSet
from orbimf.grading import VariableWeights, WeightSystem
from orbimf.numberfield import QuotientSpec, reduce
from orbimf.polyring import Poly, VarTable, parse_poly


def _table(params=("c", "a")):
    return VarTable(("x",) + params, ring_vars=("x",), param_vars=params)


def _spec(minimal="c^4 - 2"):
    vt = _table()
    return QuotientSpec(vt, ("c",), (parse_poly(minimal, vt),))


# record name -> (builder, builder of a record that differs in one field,
# a field to assign to); each call builds the record from fresh parts
RECORDS = {
    "VarTable": (_table, lambda: _table(("a", "c")), "names"),
    "WeightSystem": (lambda: WeightSystem(3, 4, 5, 13), lambda: WeightSystem(3, 4, 5, 14), "h"),
    "VariableWeights": (
        lambda: VariableWeights((("x", Fraction(1, 3)), ("y", Fraction(1, 2)))),
        lambda: VariableWeights((("x", Fraction(1, 3)), ("y", Fraction(1, 4)))),
        "weights",
    ),
    "ConstraintSet": (
        lambda: ConstraintSet.from_polys([parse_poly("2*a - 4*c", _table())], epsilon=1),
        lambda: ConstraintSet.from_polys([parse_poly("2*a - 4*c", _table())], epsilon=-1),
        "epsilon",
    ),
    "QuotientSpec": (_spec, lambda: _spec("c^4 + 2"), "generators"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    make, make_other, field = RECORDS[name]
    record, twin, other = make(), make(), make_other()
    assert type(record).__name__ == name
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert record != other
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):  # VarTable and QuotientSpec have a __dict__
        record.not_a_field = 1
    assert record == twin
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and hash(back) == hash(record)


def test_unpickled_quotient_spec_builds_its_own_reducer():
    spec = _spec()
    c5 = Poly.var(spec.vt, "c") ** 5
    assert str(reduce(c5, spec)) == "2*c"  # the reducer is built and kept
    back = pickle.loads(pickle.dumps(spec))
    assert "_normal_form" not in vars(back)
    assert str(reduce(c5, back)) == "2*c" and "_normal_form" in vars(back)
