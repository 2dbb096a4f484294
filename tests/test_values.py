"""Value types: their reprs, which witnesses embed, and walk equality.

`Arrow`, `CheckResult` and `Instance` are named tuples; `PathMor` is a slotted
class whose equality and hash read (start, steps) and ignore `visited`.
"""

import pytest

from catbundle.complexes import PathMor
from catbundle.crossed import Arrow
from catbundle.report import CheckResult
from catbundle.schema import Instance


def test_value_reprs_are_pinned():
    walk = PathMor("0", (("e01", 1), ("e12", -1)), ("0", "1", "2"))
    assert repr(walk) == \
        "PathMor(start='0', steps=(('e01', 1), ('e12', -1)), visited=('0', '1', '2'))"
    assert repr(Arrow("(12)", "e")) == "Arrow(h='(12)', g='e')"
    assert repr(CheckResult("peiffer.first", "a law", "pass")) == \
        "CheckResult(check_id='peiffer.first', law='a law', status='pass', witness=None)"
    assert repr(Instance("s3-line5", 3, True, "chain", "cover", "gc")) == \
        "Instance(preset='s3-line5', seed=3, noise=True, chain='chain', cover='cover', gc='gc')"


def test_walks_differing_only_in_visited_are_equal():
    walk = PathMor("0", (("e01", 1),), ("0", "1"))
    twin = PathMor("0", (("e01", 1),), ("0", "2"))
    assert walk == twin and not walk != twin
    assert hash(walk) == hash(twin) == hash((walk.start, walk.steps))
    assert len({walk, twin}) == 1
    assert walk != PathMor("1", (("e01", 1),), ("0", "1"))
    assert walk != ("0", (("e01", 1),))


@pytest.mark.parametrize("field", ["start", "steps", "visited", "other"])
def test_walk_fields_cannot_be_assigned(field):
    walk = PathMor("0", (), ("0",))
    with pytest.raises(AttributeError):
        setattr(walk, field, "1")
    with pytest.raises(AttributeError):
        delattr(walk, field)
    assert walk.start == "0" and walk.steps == () and walk.visited == ("0",)


def test_named_tuple_values_hash_as_their_fields():
    # a frozen dataclass hashed as its field tuple, so set orders are unchanged
    assert hash(Arrow("(12)", "e")) == hash(("(12)", "e"))
    result = CheckResult("peiffer.first", "a law", "fail", "w")
    assert hash(result) == hash(("peiffer.first", "a law", "fail", "w"))
