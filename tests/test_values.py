"""Value semantics of the immutable value classes.

Each class compares and hashes a fixed tuple of its fields: equal values
are ``==`` and hash as that tuple does, so set and dict orders (and with
them every output and BFS order) do not depend on how a class is built.
Attributes cannot be set or deleted, and pickle and copy round trips give
an equal value.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import quiverfold
from quiverfold.chebring import ChebElem
from quiverfold.exchange import to_quiver
from quiverfold.repcat import IndecClass
from quiverfold.rootsys import generate_roots
from quiverfold.tropical import Seed, g_matrix
from quiverfold.unfolding import standard_folding


def _seed(word):
    seed = Seed.initial(standard_folding("H3").B)
    for k in word:
        seed = seed.mutate(k)
    return seed


def _quiver(opp):
    return to_quiver(standard_folding("H3", opp=opp).B)


# class name -> (make, the compared fields, a different value); make() builds
# a fresh value each call, so two calls give equal values that share nothing
VALUES = {
    "ChebElem": (lambda: ChebElem(3, (1, 2, 0)), ("n", "coeffs"), ChebElem(3, (1, 2, 1))),
    "Seed": (lambda: _seed((0, 1, 2)), ("rows", "m"), _seed((0, 1))),
    "GMatrix": (lambda: g_matrix(_seed((0, 1, 2))), ("entries", "word"), g_matrix(_seed((0, 1)))),
    "FoldingSpec": (
        lambda: standard_folding("H4"),
        (
            "kind", "S", "B", "blocks", "weights", "labels", "folded_labels", "n", "m",
            "kappa",
        ),
        standard_folding("H4", opp=True),
    ),
    "RootSet": (
        lambda: generate_roots("H3"),
        ("type_name", "rank", "roots", "positives", "keys"),
        generate_roots("I2(5)"),
    ),
    "IndecClass": (
        lambda: IndecClass(3, (1, 1, 0), 1, 2, proj_vertex=None, inj_vertex=0),
        ("ident", "dim", "orbit", "slice", "proj_vertex", "inj_vertex"),
        IndecClass(3, (1, 1, 0), 1, 2, proj_vertex=None, inj_vertex=1),
    ),
    "RQuiver": (lambda: _quiver(False), ("vertices", "arrows", "vertex_weights"), _quiver(True)),
}
HASHABLE = sorted(set(VALUES) - {"RQuiver"})


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_equal_and_differ_from_others(name):
    make, _, other = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != tuple(getattr(a, f) for f in VALUES[name][1])


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_is_the_hash_of_the_compared_fields(name):
    make, fields, other = VALUES[name]
    a, b = make(), make()
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    assert hash(other) == hash(tuple(getattr(other, f) for f in fields))
    assert len({a, b, other}) == 2


def test_seeds_differing_only_in_word_g_or_values_are_equal():
    seed = _seed((0, 1, 2))
    start = _seed(())
    for twin in (
        Seed(seed.rows, seed.m, (2, 2), seed.g, seed.values),
        Seed(seed.rows, seed.m, seed.word, start.g, seed.values),
        Seed(seed.rows, seed.m, seed.word, seed.g, None),
        Seed(seed.rows, seed.m, (), start.g, start.values),
    ):
        assert twin == seed and hash(twin) == hash(seed)
    assert Seed(start.rows, seed.m, seed.word, seed.g, seed.values) != seed


@pytest.mark.parametrize("name", sorted(VALUES))
def test_attributes_cannot_be_set_or_deleted(name):
    make, fields, _ = VALUES[name]
    value = make()
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_pickle_and_copy_round_trip(name):
    make, fields, _ = VALUES[name]
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        for field in fields:
            assert getattr(twin, field) == getattr(value, field)


def test_seed_round_trip_keeps_word_and_g():
    seed = _seed((0, 1, 2))
    for twin in (pickle.loads(pickle.dumps(seed)), copy.copy(seed), copy.deepcopy(seed)):
        assert (twin.word, twin.g) == (seed.word, seed.g)
        assert twin.C == seed.C and g_matrix(twin) == g_matrix(seed)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A cold ``import quiverfold.cli`` stays off ``dataclasses`` and ``inspect`` (about 20 ms)."""
    src = str(Path(quiverfold.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import quiverfold.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
