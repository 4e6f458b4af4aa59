import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrfsdp import InvalidInputError, MrfInstance, generate_grid_instance
from mrfsdp.formats import (
    atomic_write_text,
    dumps_instance,
    instance_from_doc,
    instance_sha256,
    load_instance,
    load_labeling,
    load_result,
    save_instance,
    save_labeling,
    save_result,
    strip_timing,
)

from conftest import edge_triples, make_instance, random_instance, unary_triples

AWKWARD = make_instance(
    3, 2,
    [(0, 1, 0.1), (1, 0, 1e-300), (2, 1, -7.25)],
    [(0, 1, 1 / 3), (1, 2, -0.0)],
)


def test_instance_round_trip_exact(tmp_path, rng):
    for mrf in [AWKWARD] + [random_instance(rng) for _ in range(5)]:
        path = tmp_path / "inst.json"
        save_instance(mrf, str(path))
        # byte-identical documents: every column entry survives, and -0.0
        # stays distinct from 0.0
        assert dumps_instance(load_instance(str(path))) == dumps_instance(mrf)


def test_instance_serialization_deterministic():
    assert dumps_instance(AWKWARD) == dumps_instance(AWKWARD)


def test_instance_doc_shape():
    doc = json.loads(dumps_instance(AWKWARD))
    assert set(doc) == {"num_nodes", "num_labels", "unary", "binary"}
    assert set(doc["unary"][0]) == {"node", "label", "weight"}
    assert set(doc["binary"][0]) == {"i", "j", "weight"}


def rejects(message, mutate):
    """A mutation of AWKWARD's document, tagged with the exact error message
    instance_from_doc must raise for it."""
    mutate.message = message
    return mutate


def _set_entry(column, index, value):
    return lambda d: d[column].__setitem__(index, value)


@pytest.mark.parametrize(
    "mutate",
    [
        rejects("unknown keys in instance: ['extra']", lambda d: d.update(extra=1)),
        rejects("missing keys in instance: ['num_nodes']", lambda d: d.pop("num_nodes")),
        rejects("unknown keys in unary term: ['color']",
                lambda d: d["unary"][0].update(color="red")),
        rejects("missing keys in binary term: ['weight']",
                lambda d: d["binary"][0].pop("weight")),
        rejects("node must be an integer", lambda d: d["unary"][0].update(node="zero")),
        rejects("node must be an integer", lambda d: d["unary"][0].update(node=True)),
        rejects("unary/binary must be arrays", lambda d: d.update(unary={})),
        rejects("unary term must be an object", _set_entry("unary", 1, [1, 0, 1e-300])),
        rejects("binary term must be an object", _set_entry("binary", 1, [1, 2, -0.0])),
        rejects("j must be an integer", lambda d: d["binary"][0].update(j=1.0)),
        rejects("weight must be a number", lambda d: d["unary"][2].update(weight=True)),
        rejects("duplicate unary term for (0, 1)",
                lambda d: d["unary"].append(dict(d["unary"][0]))),
        rejects("duplicate edge (0, 1)",
                lambda d: d["binary"].append(dict(d["binary"][0]))),
        # the first offending term in document order is the one reported
        rejects("unknown keys in unary term: ['extra']",
                lambda d: (d["unary"][2].update(weight="x"), d["unary"][1].update(extra=1))),
    ],
)
def test_instance_strict_validation(mutate):
    doc = json.loads(dumps_instance(AWKWARD))
    mutate(doc)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(mutate.message)}$"):
        instance_from_doc(doc)


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_instance_rejects_non_finite_weight_text(weight):
    text = dumps_instance(AWKWARD).replace('"weight": 0.1', f'"weight": {weight}')
    with pytest.raises(InvalidInputError, match="^weights must be finite$"):
        instance_from_doc(json.loads(text))


def test_instance_integer_weight_loads_as_float():
    text = dumps_instance(AWKWARD)
    mrf = instance_from_doc(json.loads(text.replace('"weight": -7.25', '"weight": 1')))
    assert mrf.unary_weight.tolist() == [0.1, 1e-300, 1.0]
    assert dumps_instance(mrf) == text.replace('"weight": -7.25', '"weight": 1.0')


def test_instance_numpy_integer_sizes_written_as_json_integers():
    text = dumps_instance(MrfInstance(np.int64(3), np.int32(2)))
    assert text == dumps_instance(MrfInstance(3, 2))
    assert dumps_instance(instance_from_doc(json.loads(text))) == text


def test_instance_sha256_golden():
    # the bytes of the instance format, pinned: a change to the writer that
    # moves a single byte changes these digests
    assert instance_sha256(AWKWARD) == (
        "6835503c335c7fb9604d11cfb3eec80065a496c8c9e7f7a159b453ee0bf49fec")
    assert instance_sha256(generate_grid_instance(25, 40, 19, seed=0)) == (
        "caaee9fef194d0cb49f4b00b32aa6200e0cbada72dd00afa1eee267009b5a1db")


def reference_dumps(mrf):
    """The instance text as json.dumps lays out its per-term document."""
    doc = {
        "num_nodes": mrf.num_nodes,
        "num_labels": mrf.num_labels,
        "unary": [{"node": n, "label": l, "weight": w} for n, l, w in unary_triples(mrf)],
        "binary": [{"i": i, "j": j, "weight": w} for i, j, w in edge_triples(mrf)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1 / 3, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, 19))
    unary = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                          unique=True, max_size=2 * n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_instance(
        n, k,
        [(node, label, draw(WEIGHTS)) for node, label in unary],
        [(i, j, draw(WEIGHTS)) for i, j in edges],
    )


@given(mrf=instances())
@example(mrf=MrfInstance(4, 19))
@example(mrf=make_instance(5, 19, [(3, 18, 5e-324)], []))
@example(mrf=make_instance(3, 2, [], [(0, 2, 1e300), (1, 2, -0.0)]))
@settings(max_examples=200, deadline=None)
def test_dumps_instance_matches_json_reference(mrf):
    text = dumps_instance(mrf)
    assert text == reference_dumps(mrf)
    assert dumps_instance(instance_from_doc(json.loads(text))) == text


def test_load_missing_or_malformed(tmp_path):
    with pytest.raises(InvalidInputError):
        load_instance(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_instance(str(bad))


def test_labeling_round_trip(tmp_path):
    path = tmp_path / "labels.json"
    save_labeling(np.array([0, 2, 1]), str(path))
    assert np.array_equal(load_labeling(str(path)), [0, 2, 1])
    path.write_text('{"labels": [0], "extra": 1}\n')
    with pytest.raises(InvalidInputError):
        load_labeling(str(path))


def test_result_round_trip_and_schema(tmp_path):
    doc = {"schema": "mrfsdp-result-v1", "method": "fuses",
           "labeling": [0, 1], "timing": {"total_s": 1.0}}
    path = tmp_path / "res.json"
    save_result(doc, str(path))
    assert load_result(str(path)) == doc
    other = tmp_path / "other.json"
    other.write_text('{"schema": "something-else"}\n')
    with pytest.raises(InvalidInputError):
        load_result(str(other))


def test_strip_timing():
    doc = {"schema": "mrfsdp-result-v1", "a": 1, "timing": {"x": 2.0}}
    assert strip_timing(doc) == {"schema": "mrfsdp-result-v1", "a": 1}
    assert "timing" in doc


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(str(path), "world\n")
    assert path.read_text() == "world\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_instance_sha_changes_with_content():
    a = instance_sha256(AWKWARD)
    b = instance_sha256(MrfInstance(3, 2))
    assert a != b
    assert a == instance_sha256(AWKWARD)
