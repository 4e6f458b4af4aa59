import json
import os

import numpy as np
import pytest

from mrfsdp import InvalidInputError, MrfInstance
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

from conftest import make_instance, random_instance

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


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d.pop("num_nodes"),
        lambda d: d["unary"][0].update(color="red"),
        lambda d: d["binary"][0].pop("weight"),
        lambda d: d["unary"][0].update(node="zero"),
        lambda d: d["unary"][0].update(node=True),
        lambda d: d.update(unary={}),
    ],
)
def test_instance_strict_validation(mutate):
    doc = json.loads(dumps_instance(AWKWARD))
    mutate(doc)
    with pytest.raises(InvalidInputError):
        instance_from_doc(doc)


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
