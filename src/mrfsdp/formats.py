"""File formats: instance, labeling, and result documents.

The instance format is the canonical interchange document

    {"num_nodes": N, "num_labels": K,
     "unary":  [{"node": int, "label": int, "weight": float}, ...],
     "binary": [{"i": int, "j": int, "weight": float}, ...]}

parsed strictly: unknown keys are rejected at every level.  All writes are
whole-file atomic (temp file + rename) and serialization is canonical
(sorted keys, fixed indentation), so identical inputs give byte-identical
files.  Result documents keep every timing field under the single "timing"
key so reproducibility checks can ignore it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import InvalidInputError
from .mrf import MrfInstance


def _canonical_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_keys(doc: dict, required, optional=(), where="document"):
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where} must be an object")
    allowed = set(required) | set(optional)
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidInputError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise InvalidInputError(f"missing keys in {where}: {sorted(missing)}")


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{where} must be an integer")
    return value


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{where} must be a number")
    return float(value)


def instance_to_doc(mrf: MrfInstance) -> dict:
    unary = zip(mrf.unary_node.tolist(), mrf.unary_label.tolist(),
                mrf.unary_weight.tolist())
    binary = zip(mrf.edge_i.tolist(), mrf.edge_j.tolist(),
                 mrf.edge_weight.tolist())
    return {
        "num_nodes": mrf.num_nodes,
        "num_labels": mrf.num_labels,
        "unary": [{"node": n, "label": l, "weight": w} for n, l, w in unary],
        "binary": [{"i": i, "j": j, "weight": w} for i, j, w in binary],
    }


def _entries(items, keys, parse, where):
    """Columns of a list of term objects, each checked for exactly `keys`."""
    columns = [[] for _ in keys]
    for e in items:
        _require_keys(e, keys, where=where)
        for column, key, convert in zip(columns, keys, parse):
            column.append(convert(e[key], key))
    return columns


def instance_from_doc(doc) -> MrfInstance:
    _require_keys(doc, ["num_nodes", "num_labels", "unary", "binary"],
                  where="instance")
    if not isinstance(doc["unary"], list) or not isinstance(doc["binary"], list):
        raise InvalidInputError("unary/binary must be arrays")
    unary = _entries(doc["unary"], ("node", "label", "weight"),
                     (_as_int, _as_int, _as_number), "unary term")
    binary = _entries(doc["binary"], ("i", "j", "weight"),
                      (_as_int, _as_int, _as_number), "binary term")
    return MrfInstance(_as_int(doc["num_nodes"], "num_nodes"),
                       _as_int(doc["num_labels"], "num_labels"),
                       *unary, *binary)


def dumps_instance(mrf: MrfInstance) -> str:
    return _canonical_dumps(instance_to_doc(mrf))


def save_instance(mrf: MrfInstance, path: str) -> None:
    atomic_write_text(path, dumps_instance(mrf))


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc


def load_instance(path: str) -> MrfInstance:
    return instance_from_doc(_load_json(path))


def instance_sha256(mrf: MrfInstance) -> str:
    return hashlib.sha256(dumps_instance(mrf).encode()).hexdigest()


def dumps_labeling(labels) -> str:
    return _canonical_dumps({"labels": [int(v) for v in np.asarray(labels)]})


def save_labeling(labels, path: str) -> None:
    atomic_write_text(path, dumps_labeling(labels))


def load_labeling(path: str) -> np.ndarray:
    doc = _load_json(path)
    _require_keys(doc, ["labels"], where="labeling")
    if not isinstance(doc["labels"], list):
        raise InvalidInputError("labels must be an array")
    return np.array([_as_int(v, "label") for v in doc["labels"]], dtype=int)


RESULT_SCHEMA = "mrfsdp-result-v1"


def dumps_result(doc: dict) -> str:
    return _canonical_dumps(doc)


def save_result(doc: dict, path: str) -> None:
    atomic_write_text(path, dumps_result(doc))


def load_result(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
        raise InvalidInputError(f"not a {RESULT_SCHEMA} document: {path}")
    return doc


def strip_timing(doc: dict) -> dict:
    """Copy of a result document with every timing field removed."""
    out = {k: v for k, v in doc.items() if k != "timing"}
    return out
