"""File formats: instance, labeling, and result documents.

The instance format is the canonical interchange document

    {"num_nodes": N, "num_labels": K,
     "unary":  [{"node": int, "label": int, "weight": float}, ...],
     "binary": [{"i": int, "j": int, "weight": float}, ...]}

parsed strictly: unknown keys are rejected at every level.  All writes are
whole-file atomic (temp file + rename) and serialization is canonical
(sorted keys, fixed indentation), so identical inputs give byte-identical
files.  `dumps_instance` writes the instance text straight from the six term
columns with one fixed template per term kind, filled for every term in one
%-formatting pass; the text is byte-identical to
`json.dumps(doc, indent=2, sort_keys=True) + "\n"` of the document above, and
`instance_sha256` is the sha256 of that text.  `instance_from_doc` checks the
term objects a column at a time and re-checks term by term only when a check
fails, so its errors are those of the term-by-term checks.  Result documents
keep every timing field under the single "timing" key so reproducibility
checks can ignore it.
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


def _entries_by_term(items, keys, where):
    """Columns of a list of term objects, each entry checked on its own for
    exactly `keys`, integer indices and a numeric weight."""
    columns = [[] for _ in keys]
    for e in items:
        _require_keys(e, keys, where=where)
        for column, key, convert in zip(columns, keys, (_as_int, _as_int, _as_number)):
            column.append(convert(e[key], key))
    return columns


def _entries(items, keys, where):
    """Columns of a list of term objects (two indices, then the weight).

    The common case, plain dicts with exactly `keys`, int indices and float
    weights, is checked a column at a time.  Anything else (an int weight, a
    subclass, a bad entry) goes through `_entries_by_term`, which accepts or
    rejects it exactly as a term-by-term check would and raises the error of
    the first offending entry."""
    keyset = set(keys)
    if all(type(e) is dict and e.keys() == keyset for e in items):
        columns = [[e[key] for e in items] for key in keys]
        if (all(type(v) is int for v in columns[0])
                and all(type(v) is int for v in columns[1])
                and all(type(v) is float for v in columns[2])):
            return columns
    return _entries_by_term(items, keys, where)


def instance_from_doc(doc) -> MrfInstance:
    _require_keys(doc, ["num_nodes", "num_labels", "unary", "binary"],
                  where="instance")
    if not isinstance(doc["unary"], list) or not isinstance(doc["binary"], list):
        raise InvalidInputError("unary/binary must be arrays")
    unary = _entries(doc["unary"], ("node", "label", "weight"), "unary term")
    binary = _entries(doc["binary"], ("i", "j", "weight"), "binary term")
    return MrfInstance(_as_int(doc["num_nodes"], "num_nodes"),
                       _as_int(doc["num_labels"], "num_labels"),
                       *unary, *binary)


# One term object as json.dumps(indent=2, sort_keys=True) lays it out inside
# the instance document: keys in sorted order, 4/6-space indents.  Columns
# come from tolist(), so indices are ints and weights finite floats, whose
# repr is exactly what json writes for them; the sizes may be numpy integers,
# so they go through int().
_UNARY_TERM = '    {\n      "label": %d,\n      "node": %d,\n      "weight": %r\n    }'
_BINARY_TERM = '    {\n      "i": %d,\n      "j": %d,\n      "weight": %r\n    }'


def _terms_text(template, *columns):
    """The term list: the template repeated once per term and filled in one
    % pass from the columns' values, interleaved term by term."""
    n = columns[0].size
    if not n:
        return "[]"
    flat = [None] * (len(columns) * n)
    for offset, column in enumerate(columns):
        flat[offset::len(columns)] = column.tolist()
    return "[\n" + ",\n".join([template] * n) % tuple(flat) + "\n  ]"


def dumps_instance(mrf: MrfInstance) -> str:
    return ('{\n  "binary": '
            + _terms_text(_BINARY_TERM, mrf.edge_i, mrf.edge_j, mrf.edge_weight)
            + f',\n  "num_labels": {int(mrf.num_labels)}'
            + f',\n  "num_nodes": {int(mrf.num_nodes)}'
            + ',\n  "unary": '
            + _terms_text(_UNARY_TERM, mrf.unary_label, mrf.unary_node,
                          mrf.unary_weight)
            + "\n}\n")


def save_instance(mrf: MrfInstance, path: str) -> None:
    atomic_write_text(path, dumps_instance(mrf))


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
