"""The artifact file formats and the module boundary around them."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import arraysep
from arraysep.errors import AudioIOError
from arraysep.features import FEATURE_RECORD, read_features_binary, write_features_binary
from arraysep.formats import read_records, write_csv, write_records
from arraysep.gmm import GmmModel, load_models, save_models
from arraysep.masks import MaskMatrix, read_mask_binary, write_mask_binary, write_mask_csv

SOURCES = sorted(Path(arraysep.__file__).parent.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: Path) -> list[str]:
    """Each ``_``-prefixed name that ``path`` takes from another arraysep
    module: imported by name, or read off a module it imported."""
    tree = ast.parse(path.read_text(), str(path))
    uses, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("arraysep")):
            uses += [f"{node.module}.{a.name}" for a in node.names if private(a.name)]
            if node.module in (None, "arraysep"):
                modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.startswith("arraysep")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_no_module_takes_a_private_name_from_another():
    assert {"formats.py", "features.py", "masks.py", "pipeline.py"} <= {p.name for p in SOURCES}
    assert {path.name: private_uses(path) for path in SOURCES if private_uses(path)} == {}


def test_guard_sees_each_form_of_private_use(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import gss\nfrom .features import _a, b\nfrom arraysep.masks import _c\n"
                    "import arraysep.stft as s\nfrom os import _exit\n"
                    "gss._e(); s._f; b._g; gss.h; gss.__name__\n")
    assert sorted(private_uses(path)) == ["arraysep.masks._c", "features._a", "gss._e", "s._f"]


RECORD_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("count", "<u4"), ("width", "<u4")])


def record_frame(head):
    return np.dtype([("index", "<u2"), ("values", "<f8", (int(head["width"]),))])


def test_records_round_trip_with_a_header_dependent_record(tmp_path):
    path = str(tmp_path / "r.bin")
    records = np.zeros(3, record_frame({"width": 2}))
    records["index"], records["values"] = [4, 5, 6], [[1.5, -0.0], [np.inf, 2.0], [3.0, 1e-300]]
    write_records(path, np.array((b"TEST", 7, 3, 2), RECORD_HEADER), records, "test")
    head, loaded = read_records(path, RECORD_HEADER, b"TEST", 7, "test", record_frame)
    assert (head["count"], head["width"]) == (3, 2)
    assert loaded.tobytes() == records.tobytes() and loaded.dtype == records.dtype


def test_os_errors_name_the_file_kind(tmp_path):
    missing = str(tmp_path / "no" / "such.file")
    mask = MaskMatrix(np.zeros((1, 24)), np.zeros((1, 24), bool), np.zeros((1, 24), bool))
    model = GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    calls = [("cannot write feature file", write_features_binary, np.zeros(1, FEATURE_RECORD)),
             ("cannot write mask file", write_mask_binary, mask),
             ("cannot write mask file", write_mask_csv, mask),
             ("cannot write model file", save_models, {"c": model}),
             ("cannot read feature file", read_features_binary),
             ("cannot read mask file", read_mask_binary),
             ("cannot read model file", load_models)]
    for message, call, *content in calls:
        with pytest.raises(AudioIOError, match=f"^{message} {re.escape(missing)}: "):
            call(missing, *content)
    with pytest.raises(AudioIOError, match=f"^cannot write test file {re.escape(missing)}: "):
        write_csv(missing, "h", np.zeros((1, 1)), ["%d"], "test")
