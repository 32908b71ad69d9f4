"""The artifact file formats and the module boundary around them."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import arraysep
from arraysep import features
from arraysep.errors import AudioIOError
from arraysep.features import FEATURE_RECORD, read_features_binary, write_features_binary
from arraysep.formats import read_records, write_csv, write_records
from arraysep.gmm import GmmModel, load_models, save_models
from arraysep.masks import MaskMatrix, read_mask_binary, write_mask_binary, write_mask_csv

SOURCES = sorted(Path(arraysep.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
# What is not a test: the package (less the re-exports of __init__.py), the
# benchmark and the frozen missing-feature task that both it and the tests drive.
USERS = [*(path for path in SOURCES if path.name != "__init__.py"),
         *sorted((REPO / "perfbench").glob("*.py")), REPO / "tests" / "mf_task.py"]
# Public names that only tests reach, each kept for the ROADMAP item that
# gives it a user or removes it, or for the acceptance test that reads it.
TEST_ONLY = {
    "gmm.save_models": "item 6",
    "gmm.load_models": "item 6",
    "gss.geometric_cost": "item 4",
    "gss.decorrelation_cost": "item 4",
    "gss.gradients": "criterion 1's gradient oracle in test_acceptance.py",
}


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


def public_names(path: Path) -> list[str]:
    """Each public name that ``path`` defines or assigns at its top level."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [t.id for t in getattr(target, "elts", [target]) if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def referenced_names(path: Path) -> set[str]:
    """Each name that ``path`` reads, reads off an object or imports by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def unreached(sources: list[Path], users: list[Path]) -> set[str]:
    """Each ``module.name`` of ``sources`` that no file of ``users`` references."""
    referenced = set().union(*map(referenced_names, users))
    return {f"{path.stem}.{name}" for path in sources for name in public_names(path)
            if name not in referenced}


def test_every_public_name_has_a_user_outside_the_tests():
    assert unreached(SOURCES, USERS) == set(TEST_ONLY)


def test_reach_guard_sees_each_form_of_definition_and_use(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("A = 1\nB, C = 2, 3\nD: int = 4\n_E = 5\ndef f(): return A\n"
                   "class G: pass\ndef h(): pass\nclass I: pass\n")
    user.write_text("from lib import B\nimport lib\nlib.G()\nD = 6\n")
    assert unreached([lib], [lib, user]) == {"lib.C", "lib.D", "lib.f", "lib.h", "lib.I"}


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


@pytest.mark.parametrize("bands", [(23, 24), (24, 25), (0, 0)])
def test_feature_file_must_hold_24_static_and_24_delta_values(tmp_path, bands):
    path = tmp_path / "f.bin"
    write_features_binary(str(path), np.zeros(2, FEATURE_RECORD))
    data = bytearray(path.read_bytes())
    header = np.frombuffer(data, features._FEATURE_HEADER, count=1)
    header["n_static"], header["n_delta"] = bands
    path.write_bytes(data)
    expected = f"{path}: {bands[0]}+{bands[1]} values per frame, expected 24+24"
    with pytest.raises(AudioIOError, match=f"^{re.escape(expected)}$") as refused:
        read_features_binary(str(path))
    assert refused.value.exit_code == 3
