"""The tolerance registry: every float threshold lives in ``rdv.tolerances``.

The scan reads the source of ``src/rdv``.  A float literal below 1e-3 in
magnitude, a negative power of two, ``np.finfo`` or a module-level
``*_TOL`` / ``*_EPS`` name anywhere but the registry is a threshold defined
outside it.  The report sections are pinned key by key, because every
report carries them byte for byte.
"""
import ast
import json
import pathlib

import pytest

import rdv.cli as cli
import rdv.tolerances as tolerances

PACKAGE = pathlib.Path(tolerances.__file__).parent
REGISTRY = pathlib.Path(tolerances.__file__).name


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _negative(node) -> bool:
    """Whether ``node`` is a negative number literal, such as ``-53``."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return isinstance(value, (int, float)) and value < 0


def thresholds(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, source) of every threshold-like node of a module."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-3):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Constant) and node.left.value == 2
              and _negative(node.right)):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call) and len(node.args) == 2
              and ast.unparse(node.func).endswith("ldexp") and _negative(node.args[1])):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and node.attr == "finfo":
            found.append((node.lineno, ast.unparse(node)))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith(("_TOL", "_EPS")):
                found.append((node.lineno, target.id))
    return found


def test_no_threshold_outside_the_registry():
    stray = {name: found for name, tree in _trees().items()
             if name != REGISTRY and (found := thresholds(tree))}
    assert stray == {}


@pytest.mark.parametrize("source", [
    "if val < best_val - 1e-15:\n    pass\n",
    "U = 2.0 ** -53\n",
    "ETA = math.ldexp(1.0, -1074)\n",
    "EPS = np.finfo(float).eps\n",
    "LOCAL_TOL = 10 * PRIMAL_TOL\n",
])
def test_scan_sees_an_inlined_threshold(source):
    assert thresholds(ast.parse(source))


def test_scan_passes_sizes_and_budgets():
    assert thresholds(ast.parse("CELLS = 2 ** 18\nLIMIT = 2.0 ** 53 // x\nHALF = 0.5\n")) == []


def test_registry_imports_nothing_from_the_package():
    tree = _trees()[REGISTRY]
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               if node.level or (node.module or "").startswith("rdv")]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("rdv")]
    assert modules == []


def test_every_entry_is_read():
    registry = _trees()[REGISTRY]
    entries = {target.id for node in registry.body if isinstance(node, ast.Assign)
               for target in node.targets}
    entries |= {node.name for node in registry.body if isinstance(node, ast.FunctionDef)}
    read = set()
    for name, tree in _trees().items():
        if name == REGISTRY:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert entries - read == set()


ANALYZE = {"duality_gap": 1e-08, "uniqueness": 1e-08, "chain": 1e-08, "invariance": 1e-08,
           "agreement": 1e-07, "frostman": 1e-06, "negative_type": 1e-10, "order": 1e-08,
           "equality": 1e-07}
VERIFY = {"duality_gap": 1e-08, "chain": 1e-08, "frostman": 1e-06, "invariance": 1e-08,
          "order": 1e-08, "elton_upper": 1e-08, "elton_lower": 2e-08, "dual_match": 1e-07,
          "equality": 1e-07, "agreement": 1e-07, "uniform": 1e-12}


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "grid(5)"], ANALYZE),
    (["verify", "--suite", "duality", "--seeds", "2"], VERIFY),
], ids=["analyze", "verify"])
def test_report_sections(tmp_path, capsys, argv, expected):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    section = json.loads(out.read_text(encoding="utf-8"))["tolerances"]
    assert section == expected


def test_report_maps_are_read_only():
    with pytest.raises(TypeError):
        tolerances.ANALYZE_TOLERANCES["frostman"] = 0.0


def test_doubled_gamma_is_exact():
    # minimax's invariance bound reads 2 gamma_h, which is 2 h u / (1 - h u)
    # to the bit: doubling is exact
    for h in range(1, 5000):
        hu = h * tolerances.U
        assert 2.0 * tolerances.gamma(h) == 2.0 * hu / (1.0 - hu)
    assert tolerances.U == 2.0 ** -53 and tolerances.ETA == 5e-324
