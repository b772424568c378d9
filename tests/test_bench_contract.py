"""The library names that the benchmark harness in perfbench/ depends on.

perfbench/child.py imports radarlink functions by name, and
perfbench/tracer.py wraps functions at the module attributes their callers
look up (radarlink.scenario.run_bank is what featurize_scene calls).  A
refactor that moves one of them breaks the harness, or silently zeroes a
per-layer metric, without failing any other test; these tests fail
instead.  They parse the harness's source and neither import nor change it.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Tracer targets whose names are gone from their call sites, so their
# metrics read 0 until the tracer is pointed at bank_powers and beam_taps
# (the per-subcarrier channel is no longer formed).  The set must only
# shrink.
KNOWN_UNTRACED = {
    "radarlink.detection.correlate",
    "radarlink.scenario.channel_freq_all",
}


def harness_tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def child_imports() -> set:
    """(module, attribute) pairs that child.py takes from radarlink."""
    names = set()
    for node in ast.walk(harness_tree("child.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radarlink"):
            names |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "radarlink.cli":
            names.add(("radarlink.cli", node.attr))
    return names


def tracer_targets() -> list:
    """(module, attribute) of every entry in tracer.py's TARGETS."""
    for node in harness_tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("tracer.py defines no TARGETS")


def resolves(module, attr) -> bool:
    return hasattr(importlib.import_module(module), attr)


class TestChildImports:
    def test_every_imported_name_resolves(self):
        names = child_imports()
        # the parse found the imports the harness is known to make
        assert {
            ("radarlink.cli", "main"),
            ("radarlink.scenario", "read_dataset"),
            ("radarlink.scenario", "read_split_manifest"),
            ("radarlink.scenario", "write_dataset"),
            ("radarlink.neural", "BUILDERS"),
            ("radarlink.neural", "load_checkpoint"),
            ("radarlink.neural", "save_checkpoint"),
        } <= names
        assert sorted(n for n in names if not resolves(*n)) == []

    def test_prepare_calls_still_work(self, tmp_path):
        """write_dataset without dim and BUILDERS[v](n, seed=) as child.prepare calls them."""
        from radarlink.neural import BUILDERS, load_checkpoint, save_checkpoint
        from radarlink.scenario import read_dataset, write_dataset

        n = 4
        rng = np.random.default_rng(0)
        for variant, build in BUILDERS.items():
            width = n if variant == "aps" else 2 * n
            records = [
                (rng.standard_normal(width), rng.standard_normal(width), i % 2 == 0, i // 4, i % 4)
                for i in range(6)
            ]
            write_dataset(tmp_path / f"{variant}.rcpd", variant, records)
            name, inputs, targets, los, trials, vehicles = read_dataset(
                tmp_path / f"{variant}.rcpd"
            )
            assert name == variant
            assert inputs.shape == targets.shape == (6, width)
            assert list(trials) == [i // 4 for i in range(6)]
            save_checkpoint(tmp_path / f"{variant}.ckpt", build(n, seed=1))
            assert load_checkpoint(tmp_path / f"{variant}.ckpt").variant == variant


def called_names(module) -> set:
    """Names that the module's own source calls as plain names."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


class TestTracerTargets:
    def test_only_the_known_targets_are_unresolved(self):
        targets = tracer_targets()
        assert len(targets) > 20
        missing = {f"{module}.{attr}" for module, attr in targets if not resolves(module, attr)}
        assert missing == KNOWN_UNTRACED

    def test_every_resolved_target_is_called_there(self):
        """A function moved away whose old name stays imported still
        resolves, but its wrapper is never called and its metric reads 0."""
        uncalled = [
            f"{module}.{attr}"
            for module, attr in tracer_targets()
            if resolves(module, attr) and attr not in called_names(module)
        ]
        assert uncalled == []
