import ast
import inspect
from pathlib import Path

import trustnet

ENTRY_POINTS = {
    "PipelineConfig", "PipelineResult", "StageError", "emit_figures", "run_pipeline",
    "SyntheticSpec", "generate_synthetic",
}

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trustnet"
#: What a run, the CLI, the demos and the acceptance criteria read of the package.
READERS = (*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py")

#: Public names that nothing in ``READERS`` references, each with the reason it stays.
UNREFERENCED = {
    **{f"pipeline.stage_{name}": "pipeline._run_stage looks each stage function up by name"
       for name in ("ingest", "bicm", "projection", "nec", "voters", "classify", "figures")},
    "ingest.Corpus.share_events": "perfbench/tracing.py's _corpus counts it until the"
                                  " benchmark change of ROADMAP item 1",
}


def test_package_exports_only_the_pipeline_entry_points():
    # building blocks are reached through their modules, so a wrapper set on a
    # module attribute (trustnet.nec.louvain, say) sees every call
    public = {name for name, value in vars(trustnet).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == ENTRY_POINTS
    assert not hasattr(trustnet, "__all__")


def public_definitions() -> set[str]:
    """``module.function`` and ``module.Class.method`` (properties too) of every public name."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update(f"{path.stem}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def package_module(node: ast.ImportFrom, path: Path) -> str | None:
    """``trustnet`` or ``trustnet.<module>`` for an import from the package, else None."""
    if node.level == 1 and path.parent == PACKAGE:
        return "trustnet" + (f".{node.module}" if node.module else "")
    if node.level == 0 and (node.module or "").split(".")[0] == "trustnet":
        return node.module
    return None


def references(path: Path) -> tuple[set[str], set[str]]:
    """(``module.name`` of each module function the file imports or reads through its
    module, or reads by bare name in its own module; every other attribute name it reads)."""
    tree = ast.parse(path.read_text())
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    aliases, qualified, attributes = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := package_module(node, path)):
            for alias in node.names:
                if module == "trustnet" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    qualified.add(f"{module.removeprefix('trustnet.')}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                qualified.add(f"{aliases[node.value.id]}.{node.attr}")
            else:
                attributes.add(node.attr)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and path.parent == PACKAGE):
            qualified.add(f"{path.stem}.{node.id}")
    return qualified, attributes


def unreferenced() -> set[str]:
    """The public names that nothing in ``READERS`` references.

    A module function counts as read only through its module (``nec.modularity``
    or an import of it), so a method or field of the same name does not hide it;
    a method or property counts as read by any attribute of its name.
    """
    qualified, attributes = set(), set()
    for path in READERS:
        q, a = references(path)
        qualified |= q
        attributes |= a
    return {name for name in public_definitions()
            if name not in qualified
            and not (name.count(".") == 2 and name.rsplit(".", 1)[1] in attributes)}


def test_every_public_name_has_a_reader_outside_the_tests():
    extra = sorted(unreferenced() - UNREFERENCED.keys())
    assert not extra, f"public names that only tests read: {', '.join(extra)}"


def test_every_allowed_name_is_defined_and_still_unreferenced():
    stale = sorted(UNREFERENCED.keys() - unreferenced())
    assert not stale, f"allowed names that are gone or now read: {', '.join(stale)}"
