"""Every public top-level function and class in src/sawmollow is read by
some module there, save the few named below: a name that only its own
tests read belongs in the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sawmollow"

# Public names that no module under src/ reads, each with why it stays.
UNREAD = {
    "resolvent_spectrum": "the one spectrum entry for a non-uniform grid",
    "absorption_spectrum": "the forward model the fit tests draw data from",
    "cooling_rate_from_spectrum": "sideband rate, kept until an exact rate "
                                  "replaces it",
}


def unread_public_names(src: Path) -> set:
    """Public top-level functions and classes of src/*.py whose name no
    module there loads, as a bare name or as an attribute."""
    defined, loaded = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    return defined - loaded


def test_only_the_listed_public_names_go_unread():
    assert unread_public_names(SRC) == set(UNREAD)
