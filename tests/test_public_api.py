"""No dead public API: every public top-level function or class in src/vetsim
is referenced by some other src code, or is listed here with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vetsim"

# Public names that no src code references, and why each stays.
UNREFERENCED_ALLOWED = {
    "check_connectivity": "acceptance criterion 5 (connectivity residual): it certifies "
                          "a pair of mounts, which is a design check, not a simulation step",
    "pose_from_observation": "acceptance criterion 5 (pose round trip): it recovers the "
                             "observed robot's pose from a tag, which no controller uses",
}


def unreferenced_public_names(src: Path) -> list:
    """Public top-level functions and classes of the modules in src that no
    other top-level statement of those modules names."""
    statements = [node for path in sorted(src.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    names = {
        id(node): {n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        for node in statements
    }
    return sorted(
        node.name for node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names[id(other)] for other in statements if other is not node)
    )


def test_every_unreferenced_public_name_is_allowed_with_a_reason():
    assert unreferenced_public_names(SRC) == sorted(UNREFERENCED_ALLOWED)
