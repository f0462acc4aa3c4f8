import importlib
import pkgutil
import re
from pathlib import Path

import qcorr

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qcorr.__all__ if not hasattr(qcorr, name)]
    assert missing == []
    assert len(set(qcorr.__all__)) == len(qcorr.__all__)


def _removed_names():
    """The dotted names in the first column of README's removed-names table,
    without their call arguments (`PureState.tensor(other)` gives
    `PureState.tensor`)."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| removed | use instead |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        removed = line.split("|")[1]
        names += [re.sub(r"\(.*\)$", "", name) for name in re.findall(r"`([^`]+)`", removed)]
    return names


def _resolves(root, dotted: str) -> bool:
    target = root
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_removed_names_no_longer_resolve():
    names = _removed_names()
    assert {
        "mix",
        "WeightSumInvalid",
        "PureState.tensor",
        "examples.build_classical_fuzzy",
        "examples.build_separable_mixture",
        "examples.build_bell_diagonal",
        "examples.build_degenerate",
        "examples.build_most_mixed",
        "examples.build_separable_general",
        "examples.build_spin_x_mixture",
    } <= set(names)
    modules = [qcorr] + [
        importlib.import_module(f"qcorr.{info.name}") for info in pkgutil.iter_modules(qcorr.__path__)
    ]
    resolving = [
        f"{module.__name__}.{name}" for name in names for module in modules if _resolves(module, name)
    ]
    assert resolving == []
