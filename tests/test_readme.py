"""README.md states the user contract and points to the docstrings for the
numerics: it quotes no timing or history, every name it quotes resolves,
and every test it cites exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import fermigas

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SOURCE = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py"))
TESTS = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("*.py"))

MODULES = {m.name for m in pkgutil.iter_modules(fermigas.__path__)}
# a time, a memory size or a PR number: measurements and history belong in CHANGES.md
MEASUREMENT = re.compile(r"[0-9] ?(ms|us|µs|MB|MiB)\b|[0-9] s\b|s of CPU|PR [0-9]+")
SPANS = re.findall(r"`([^`\n]+)`", README)
DOTTED = re.compile(r"^([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)")


def test_readme_quotes_no_measurement_or_history():
    quoted = [line for line in README.splitlines() if MEASUREMENT.search(line)]
    assert quoted == []


def _resolve(root: str, path: str):
    obj = fermigas if root in ("fg", "fermigas") else importlib.import_module(f"fermigas.{root}")
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def test_every_quoted_name_resolves():
    checked = 0
    for span in SPANS:
        found = DOTTED.match(span)
        if found and (found[1] in ("fg", "fermigas") or found[1] in MODULES):
            _resolve(found[1], found[2].rstrip("."))  # AttributeError names what is missing
            checked += 1
    assert checked >= 20


def test_every_quoted_private_name_is_in_the_source():
    private = {m[0] for span in SPANS for m in [re.match(r"_[A-Za-z]\w*", span)] if m}
    missing = sorted(name for name in private if not re.search(rf"\b{name}\b", SOURCE))
    assert private and missing == []


def test_every_cited_test_exists():
    cited = set(re.findall(r"\b(test_\w+)\b(?!\.py)", README))
    missing = sorted(name for name in cited if not re.search(rf"^def {name}\(", TESTS, re.M))
    assert len(cited) >= 15 and missing == []
