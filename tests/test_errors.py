"""The resource caps have one home: errors.py, beside CapExceeded."""

import re
from pathlib import Path

import permhomology
from permhomology import errors

CAP_DEFINITION = re.compile(r"^\s*([A-Z][A-Z0-9_]*_CAP)\s*[:=]", re.M)


def test_caps_are_defined_only_in_errors():
    package = Path(permhomology.__file__).parent
    where = {
        name: path.name
        for path in sorted(package.glob("*.py"))
        for name in CAP_DEFINITION.findall(path.read_text())
        if path.name != "errors.py"
    }
    assert where == {}
    caps = CAP_DEFINITION.findall((package / "errors.py").read_text())
    assert caps and all(isinstance(getattr(errors, c), int) for c in caps)


def test_caps_are_read_at_their_check():
    # a cap imported by name, or bound as a default argument, is copied
    # at import, and monkeypatching errors.NAME would not reach it
    package = Path(permhomology.__file__).parent
    copied = re.compile(r"^from \.errors import .*_CAP\b|=\s*[A-Z][A-Z0-9_]*_CAP\b", re.M)
    where = {path.name: copied.findall(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "errors.py"}
    assert {name: hits for name, hits in where.items() if hits} == {}
