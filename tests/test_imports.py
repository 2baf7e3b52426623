"""What importing the package and running each verb loads.

Each loading check runs in a fresh interpreter and compares ``sys.modules``
before and after the step, so modules that start-up (``site``) loads do not
count.  The checks for ``typing`` run under ``python -S``, because a site's
``.pth`` files may import it before the step.  The library imports nothing
outside the standard library.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quat1122
from quat1122 import cli

SRC = Path(quat1122.__file__).resolve().parents[1]

ALL_LAYERS = {"core", "dyadic", "euclid", "factor", "intarith", "modm", "repcount"}
REPCOUNT_STACK = {"core", "dyadic", "intarith", "repcount"}

#: Verb form -> (argv, the layers that running it loads).
VERB_LAYERS = {
    "primary": (["primary", "[3,0,0,0]"], {"core", "dyadic"}),
    "gcd": (["gcd", "[7,1,2,3]", "[3,0,0,0]"], {"core", "dyadic", "euclid"}),
    "tau": (["tau", "-m", "15", "[0,1,0,0]"], {"core", "modm", "intarith"}),
    "count": (["count", "12"], REPCOUNT_STACK),
    "count-oracle": (["count", "20", "--restriction", "i", "--oracle"], REPCOUNT_STACK),
    "verify": (["verify", "--max-n", "64"], REPCOUNT_STACK),
    "primes": (["primes", "-p", "5"], ALL_LAYERS),
    "factor": (["factor", "[6,3,1,-2]"], ALL_LAYERS),
}


def modules_added(setup: str, step: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter (started with ``flags``) adds to sys.modules
    while running ``step``."""
    script = "\n".join([
        "import io, json, sys",
        setup,
        "before = set(sys.modules)",
        step,
        "sys.stdout = sys.__stdout__",
        "print(json.dumps(sorted(set(sys.modules) - before)))",
    ])
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_package_loads_no_layer():
    added = modules_added("", "import quat1122")
    assert "quat1122" in added
    assert {m for m in added if m.startswith("quat1122.")} == set()


@pytest.mark.parametrize("form", list(VERB_LAYERS))
def test_verb_loads_its_layers_only(form):
    argv, layers = VERB_LAYERS[form]
    step = f"sys.stdout = io.StringIO(); assert cli.main({argv!r}) == 0"
    added = modules_added("from quat1122 import cli", step)
    assert {m for m in added if m.startswith("quat1122.")} == {
        f"quat1122.{layer}" for layer in layers}
    if form not in ("factor", "primes"):
        assert "dataclasses" not in added


def test_import_cli_loads_no_typing():
    assert "typing" not in modules_added("", "from quat1122 import cli", "-S")


@pytest.mark.parametrize("form", list(VERB_LAYERS))
def test_verb_loads_no_typing(form):
    step = f"sys.stdout = io.StringIO(); assert cli.main({VERB_LAYERS[form][0]!r}) == 0"
    assert "typing" not in modules_added("from quat1122 import cli", step, "-S")


@pytest.mark.parametrize("name", quat1122.__all__)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(quat1122, name)
    assert obj.__module__.startswith("quat1122.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from quat1122 import *", namespace)
    assert set(quat1122.__all__) <= set(namespace)
    assert set(quat1122.__all__) <= set(dir(quat1122))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        quat1122.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_cli_layer_names_read_their_defining_module():
    from quat1122 import factor

    assert cli.full_factor is factor.full_factor


def test_library_imports_only_the_standard_library():
    foreign = []
    for path in sorted((SRC / "quat1122").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports are the package's own
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
