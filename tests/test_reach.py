"""The reach gate's hook and matcher (``tools/reach.py``), on a fixture package."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE = '''\
import functools


def deco(fn):
    return fn


@deco
@functools.lru_cache(maxsize=None)
def decorated():
    return 1


def outer():
    def inner():
        return 2

    return inner()


def never():
    return 3


def stub():
    """Only a docstring."""


def abstract(x):
    raise NotImplementedError


def ellipsis():
    ...


def marked():  # pragma: no cover - a reason
    return 4


def marked_without_reason():  # pragma: no cover
    return 5


def in_child():
    return 6
'''

# Enters decorated() and outer() here, then in_child() in a forked child
# that SIGKILLs itself: no exit hook runs there.
DRIVER = '''\
import os, signal
from fixture import mod
mod.decorated(); mod.outer()
pid = os.fork()
if pid == 0:
    mod.in_child()
    os.kill(os.getpid(), signal.SIGKILL)
_, status = os.waitpid(pid, 0)
assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
'''


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module
    spec.loader.exec_module(module)
    return module


def test_hook_and_matcher_on_a_fixture_package(tmp_path):
    reach = _reach()
    package = tmp_path / "fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    records = tmp_path / "records"
    records.mkdir()
    env = dict(os.environ, REPRO_REACH_DIR=str(records), REPRO_REACH_ROOT=str(package),
               PYTHONPATH=os.pathsep.join([str(reach.SITE), str(tmp_path)]))
    subprocess.run([sys.executable, "-c", textwrap.dedent(DRIVER)], env=env,
                   cwd=tmp_path, check=True, timeout=60)
    assert len(list(records.glob("*.txt"))) == 2  # the parent's and the child's

    fns = {fn.name: fn for fn in reach.functions(package)}
    entered = reach.entered(records)
    reached = {name for name, fn in fns.items() if (fn.path, fn.line) in entered}
    assert reached == {"deco", "decorated", "outer", "outer.inner", "in_child"}
    # co_firstlineno of a decorated function is its first decorator's line.
    assert FIXTURE.splitlines()[fns["decorated"].line - 1] == "@deco"
    assert {name: fn.exempt for name, fn in fns.items() if fn.exempt} == {
        "stub": "stub", "abstract": "stub", "ellipsis": "stub", "marked": "pragma",
    }

    lines, never = reach.report(fns.values(), {"tier-1": entered})
    assert never == 2
    assert [line.split()[-3] for line in lines if "never entered:" in line] == [
        "never", "marked_without_reason"]
