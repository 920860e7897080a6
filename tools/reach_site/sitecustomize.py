"""Record the functions a Python process enters, for ``tools/reach.py``.

``tools/reach.py`` puts this directory first on ``PYTHONPATH``, so every
interpreter it starts imports this module at start-up, and so does
every child that inherits the environment: process ranks, pool workers,
CLI subprocesses.  When ``REPRO_REACH_DIR`` is set, the process appends
one line ``<real path>\\t<co_firstlineno>`` to ``REPRO_REACH_DIR/<pid>.txt``
the first time it enters a code object of a file under
``REPRO_REACH_ROOT``.  Each line is written when it is found, so a
process that is terminated or SIGKILLed keeps what it reached; there is
no signal handler and no exit hook.  Code objects named ``<...>``
(module bodies, lambdas, comprehensions) are skipped.
"""

import os
import sys
import threading


def _install(out_dir: str, root: str) -> None:
    root = os.path.join(os.path.realpath(root), "")
    paths = {}      # co_filename -> its real path if under root, else None
    recorded = {}   # id(code) -> code, kept alive so no id is reused
    sink = [None, -1]   # [pid, fd]: a forked child opens its own file

    def profile(frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        filename = code.co_filename
        path = paths.get(filename, False)
        if path is False:
            real = os.path.realpath(filename)
            path = paths[filename] = real if real.startswith(root) else None
        if path is None or id(code) in recorded or code.co_name.startswith("<"):
            return None
        recorded[id(code)] = code
        pid = os.getpid()
        if sink[0] != pid:
            sink[:] = [pid, os.open(os.path.join(out_dir, f"{pid}.txt"),
                                    os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)]
        os.write(sink[1], f"{path}\t{code.co_firstlineno}\n".encode())
        return None

    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("REPRO_REACH_DIR"):
    _install(os.environ["REPRO_REACH_DIR"], os.environ["REPRO_REACH_ROOT"])
