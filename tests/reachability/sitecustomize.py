"""Record every ``repro`` function a process enters (reachability probe).

Put the directory holding a copy of this file first on ``PYTHONPATH``;
Python imports ``sitecustomize`` at start-up, in every process the run
spawns. A ``sys.setprofile`` / ``threading.setprofile`` hook then appends
``file<TAB>firstlineno<TAB>name`` to ``hits/<pid>.tsv`` beside this file
the first time each code object under ``src/repro`` is called. Lines are
written as they happen, so a process that leaves through ``os._exit``
is still counted. ``co_firstlineno`` of a decorated function is its
first decorator's line; ``tests/test_reachability.py`` matches it to
the AST ``def`` on that key.
"""

import os
import sys
import threading

_HITS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hits")
_MARK = os.sep + os.path.join("src", "repro") + os.sep
_seen = set()
_out = None


def _hook(frame, event, arg):
    global _out
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    path = code.co_filename
    if _MARK not in path:
        return
    if _out is None:
        os.makedirs(_HITS, exist_ok=True)
        _out = open(os.path.join(_HITS, f"{os.getpid()}.tsv"), "a",
                    buffering=1)
    _out.write(f"{os.path.realpath(path)}\t{code.co_firstlineno}\t"
               f"{code.co_name}\n")


def _reopen_in_child():
    global _out
    _out = None


os.register_at_fork(after_in_child=_reopen_in_child)
sys.setprofile(_hook)
threading.setprofile(_hook)
