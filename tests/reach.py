"""Which lines of ``src/hypbound`` the command line reaches.

Runs a fixed list of ``hypbound`` invocations in-process under the stdlib
``trace``: every command, every family, and campaigns of 2100 samples, which
cross two block edges. It prints, per module of ``src/hypbound``, the lines
executed against the lines executable (the line starts of the module's code
objects), and the functions that no invocation entered.

    PYTHONPATH=src python tests/reach.py

The package is imported under the tracer, so its module-level lines count.
"""

from __future__ import annotations

import contextlib
import dis
import io
import os
import sys
import tempfile
import trace
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypbound"

NESTED = ('{"variant": "composition", "maps": [{"variant": "composition", "maps": ['
          '{"variant": "punctured_power", "rotation": 0.7, "power": 3}, '
          '{"variant": "punctured_exp", "rotation": 0.0, "power": 2, "decay": 0.5}]}, '
          '{"variant": "identity", "model": "punctured_disc"}]}')

# the arguments of each invocation; those that write a report or a table get an --out
# file in a temporary directory
RUNS = (
    ["dist", "disc", "0", "0.5"],
    ["dist", "halfplane", "i", "2i"],
    ["dist", "righthalf", "1", "2+i"],
    ["dist", "punctured", "0.3", "0.5i"],
    ["degree", "power:m=3,theta=0.7|exp:m=2,c=0.5"],
    ["degree", NESTED],
    ["verify", "--theorem", "two_point", "--family", "mix:deg=5", "--samples", "2100"],
    ["verify", "--theorem", "two_point_sharp", "--family", "blaschke:deg=16",
     "--samples", "2100"],
    ["verify", "--theorem", "two_point", "--family", "automorphism", "--samples", "500"],
    ["verify", "--theorem", "two_point", "--family", "realpart", "--samples", "200"],
    ["verify", "--theorem", "fixed_point", "--family", "fixing:deg=4", "--samples", "2100"],
    ["verify", "--theorem", "punctured", "--family", "exp:m=4,c=2", "--samples", "2100"],
    ["verify", "--theorem", "punctured", "--family", "exp:m=40", "--samples", "2100"],
    ["halfplane", "--n", "10,100,1000"],
    ["counterexample", "--pairs", "200"],
    ["convergence", "--z", "0.3+0.2i", "--rows", "5"],
)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _run_all(workdir: str) -> None:
    from hypbound.cli import main

    for k, argv in enumerate(RUNS):
        if argv[0] not in ("dist", "degree"):
            argv = [*argv, "--out", os.path.join(workdir, f"out{k}")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code not in (0, 1):  # realpart violates, so its verify exits 1
            raise SystemExit(f"hypbound {' '.join(argv)} exited {code}")


def reach() -> list:
    """(module, executed, executable, functions never entered) per module."""
    if "hypbound" in sys.modules:
        raise RuntimeError("hypbound must be imported under the tracer")
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as workdir:
        tracer.runfunc(_run_all, workdir)
    executed: dict = {}
    for filename, line in tracer.results().counts:
        executed.setdefault(os.path.realpath(filename), set()).add(line)
    rows = []
    for path in sorted(SRC.glob("*.py")):
        seen = executed.get(str(path.resolve()), set())
        lines, missed = set(), []
        for code in _code_objects(compile(path.read_text(), str(path), "exec")):
            body = {line for _, line in dis.findlinestarts(code) if line}
            lines |= body
            body.discard(code.co_firstlineno)  # the def line, which the module runs
            if not code.co_name.startswith("<") and body and not body & seen:
                missed.append(getattr(code, "co_qualname", code.co_name))
        rows.append((path.name, len(lines & seen), len(lines), missed))
    return rows


def table(rows: list) -> str:
    out = [f"Lines of src/hypbound reached by {len(RUNS)} CLI runs", "",
           "| module | executed | executable | functions never entered |",
           "|---|---|---|---|"]
    for name, hit, total, missed in rows:
        out.append(f"| {name} | {hit} | {total} | {', '.join(missed) or '-'} |")
    hit, total = sum(r[1] for r in rows), sum(r[2] for r in rows)
    out.append(f"| total | {hit} | {total} | {sum(len(r[3]) for r in rows)} functions |")
    return "\n".join(out)


if __name__ == "__main__":
    print(table(reach()))
