"""Which ``src/repro`` functions the kept surfaces reach, and which only tests do.

Runs every surface the repository keeps, each in a fresh Python process
under a stdlib ``sys.setprofile`` hook:

- every CLI command with its defaults, CI's ``trace``, ``metrics`` and
  two ``serve`` invocations, and one ``serve`` with every fault, retry
  and autoscale flag;
- every example, and the five bench ``--smoke`` runs as CI calls them;
- every measurement in ``benchmarks/baseline.py``'s ``MEASUREMENTS``;
- each ``benchmarks/e2e`` workload at ``quick=True`` (set-up, run and
  checks, in-process rather than through ``run.py``'s child samples);
- ``pytest benchmarks --ignore=benchmarks/e2e``.

It then runs the tier-1 suite (``pytest tests``) the same way and
prints, per module, the functions reached only by tests and those
reached by nothing, followed by the totals. A function is any ``def``
in ``src/repro`` (methods and nested functions included), matched by
file and first line. Processes that a surface starts itself are not
profiled. Outputs the surfaces write go to a temporary directory.

    python benchmarks/reachability.py        # ~13 min on 2 cores; make reach

Exits 1 if any surface exits non-zero (its reach is then incomplete).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Run in each child: install the hook, run one target, and at exit
#: write the file and first line of every code object called under
#: ``src``. Code objects are kept alive in ``seen``, so their ids are
#: never reused within the run.
_CHILD = """
import atexit, os, runpy, sys, threading
out, src, kind, target, *args = sys.argv[1:]
seen = {}
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen[id(code)] = code
def dump():
    sys.setprofile(None)
    with open(out, "w") as f:
        for code in seen.values():
            if code.co_filename.startswith(src):
                f.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
atexit.register(dump)
threading.setprofile(hook)
sys.setprofile(hook)
if kind == "module":
    sys.argv = [target, *args]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
elif kind == "script":
    sys.argv = [target, *args]
    sys.path[0] = os.path.dirname(target)
    runpy.run_path(target, run_name="__main__")
else:
    exec(target, {"__name__": "__reach__"})
"""

_BASELINE = f"""
import sys
sys.path.insert(0, {str(ROOT / "benchmarks")!r})
import baseline
for measure in baseline.MEASUREMENTS.values():
    measure()
"""

_E2E = f"""
import sys, time
sys.path.insert(0, {str(ROOT / "benchmarks" / "e2e")!r})
from workloads import WORKLOADS
workload = WORKLOADS[{{name!r}}]
state = workload.setup(0, True)
out, _ = workload.run(state, time.perf_counter)
workload.check(state, out)
"""

#: The five bench smokes, with CI's ``--plot`` where it passes one.
_SMOKES = {
    "bench_serving_sweep.py": False,
    "bench_fleet_scaling.py": True,
    "bench_fault_recovery.py": True,
    "bench_passes.py": False,
    "bench_ntt_cores.py": True,
}


def kept_surfaces(out: Path) -> list[tuple[str, str, str, list[str]]]:
    """``(label, kind, target, args)`` for every kept surface."""
    sys.path.insert(0, str(SRC))
    from repro.cli import COMMANDS

    surfaces = []
    for cmd in sorted(COMMANDS):
        args = [cmd]
        if cmd in ("trace", "metrics"):
            args += ["-o", str(out / f"{cmd}.json")]
        surfaces.append((f"cli {cmd}", "module", "repro.cli", args))
    cli_runs = {
        "ci trace": ["trace", "--benchmark", "lr", "--validate",
                     "-o", str(out / "lr-trace.json")],
        "ci metrics": ["metrics", "--benchmark", "lr", "--validate",
                       "-o", str(out / "lr-metrics.json")],
        "ci serve": ["serve", "--workload", "keyswitch",
                     "--arrival-rate", "300", "--requests", "48",
                     "--seed", "0", "--validate",
                     "-o", str(out / "serve-metrics.json"),
                     "--trace", str(out / "serve-trace.json")],
        "ci fleet serve": ["serve", "--workload", "keyswitch",
                           "--arrival-rate", "600", "--requests", "48",
                           "--seed", "0", "--instances", "2",
                           "--router", "key-affinity", "--key-cache", "2",
                           "--tenants", "4", "--key-sets", "6",
                           "--key-skew", "0.8", "--max-batch", "4",
                           "--max-queue-delay", "0.0005",
                           "--max-inflight", "2", "--max-queue-depth", "12",
                           "--validate",
                           "-o", str(out / "fleet-metrics.json"),
                           "--trace", str(out / "fleet-trace.json")],
        # Every fault, retry and autoscale flag at once.
        "serve with faults": ["serve", "--workload", "keyswitch",
                              "--arrival-rate", "600", "--requests", "48",
                              "--seed", "0", "--instances", "2",
                              "--autoscale-max", "3",
                              "--crash", "0:0.02:0.01",
                              "--straggler", "1:0.01:0.05:2.0",
                              "--hbm-derate", "0:0.0:0.03:0.5",
                              "--deadline", "0.05", "--retry-max", "3",
                              "--retry-backoff", "0.0005",
                              "--retry-jitter", "0.1",
                              "--detect-delay", "0.001", "--validate"],
    }
    for label, args in cli_runs.items():
        surfaces.append((label, "module", "repro.cli", args))
    for example in sorted((ROOT / "examples").glob("*.py")):
        surfaces.append(
            (f"example {example.name}", "script", str(example), [])
        )
    for script, plots in _SMOKES.items():
        stem = script[:-3]
        args = ["--smoke", "-o", str(out / f"{stem}.json")]
        if plots:
            args += ["--plot", str(out / f"{stem}.svg")]
        surfaces.append((f"smoke {script}", "script",
                         str(ROOT / "benchmarks" / script), args))
    surfaces.append(("baseline.MEASUREMENTS", "exec", _BASELINE, []))
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import WORKLOADS

    for name in WORKLOADS:
        surfaces.append(
            (f"e2e {name} quick", "exec", _E2E.format(name=name), [])
        )
    surfaces.append((
        "pytest benchmarks", "module", "pytest",
        [str(ROOT / "benchmarks"),
         f"--ignore={ROOT / 'benchmarks' / 'e2e'}",
         "-q", "-p", "no:cacheprovider"],
    ))
    return surfaces


def functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """Every ``def`` under ``src/repro``, keyed by (file, first line).

    A decorated function is keyed by both its ``def`` line and its
    first decorator's line (what ``co_firstlineno`` reports). Values are
    ``(module, qualified name, def line)``, unique per ``def``.
    """
    found: dict[tuple[str, int], tuple[str, str, int]] = {}

    def visit(node, prefix: str, path: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = {child.lineno}
                lines.update(d.lineno for d in child.decorator_list)
                for line in lines:
                    found[(path, line)] = (module, name, child.lineno)
                visit(child, name + ".", path, module)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path, module)
            else:
                visit(child, prefix, path, module)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")
        visit(ast.parse(path.read_text(encoding="utf-8")), "",
              os.path.realpath(path), module)
    return found


def run_surface(kind: str, target: str, args: list[str], out: Path):
    """Run one surface under the hook; return (exit code, reached keys)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", _CHILD, str(out), str(SRC), kind, target,
           *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    reached = set()
    if out.exists():
        for line in out.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            reached.add((os.path.realpath(filename), int(lineno)))
        out.unlink()
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, reached


def reach(surfaces, table, tmp: Path, failed: list[str]) -> set:
    """The functions any of ``surfaces`` reaches; labels that exit
    non-zero are appended to ``failed``."""
    hits: set = set()
    for label, kind, target, args in surfaces:
        start = time.perf_counter()
        code, reached = run_surface(kind, target, args, tmp / "reach.txt")
        found = {table[k] for k in reached if k in table}
        hits |= found
        if code:
            failed.append(label)
        print(f"{label:40s} {len(found):4d} functions "
              f"{time.perf_counter() - start:6.1f} s"
              + (f"  EXIT {code}" if code else ""), flush=True)
    return hits


def main() -> int:
    table = functions()
    names = set(table.values())
    failed: list[str] = []
    tier1 = ("tier-1 (pytest tests)", "module", "pytest",
             [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        kept = reach(kept_surfaces(tmp), table, tmp, failed)
        tested = reach([tier1], table, tmp, failed)

    test_only = tested - kept
    nothing = names - kept - tested
    print()
    for module in sorted({m for m, _, _ in names}):
        only = sorted(n for m, n, _ in test_only if m == module)
        none = sorted(n for m, n, _ in nothing if m == module)
        if only or none:
            print(f"{module}: {len(only)} tests only, {len(none)} nothing")
            if only:
                print("  tests only: " + ", ".join(only))
            if none:
                print("  nothing:    " + ", ".join(none))
    print()
    print(f"functions:                    {len(names)}")
    print(f"reached by kept surfaces:     {len(kept)}")
    print(f"reached once tier-1 is added: {len(kept | tested)}")
    print(f"reached only by tests:        {len(test_only)}")
    print(f"reached by nothing:           {len(nothing)}")
    if failed:
        print("surfaces that exited non-zero: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
