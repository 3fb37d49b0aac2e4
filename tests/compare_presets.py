"""Check that two checkouts of decaylab give the same preset outputs.

    python tests/compare_presets.py <checkout-a> <checkout-b>

Runs every shipped preset at full horizon with each checkout's own `src` on
PYTHONPATH: one at a time through `decaylab run`, then all together through
`decaylab suite --parallel 2`, which sends the grids of at least
`_POOL_MIN_NODES` nodes (`t3-compact-2d`) to its thread pool.  Compares the
files the runs write (`<name>.series.csv`, `<name>.fit-*.dat`,
`<name>.report.json`, under `run/` and `suite/`) byte for byte, with the
`wall_clock_s` line of each report left out.  Exits 0 when every file is
identical, else 1, naming each file that differs or that only one checkout
wrote.  Not a test module: pytest does not collect it.

Under each differing series it names what moved, one line per column:
`<column>: <n> of <rows> rows moved, largest change <x> of max |value|`
(the change over the column's largest |value| in either checkout); under
each differing report, the dotted keys whose values differ.

Each `decaylab run` also prints its cost, read from `os.wait4` on its own
process: wall time, minor page faults and peak RSS, as
`cost <a|b> <preset>: <s> s, <n> minor faults, <MB> MB peak RSS`.  After
the cost lines, each preset whose peak RSS under b is more than 5% above
a's is named, as `rss up <preset>: <MB> -> <MB> MB (+<p>%)`; the same code's
peak RSS moves by under 2% from run to run, so such a rise is the code's.
It does not change the exit code.  Each checkout's size comes first: the
lines of its `src/decaylab` and the names its modules' `__all__` export,
summed, as `size <a|b>: <lines> lines, <names> exported names`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN = "import sys; from decaylab.cli import main; sys.exit(main(sys.argv[1:]))"
NAMES = "from decaylab import presets; print(*presets.names())"
SIZE = ("import importlib, pathlib, pkgutil, decaylab; "
        "lines = sum(p.read_bytes().count(b'\\n') for p in pathlib.Path(decaylab.__file__)"
        ".parent.rglob('*.py')); names = len(decaylab.__all__) + sum(len(importlib."
        "import_module(f'decaylab.{m.name}').__all__) for m in pkgutil.iter_modules("
        "decaylab.__path__)); print(f'{lines} lines, {names} exported names')")


def _python(checkout: Path, *args: str):
    """`python -c args` with the checkout's `src` on PYTHONPATH: the completed
    process, its wall seconds and its resource usage."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", *args], env=env,
                                stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0), err.seek(0)
        done = subprocess.CompletedProcess(proc.args, proc.returncode,
                                           out.read(), err.read())
    return done, wall, usage


def _decaylab(checkout: Path, *args: str):
    proc, wall, usage = _python(checkout, RUN, *args)
    if proc.returncode not in (0, 1):       # 1: a verdict failed, still written
        sys.exit(f"{checkout}: decaylab {' '.join(args)} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    return wall, usage


# a preset's peak RSS under b above this multiple of a's is named
RSS_RISE = 1.05


def _outputs(checkout: Path, label: str, names: list[str],
             out: Path) -> tuple[dict[str, bytes], dict[str, float]]:
    """Run each preset serially into `out/run`, printing its cost, then the
    presets as one suite on two threads into `out/suite`: the files written,
    by path under `out`, and each preset's peak RSS in MB."""
    rss = {}
    for name in names:
        wall, usage = _decaylab(checkout, "run", name, "--out", str(out / "run"))
        rss[name] = usage.ru_maxrss / 1024
        print(f"cost {label} {name}: {wall:.3f} s, {usage.ru_minflt} minor faults, "
              f"{rss[name]:.1f} MB peak RSS", flush=True)
    _decaylab(checkout, "presets", "--write", str(out / "ini"))
    _decaylab(checkout, "suite", str(out / "ini"), "--parallel", "2",
              "--out", str(out / "suite"))
    paths = sorted((out / "run").iterdir()) + sorted((out / "suite").iterdir())
    return {f"{path.parent.name}/{path.name}": path.read_bytes() for path in paths}, rss


def _compared(name: str, data: bytes | None) -> bytes | None:
    """The bytes compared: a report without its `wall_clock_s` line."""
    if data is None or not name.endswith(".report.json"):
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if b'"wall_clock_s":' not in line)


def _columns(data: bytes) -> dict[str, list[float]]:
    header, *lines = data.decode().split()
    rows = [[float(x) for x in line.split(",")] for line in lines]
    return {name: [row[k] for row in rows] for k, name in enumerate(header.split(","))}


def _moved_columns(a: bytes, b: bytes) -> list[str]:
    """Per column of two series that differs: its count of moved rows and its
    largest change over its largest |value|."""
    cols_a, cols_b = _columns(a), _columns(b)
    out = [f"  column {name} in one checkout only"
           for name in sorted(cols_a.keys() ^ cols_b.keys())]
    for name in (n for n in cols_a if n in cols_b and cols_a[n] != cols_b[n]):
        xa, xb = cols_a[name], cols_b[name]
        if len(xa) != len(xb):
            out.append(f"  {name}: {len(xa)} rows against {len(xb)}")
            continue
        moved = [abs(x - y) for x, y in zip(xa, xb) if x != y]
        scale = max(abs(x) for x in xa + xb)
        rel = max(moved) / scale if scale else float("inf")
        out.append(f"  {name}: {len(moved)} of {len(xa)} rows moved, "
                   f"largest change {rel:.3g} of max |value|")
    return out


def _flat(value, key: str = "") -> dict:
    """A JSON value as {dotted key: leaf}."""
    if isinstance(value, dict):
        return {k: v for name, item in value.items()
                for k, v in _flat(item, f"{key}.{name}" if key else name).items()}
    return {key: value}


def _moved_keys(a: bytes, b: bytes) -> list[str]:
    """The dotted keys of two reports whose values differ, `wall_clock_s` aside."""
    ka, kb = _flat(json.loads(a)), _flat(json.loads(b))
    keys = sorted(k for k in ka.keys() | kb.keys()
                  if k != "wall_clock_s" and ka.get(k, ...) != kb.get(k, ...))
    return [f"  key {k}" for k in keys]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (Path(p).resolve() for p in argv)
    names = _python(a, NAMES)[0].stdout.split()
    if names != _python(b, NAMES)[0].stdout.split():
        print("the checkouts ship different presets")
        return 1
    print(f"a = {a}\nb = {b}")
    for label, checkout in (("a", a), ("b", b)):
        print(f"size {label}: {_python(checkout, SIZE)[0].stdout.strip()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        files_a, rss_a = _outputs(a, "a", names, Path(tmp, "a"))
        files_b, rss_b = _outputs(b, "b", names, Path(tmp, "b"))
    for name in names:
        if rss_b[name] > RSS_RISE * rss_a[name]:
            print(f"rss up {name}: {rss_a[name]:.1f} -> {rss_b[name]:.1f} MB "
                  f"(+{100 * (rss_b[name] / rss_a[name] - 1):.1f}%)")
    differ = sorted(n for n in files_a.keys() | files_b.keys()
                    if _compared(n, files_a.get(n)) != _compared(n, files_b.get(n)))
    for name in differ:
        print(f"differs: {name}")
        if name in files_a and name in files_b:
            for explain, suffix in ((_moved_columns, ".series.csv"),
                                    (_moved_keys, ".report.json")):
                if name.endswith(suffix):
                    for line in explain(files_a[name], files_b[name]):
                        print(line)
    print(f"{len(names)} presets, {len(files_a.keys() | files_b.keys())} files, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
