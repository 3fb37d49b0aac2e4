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
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = "import sys; from decaylab.cli import main; sys.exit(main(sys.argv[1:]))"
NAMES = "from decaylab import presets; print(*presets.names())"


def _python(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, "-c", *args], env=env, text=True,
                          capture_output=True)


def _decaylab(checkout: Path, *args: str):
    proc = _python(checkout, RUN, *args)
    if proc.returncode not in (0, 1):       # 1: a verdict failed, still written
        sys.exit(f"{checkout}: decaylab {' '.join(args)} exited {proc.returncode}\n"
                 f"{proc.stderr}")


def _outputs(checkout: Path, names: list[str], out: Path) -> dict[str, bytes]:
    """Run each preset serially into `out/run`, then the presets as one suite
    on two threads into `out/suite`; the files written, by path under `out`."""
    for name in names:
        _decaylab(checkout, "run", name, "--out", str(out / "run"))
    _decaylab(checkout, "presets", "--write", str(out / "ini"))
    _decaylab(checkout, "suite", str(out / "ini"), "--parallel", "2",
              "--out", str(out / "suite"))
    files = {}
    for path in sorted((out / "run").iterdir()) + sorted((out / "suite").iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".report.json"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b'"wall_clock_s":' not in line)
        files[f"{path.parent.name}/{path.name}"] = data
    return files


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (Path(p).resolve() for p in argv)
    names = _python(a, NAMES).stdout.split()
    if names != _python(b, NAMES).stdout.split():
        print("the checkouts ship different presets")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        files_a = _outputs(a, names, Path(tmp, "a"))
        files_b = _outputs(b, names, Path(tmp, "b"))
    differ = sorted(n for n in files_a.keys() | files_b.keys()
                    if files_a.get(n) != files_b.get(n))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names)} presets, {len(files_a.keys() | files_b.keys())} files, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
