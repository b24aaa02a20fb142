"""Reference figures: import time and the cold wall time of each CLI subcommand.

    python3 perfbench/reference.py

Run from the repository root.  Each figure is the median of REPEATS
fresh interpreters with ``src`` on PYTHONPATH and one BLAS thread; a CLI time
covers interpreter start, import and the command.  These are not gated;
they are recorded once in perfbench/README.md.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

COMMANDS = {
    "table1": ["table1"],
    "table2": ["table2"],
    "scan": ["scan", "--r", "0.5", "--alpha", "1e2,1e4,1e5", "--phi", "pow:0.3"],
    "classify": ["classify", "--chart", "sphere3", "--r", "0.4"],
    "hessdet": ["hessdet", "--d", "3", "--m", "5", "--seed", "11"],
    "qcheck": ["qcheck"],
    "trace-compare": ["trace-compare", "--m", "3", "--alpha", "30", "--r", "0.5"],
}
REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import szegolab; print(time.perf_counter() - t)"


def env() -> dict:
    out = dict(os.environ)
    out.pop("SZEGOLAB_THREADS", None)
    out["PYTHONPATH"] = os.path.abspath("src")
    out["OPENBLAS_NUM_THREADS"] = "1"
    return out


def main() -> int:
    imports = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env(), check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(REPEATS)]
    print("| figure | median of {} | unit |".format(REPEATS))
    print("|---|---|---|")
    print(f"| `import szegolab` (in-process) | {statistics.median(imports):.3f} | s |")
    for name, cli_args in COMMANDS.items():
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "szegolab.cli", *cli_args], env=env(), check=True,
                           capture_output=True)
            times.append(time.perf_counter() - start)
        print(f"| `szegolab {' '.join(cli_args)}`, cold | {statistics.median(times):.3f} | s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
