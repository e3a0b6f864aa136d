"""Robustness ledger: the fixed stress rows of the ROADMAP, each run through
the command line in a fresh process.

    python3 tools/stress.py                       # every row; writes tools/stress_ledger.md
    python3 tools/stress.py --ledger PATH         # write the ledger elsewhere

Every row runs ``python -m entrofv.cli run ...`` with ``PYTHONPATH`` set to
this checkout's ``src/``, under a 300 s limit and with its outputs in a
temporary directory that is removed afterwards.  The ledger records each
row's command, expected and actual exit code, wall time, and the reason a
failing run gives: the first line of its first ``error.txt``, else its abort
line, else the last line it wrote to standard error.  Wall times are
single runs and not deterministic.  The exit status is 1 when any row's exit
code differs from the expected one.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LEDGER = HERE / "stress_ledger.md"
LIMIT_S = 300

#: (``run`` arguments, expected exit code): the ROADMAP stress table's command
#: line rows, then the fixed rows of its robustness-ledger item.  The table's
#: factor-only and first-step rows of ``fp-hetero`` levels 6 and 7 are
#: in-process measurements, not runs, and are left out.
ROWS = (
    ("dd-pn --lambda 0.1", 0),
    ("dd-bias --lambda 0.1", 1),
    ("dd-bias --lambda 0.05", 1),
    ("dd-bias --lambda 0.02", 1),
    ("dd-bias --lambda 0.05 --bias 10 --level 3", 1),
    ("dd-pn --lambda 1e-3 --level 1", 1),
    ("pme-sweep --m-dirichlet 1e6 --level 0", 1),
    ("pme-fill --m 50 --level 1", 1),
    ("dd-pn --level 4", 0),
    ("pme-fill --level 4", 0),
    ("pme-fill --level 5", 0),
    ("dd-bias --bias 10", 0),
    ("dd-bias --bias 40 --level 1", 0),
    ("dd-pn --level 2 --lambda 0.3", 0),
    ("pme-fill --m 6", 0),
    ("pme-fill --m 1.001 --level 1", 0),
    ("fp-hetero --scheme centered --level 0", 1),
    ("fp-hetero --scheme centered --level 1", 1),
    ("fp-hetero --scheme centered --level 2", 0),
)


def _reason(out: Path, stdout: str, stderr: str) -> str:
    """What a failing run says about its failure, on one line."""
    errors = sorted(out.rglob("error.txt"))
    if errors:
        return (errors[0].read_text().splitlines() or [""])[0]
    aborts = [line for line in stdout.splitlines() if "run aborted:" in line]
    if aborts:
        return aborts[0].split("run aborted: ", 1)[1].removesuffix(" (partial trace flushed)")
    lines = stderr.strip().splitlines()
    return lines[-1] if lines else ""


def run_row(args: str, work: Path) -> tuple[str, float, str]:
    """(exit code or "timeout", wall seconds, reason) of one row."""
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "entrofv.cli", "run", *args.split(),
                               "--out", str(out)], capture_output=True, text=True, env=env,
                              timeout=LIMIT_S, cwd=work)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, f"no exit within {LIMIT_S} s"
    wall = time.perf_counter() - start
    reason = _reason(out, proc.stdout, proc.stderr) if proc.returncode else ""
    return str(proc.returncode), wall, reason


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ledger", type=Path, default=LEDGER)
    ledger = parser.parse_args(argv).ledger
    lines = ["# Robustness ledger", "",
             f"Written by `tools/stress.py`: one fresh process per row, {LIMIT_S} s limit.",
             "Wall times are single runs.", "",
             "| command | expected | exit | wall (s) | reason |", "|---|---|---|---|---|"]
    mismatches = 0
    for args, expected in ROWS:
        with tempfile.TemporaryDirectory(prefix="entrofv-stress-") as tmp:
            code, wall, reason = run_row(args, Path(tmp))
        mismatches += code != str(expected)
        reason = reason.replace("|", "\\|")
        lines.append(f"| `entrofv run {args}` | {expected} | {code} | {wall:.1f} | {reason} |")
        print(lines[-1], flush=True)
    ledger.write_text("\n".join(lines) + "\n")
    print(f"wrote {ledger}; {mismatches} of {len(ROWS)} rows off their expected exit code")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
