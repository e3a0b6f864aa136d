"""Benchmark of whole entrofv preset runs: end-to-end metrics, a traced
per-layer run and a correctness gate against committed reference outputs.

    python3 bench/run.py --workload dd-bias --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --write-reference

Each repetition is one ``presets.run`` call in a fresh interpreter
(``child.py``), one at a time, so every repetition pays mesh build and
package import as a command-line user does.  Without tracing, short
repetitions that stop each transient at its initial record fill the time
full ones leave, for more set-up and steady-phase samples.  The seed fixes
the interleaved order of repetitions across workloads and, with
``--trace 1``, between traced and untraced repetitions; the presets
themselves never change.  The last line of standard output is one JSON
object; the exit status is non-zero when any repetition fails the gate.  See
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
WORK = HERE / ".work"

#: Preset configurations handed to ``presets.run``; nothing else varies.
WORKLOADS = {
    "dd-bias": {"preset": "dd-bias", "scheme": "sg"},
    "fp-hetero-l5": {"preset": "fp-hetero", "level": 5, "scheme": "upwind"},
    "pme-sweep": {"preset": "pme-sweep"},
}

#: Relative tolerance of every output column, scaled by the column's
#: largest absolute reference value.
TOLERANCE = 1e-9

#: Share of an untraced invocation's budget kept for short repetitions.
SHORT_SHARE = 0.15

#: Seconds per workload after which no repetition starts or keeps running;
#: a killed repetition counts as failed.  Keeps one invocation within 180 s.
CAP_S = 150.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "steady_s": "s",
                    "step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.builds": "count", "mesh.cells": "count",
    "schemes.discretize_s": "s", "schemes.assemble_s": "s",
    "schemes.assemblies": "count", "schemes.assemblies_per_factorization": "ratio",
    "linalg.factor_s": "s", "linalg.factorizations": "count",
    "linalg.factor_nnz_max": "count", "linalg.trisolve_s": "s",
    "linalg.trisolves": "count", "linalg.newton_self_s": "s",
    "linalg.newton_calls": "count", "linalg.newton_iters": "count",
    "linalg.newton_failures": "count", "solvers.steady_s": "s",
    "solvers.loop_self_s": "s", "solvers.accepted_steps": "count",
    "solvers.rejected_steps": "count", "solvers.accept_ratio": "ratio",
    "entropy.diag_s": "s", "entropy.diag_calls": "count",
    "presets.output_s": "s", "presets.output_bytes": "bytes",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

#: Per-layer counts that must repeat exactly between repetitions.
COUNTS = ("mesh.builds", "schemes.assemblies", "linalg.factorizations",
          "linalg.newton_iters", "solvers.accepted_steps")


# ---------------------------------------------------------------------------
# correctness gate


def _rows(text: str) -> list[list]:
    rows = []
    for line in text.splitlines():
        fields = line.split(",") if "," in line else line.split()
        row = []
        for field in fields:
            try:
                row.append(float(field))
            except ValueError:
                row.append(field)  # header names and empty rate cells
        rows.append(row)
    return rows


def compare(got: str, want: str) -> str | None:
    """None when ``got`` has the reference's rows and every numeric column
    matches within TOLERANCE of the column's max-abs value, else the reason."""
    g_rows, w_rows = _rows(got), _rows(want)
    if len(g_rows) != len(w_rows):
        return f"{len(g_rows)} rows, reference has {len(w_rows)}"
    if any(len(g) != len(w) for g, w in zip(g_rows, w_rows)):
        return "column count differs from the reference"
    for j in range(len(w_rows[0]) if w_rows else 0):
        column = [row[j] for row in w_rows]
        scale = max((abs(v) for v in column
                     if isinstance(v, float) and math.isfinite(v)), default=0.0)
        for i, (g, w) in enumerate(zip((row[j] for row in g_rows), column)):
            if isinstance(w, str) or isinstance(g, str):
                same = g == w
            elif math.isnan(w):
                same = math.isnan(g)
            else:
                same = abs(g - w) <= TOLERANCE * scale
            if not same:
                return f"row {i + 1} column {j + 1}: {g!r} vs reference {w!r}"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json.gz"


def read_outputs(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): p.read_text()
            for p in sorted(out.rglob("*")) if p.is_file()}


def short_reference(reference: dict[str, str]) -> dict[str, str]:
    """What a short repetition must reproduce of a full run's outputs: every
    steady state, and every trace up to its initial record."""
    cut = {}
    for name, text in reference.items():
        if name.endswith("trace.csv"):
            cut[name] = "".join(text.splitlines(keepends=True)[:2])
        elif name.endswith("steady.txt"):
            cut[name] = text
    return cut


def gate(out: Path, reference: dict[str, str], short: bool) -> str | None:
    got = read_outputs(out)
    if short:
        reference = short_reference(reference)
    missing = set(reference) - set(got)
    if missing or (not short and set(got) != set(reference)):
        return f"output files {sorted(got)} differ from {sorted(reference)}"
    for name, text in reference.items():
        reason = compare(got[name], text)
        if reason is not None:
            return f"{name}: {reason}"
    return None


# ---------------------------------------------------------------------------
# repetitions


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ENTROFV_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def repetition(workload: str, kind: str, reference: dict[str, str] | None,
               timeout: float) -> dict:
    """Run one repetition of ``kind`` (full, traced or short) in a fresh
    interpreter; the output directory is removed once the gate has read it."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        spec = {"config": WORKLOADS[workload], "out": str(tmp / "out"),
                "result": str(tmp / "result.json"), "trace": kind == "traced",
                "short": kind == "short", "src": str(SRC)}
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                                  cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"killed after {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
        result = json.loads((tmp / "result.json").read_text())
        if result["status"] != 0:
            result["error"] = f"presets.run returned {result['status']}"
        elif reference is not None:
            reason = gate(tmp / "out", reference, kind == "short")
            if reason is not None:
                result["error"] = reason
        else:
            result["outputs"] = read_outputs(tmp / "out")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def schedule(workloads: list[str], traced: bool, seconds: float, seed: int,
             references: dict) -> dict:
    """Repetitions of every workload, keyed by (workload, kind).

    Each workload gets ``seconds``; with ``traced`` they are split evenly
    between untraced and traced full repetitions.  Rounds visit the kinds
    in a seeded order, and a kind starts a repetition only while its mean
    repetition time still fits its budget.  Without ``traced``, full
    repetitions get all but SHORT_SHARE of the budget and short ones fill
    the rest: one runs first, and after each full repetition as many as take
    an even share of the spare time over this gap and the gaps still to
    come, so their samples spread over the whole run.  No repetition runs
    past CAP_S per workload.
    """
    kinds = ("full", "traced") if traced else ("full",)
    budget = seconds / len(kinds)
    kind_budget = budget if traced else budget * (1 - SHORT_SHARE)
    times: dict = {(w, k): [] for w in workloads for k in ("full", "traced", "short")}
    reps: dict = {key: [] for key in times}
    rng = random.Random(seed)
    deadline = time.perf_counter() + CAP_S * len(workloads)

    def mean(key) -> float:
        return statistics.mean(times[key])

    def run(key) -> bool:
        """Run one repetition unless the deadline is too close."""
        left = deadline - time.perf_counter()
        if times[key] and left < mean(key):
            return False
        t0 = time.perf_counter()
        rep = repetition(key[0], key[1], references[key[0]], max(left, 10.0))
        times[key].append(time.perf_counter() - t0)
        rep["kind"] = key[1]
        reps[key].append(rep)
        print(f"rep: {key[0]} {key[1]} run_s {rep.get('run_s', math.nan):.3f}"
              f"{'  FAILED: ' + rep['error'] if 'error' in rep else ''}", flush=True)
        return True

    def fill(workload: str) -> None:
        full, short = (workload, "full"), (workload, "short")
        to_come = max(int((kind_budget - sum(times[full])) // mean(full)), 0)
        spare = budget - sum(times[full]) - sum(times[short]) - to_come * mean(full)
        for _ in range(int(spare / (to_come + 1) // mean(short))):
            if not run(short):
                return

    if not traced:
        for w in rng.sample(workloads, len(workloads)):
            run((w, "short"))
    while True:
        live = [(w, k) for w in workloads for k in kinds
                if not times[(w, k)] or sum(times[(w, k)]) + mean((w, k)) <= kind_budget]
        if not live:
            return reps
        rng.shuffle(live)
        for key in live:
            if not run(key):
                return reps
            if key[1] == "full" and not traced:
                fill(key[0])


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(full: list[dict], short: list[dict]) -> dict[str, float]:
    """Set-up and steady phase from full and short repetitions, the rest
    from full ones."""
    done = [r for r in full if "run_s" in r]
    both = done + [r for r in short if "run_s" in r]
    if not done:
        return {}
    steps_ms = [1000.0 * s for r in done for s in r["step_s"]]
    return {
        "run_s": statistics.median(r["run_s"] for r in done),
        "setup_s": statistics.median(r["setup_s"] for r in both),
        "steady_s": statistics.median(r["steady_s"] for r in both),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p90": statistics.quantiles(steps_ms, n=10)[8],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in done),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layers of the traced repetition with the median run time, so that its
    self times and the unattributed rest add up to its ``trace.run_s``."""
    done = sorted((r for r in traced if "layers" in r), key=lambda r: r["run_s"])
    if not done:
        return {}
    for name in COUNTS:
        if len({r["layers"][name] for r in done}) > 1:
            print(f"warning: {name} differs between repetitions: "
                  f"{[r['layers'][name] for r in done]}", file=sys.stderr)
    metrics = dict(done[(len(done) - 1) // 2]["layers"])
    untraced = [r["run_s"] for r in plain if "run_s" in r]
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in done)
                                   - statistics.median(untraced)) if untraced else None
    return metrics


def digests_agree(plain: list[dict], traced: list[dict]) -> None:
    """A traced repetition whose outputs are not byte-identical to an
    untraced one fails."""
    expected = {r["digest"] for r in plain if "digest" in r}
    for r in traced:
        if "error" not in r and expected and r["digest"] not in expected:
            r["error"] = "traced outputs differ from untraced outputs"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def report(workload: str, metrics: dict[str, float], units: dict[str, str],
           reps: list[dict]) -> None:
    failed = sum(1 for r in reps if "error" in r)
    kinds = ", ".join(f"{n} {kind}" for kind, n in Counter(r["kind"] for r in reps).items())
    print(f"\n{workload}: {len(reps)} repetitions ({kinds}), {failed} failed "
          f"(fail_frac {failed / len(reps):.3f})")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"  {name:40s} {'-' if value is None else format(value, '.6f'):>16} {unit}")


# ---------------------------------------------------------------------------
# entry points


def write_reference() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        result = repetition(workload, "full", None, CAP_S)
        if "error" in result:
            print(f"{workload}: {result['error']}", file=sys.stderr)
            return 1
        with gzip.open(reference_path(workload), "wt") as f:
            json.dump(result["outputs"], f, sort_keys=True)
        print(f"wrote {reference_path(workload)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="capture the reference outputs of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "entrofv" / "__init__.py").is_file():
        print(f"no entrofv package under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    references = {}
    for w in workloads:
        if not reference_path(w).is_file():
            print(f"missing reference {reference_path(w)}", file=sys.stderr)
            return 2
        with gzip.open(reference_path(w), "rt") as f:
            references[w] = json.load(f)

    # compile bytecode and load shared libraries before anything is timed
    subprocess.run([sys.executable, "-c", "import entrofv.presets"], cwd=ROOT,
                   env=child_env(), check=True, timeout=60)
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    print(json.dumps(machine()))
    reps = schedule(workloads, bool(args.trace), args.seconds, args.seed, references)

    results, attempted, failed = {}, 0, 0
    for w in workloads:
        plain, traced, short = reps[(w, "full")], reps[(w, "traced")], reps[(w, "short")]
        digests_agree(plain, traced)
        every = plain + traced + short
        attempted += len(every)
        failed += sum(1 for r in every if "error" in r)
        if args.trace:
            metrics, units = layer_metrics(plain, traced), LAYER_UNITS
        else:
            metrics, units = end_to_end_metrics(plain, short), END_TO_END_UNITS
        report(w, metrics, units, every)
        for name, unit in units.items():
            key = name if len(workloads) == 1 else f"{w}/{name}"
            results[key] = {"value": metrics.get(name), "unit": unit}
    versions = next((r["versions"] for rs in reps.values() for r in rs
                     if "versions" in r), {})
    print(json.dumps(versions))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
