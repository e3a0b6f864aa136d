"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py SPEC

SPEC is a JSON object with the preset ``config`` (RunConfig fields), the
output directory ``out``, the ``result`` file to write, ``trace`` (bool) and
``short`` (bool).  ``run.py`` starts this script once per repetition; it is
not meant to be run by hand.

A short repetition ends every transient at its initial trace record, so it
pays import, set-up and the steady phase of a full run and nothing more, and
gives one more ``setup_s`` and ``steady_s`` sample at a fraction of the cost.

Timing hooks replace module attributes in the namespace where the package
looks each function up, so nothing in the package itself changes.  Without
tracing only the four hooks the end-to-end metrics need are installed
(problem set-up, transient entry and trace records); with tracing every layer
boundary listed in ``hooks()`` records a span.  Spans stay in memory and are
reduced to metrics after the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import scipy.sparse.linalg as spla

#: Hooks installed even when tracing is off: they time set-up, the steady
#: solve and each accepted step.
END_TO_END = {"build_problem", "sweep_problem", "run_transient", "append"}

#: Layer groups whose self time is a per-layer metric; every other span
#: (the run itself, problem set-up) counts as unattributed.
ATTRIBUTED = ("mesh.build", "schemes.discretize", "schemes.assemble",
              "linalg.factor", "linalg.trisolve", "linalg.newton",
              "solvers.steady", "solvers.loop", "entropy.diag", "presets.output")


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def timed(self, name: str, fn, note=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, group: str, note=None):
        name = f"{group}:{attr}"
        setattr(owner, attr, self.timed(name, getattr(owner, attr), note))


class TimedLU:
    """SuperLU stand-in whose ``solve`` is timed; SuperLU's own type cannot
    take new attributes."""

    def __init__(self, lu, rec: Recorder):
        self._lu = lu
        self.solve = rec.timed("linalg.trisolve:solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def hooks():
    """(owner, attribute, layer group, note) for every wrapped entry point,
    named in the namespace the caller looks it up in."""
    from entrofv import entropy, linalg, presets, solvers
    from entrofv.linalg import NonConvergence

    def newton_note(result):
        if isinstance(result, NonConvergence):
            return (result.iterations, True)
        return (result[1], False)

    def failed(result):
        return isinstance(result, NonConvergence)

    table = [
        (presets, "build_problem", "presets.setup", None),
        (presets, "sweep_problem", "presets.setup", None),
        (presets, "run_transient", "solvers.loop", None),
        (entropy.EntropyTrace, "append", "entropy.diag", None),
        (presets, "reference_mesh", "mesh.build", lambda mesh: mesh.n_cells),
        (presets, "discretize_coefficients", "schemes.discretize", None),
        (presets, "advection_from_potential", "schemes.discretize", None),
        (solvers, "transport_data", "schemes.discretize", None),
        (solvers, "newton_solve", "linalg.newton", newton_note),
        (solvers, "solve_linear", "linalg.newton", None),
        (linalg, "solve_linear", "linalg.newton", None),
        (solvers, "step_pme", "solvers.loop", failed),
        (solvers, "step_dd", "solvers.loop", failed),
        (presets, "fit_decay_rate", "entropy.diag", None),
        (entropy.EntropyTrace, "to_csv", "presets.output", None),
        (presets, "_write_steady", "presets.output", None),
        (Path, "write_text", "presets.output", None),
    ]
    table += [(solvers, name, "schemes.assemble", None)
              for name in ("assemble_fp_operator", "assemble_pme_residual",
                           "assemble_dd_residual", "assemble_poisson")]
    table += [(solvers, name, "solvers.steady", None)
              for name in ("solve_fp_steady", "solve_pme_steady",
                           "solve_dd_steady", "solve_dd_thermal")]
    table += [(entropy, name, "entropy.diag", None)
              for name in ("relative_phi_entropy", "phi_dissipation", "lp_distance",
                           "entrophy", "entrophy_dissipation", "dd_entropy")]
    return table


def install(rec: Recorder, traced: bool) -> None:
    for owner, attr, group, note in hooks():
        if traced or attr in END_TO_END:
            rec.patch(owner, attr, group, note)
    if traced:
        # linalg and solvers both call spla.splu, so the module attribute is
        # the one lookup; the factor size (L + U) is read from SuperLU itself
        factor = rec.timed("linalg.factor:splu", spla.splu, lambda lu: lu.nnz)
        spla.splu = lambda *args, **kwargs: TimedLU(factor(*args, **kwargs), rec)


def cut_transients() -> None:
    """Make every transient return right after its initial record, as a run
    whose time loop stops at once: ``_run_generic`` looks the loop up in
    ``entrofv.solvers``."""
    from entrofv import solvers

    solvers.adaptive_time_loop = lambda state, *args, **kwargs: (state, 0.0, None)


def end_to_end(spans: list[list]) -> dict:
    """Set-up, steady and per-step timings from the always-on hooks."""
    setup = sum(s[2] - s[1] for s in spans if s[0].endswith(("build_problem",
                                                            "sweep_problem")))
    records: dict[int, list[float]] = defaultdict(list)
    for name, start, _, parent, _ in spans:
        if name.endswith(":append"):
            while not spans[parent][0].endswith(":run_transient"):
                parent = spans[parent][3]
            records[parent].append(start)
    steady = 0.0
    steps: list[float] = []
    for transient, starts in records.items():
        steady += starts[0] - spans[transient][1]
        steps += [b - a for a, b in zip(starts, starts[1:])]
    return {"setup_s": setup, "steady_s": steady, "step_s": steps,
            "transients": len(records)}


def layers(spans: list[list], run_s: float, transients: int,
           output_bytes: int) -> dict:
    """Per-layer metrics; self time is a span minus its direct children."""
    inner = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    group_calls: Counter = Counter()
    calls: Counter = Counter()
    notes: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, note) in enumerate(spans):
        group, func = name.split(":")
        self_s[group] += end - start - inner[i]
        group_calls[group] += 1
        calls[func] += 1
        if note is not None:
            notes[func].append(note)

    newton = notes["newton_solve"]
    accepted = calls["append"] - transients
    rejected = sum(notes["step_pme"]) + sum(notes["step_dd"])
    factorizations = calls["splu"]
    assemblies = group_calls["schemes.assemble"]
    return {
        "mesh.build_s": self_s["mesh.build"],
        "mesh.builds": calls["reference_mesh"],
        "mesh.cells": max(notes["reference_mesh"], default=0),
        "schemes.discretize_s": self_s["schemes.discretize"],
        "schemes.assemble_s": self_s["schemes.assemble"],
        "schemes.assemblies": assemblies,
        "schemes.assemblies_per_factorization": assemblies / max(factorizations, 1),
        "linalg.factor_s": self_s["linalg.factor"],
        "linalg.factorizations": factorizations,
        "linalg.factor_nnz_max": max(notes["splu"], default=0),
        "linalg.trisolve_s": self_s["linalg.trisolve"],
        "linalg.trisolves": calls["solve"],
        "linalg.newton_self_s": self_s["linalg.newton"],
        "linalg.newton_calls": len(newton),
        "linalg.newton_iters": sum(it for it, _ in newton),
        "linalg.newton_failures": sum(1 for _, bad in newton if bad),
        "solvers.steady_s": self_s["solvers.steady"],
        "solvers.loop_self_s": self_s["solvers.loop"],
        "solvers.accepted_steps": accepted,
        "solvers.rejected_steps": rejected,
        "solvers.accept_ratio": accepted / max(accepted + rejected, 1),
        "entropy.diag_s": self_s["entropy.diag"],
        "entropy.diag_calls": group_calls["entropy.diag"],
        "presets.output_s": self_s["presets.output"],
        "presets.output_bytes": output_bytes,
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(self_s[g] for g in ATTRIBUTED),
    }


def outputs(out: Path) -> tuple[str, int]:
    """Digest over every output file (path and bytes) and their total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset")}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import entrofv
    from entrofv import presets

    src = Path(spec["src"]).resolve()
    if src not in Path(entrofv.__file__).resolve().parents:
        raise SystemExit(f"entrofv imported from {entrofv.__file__}, not {src}")
    rec = Recorder()
    install(rec, spec["trace"])
    if spec["short"]:
        cut_transients()
    out = Path(spec["out"])
    cfg = presets.RunConfig(out=str(out), **spec["config"])
    run = rec.timed("presets.run:run", presets.run)
    status = run(cfg)
    root = rec.spans[0]
    run_s = root[2] - root[1]
    digest, size = outputs(out)
    result = {"status": status, "run_s": run_s, "digest": digest,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": versions()}
    result.update(end_to_end(rec.spans))
    if spec["trace"]:
        result["layers"] = layers(rec.spans, run_s, result["transients"], size)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
