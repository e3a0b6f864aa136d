import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import entrofv
from entrofv import cli
from entrofv.cli import main, parse_config_text
from entrofv import mesh as mesh_module
from entrofv import presets as presets_module
from entrofv.mesh import reference_mesh, save_mesh, validate
from entrofv.presets import (BOUNDARY_NAMES, COMMON_OPTIONS, RunConfig, UsageError,
                             _write_steady, build_problem, convergence_study, fill_problem,
                             hetero_problem, pn_problem, presets, run, toy_problem)
from entrofv.solvers import DdState, SolverError
from entrofv.schemes import peclet_guard


def test_catalog_names():
    names = set(presets())
    assert names == {"fp-toy", "fp-hetero", "pme-fill", "pme-sweep",
                     "dd-pn", "dd-bias"}


def test_toy_boundary_values():
    prob = toy_problem(0)
    vals = prob.data.f_dirichlet[prob.mesh.dirichlet]
    assert set(np.round(vals, 12)) == {1.0, round(math.e, 12)}


def test_hetero_data_values():
    prob = hetero_problem(2)
    vals = prob.data.a_edge
    assert vals.min() == pytest.approx(0.01)
    assert vals.max() == pytest.approx(3.0)
    dvals = prob.data.f_dirichlet[prob.mesh.dirichlet]
    assert set(np.round(dvals, 12)) == {0.018, 1.0}
    assert np.max(np.abs(prob.data.u)) <= 0.5 + 1e-12
    np.testing.assert_allclose(prob.f0, 0.018)


def test_fill_boundary_means():
    prob = fill_problem(1)
    vals = prob.f_dirichlet[prob.mesh.dirichlet]
    assert vals.min() >= 1.0
    assert vals.max() <= 2.5
    # edge means reproduce the measure of the high strip exactly
    mids = prob.mesh.geometry.edge_midpoint[prob.mesh.dirichlet]
    lengths = prob.mesh.edge_length[prob.mesh.dirichlet]
    assert np.sum(vals * lengths) == pytest.approx(2.5 * 0.4 + 1.0 * 0.6, rel=1e-12)


def test_pn_bias_magnitude():
    prob = pn_problem(0, bias=2.5)
    mesh = prob.mesh
    vd = prob.dd.v_dirichlet[mesh.dirichlet]
    nd = prob.dd.n_dirichlet[mesh.dirichlet]
    pd = prob.dd.p_dirichlet[mesh.dirichlet]
    bias = vd - 0.5 * (np.log(nd) - np.log(pd))
    assert set(np.round(bias, 12)) == {-2.5, 2.5}


def test_doping_split():
    prob = pn_problem(0)
    cen = prob.mesh.geometry.cell_centroid
    in_p = (cen[:, 0] < 0.5) & (cen[:, 1] > 0.5)
    assert np.all(prob.dd.doping[in_p] == -1.0)
    assert np.all(prob.dd.doping[~in_p] == 1.0)


@pytest.mark.parametrize("level", range(5))
def test_presets_satisfy_preconditions_on_all_levels(level):
    # every preset's data passes its scheme's guard on levels 0..4
    catalog = presets()
    for name, preset in catalog.items():
        cfg = RunConfig(preset=name, level=level)
        problem, scheme, stepper = build_problem(cfg)
        assert validate(problem.mesh).ok
        if hasattr(problem, "data"):
            guard = peclet_guard(problem.mesh, problem.data, scheme)
            if name == "fp-hetero" and level < 4 and scheme.name == "centered":
                continue  # centered needs the fine mesh; preset default avoids it
            assert guard.ok, f"{name} level {level}: {guard}"


def test_build_problem_rejects_unknown():
    with pytest.raises(UsageError):
        build_problem(RunConfig(preset="nope"))
    with pytest.raises(UsageError):
        build_problem(RunConfig(preset="fp-toy", scheme="weird"))


def test_run_writes_deterministic_outputs(tmp_path):
    cfg = RunConfig(preset="fp-toy", scheme="upwind", level=0, t_final=0.05,
                    out=str(tmp_path / "a"))
    assert run(cfg) == 0
    cfg2 = RunConfig(preset="fp-toy", scheme="upwind", level=0, t_final=0.05,
                     out=str(tmp_path / "b"))
    assert run(cfg2) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    steady_lines = (tmp_path / "a" / "steady.txt").read_text().splitlines()
    assert len(steady_lines) == 56
    assert steady_lines[0].split()[0] == "0"


def test_run_force_peclet_path(tmp_path):
    # the centered scheme on a coarse barrier mesh trips the guard
    refuse = RunConfig(preset="fp-hetero", scheme="centered", level=1,
                       t_final=0.05, out=str(tmp_path / "refused"))
    assert run(refuse) == 1
    assert "B <" in (tmp_path / "refused" / "error.txt").read_text()
    # forcing skips the guard; this violation is strong enough that the
    # steady solve then genuinely loses positivity and reports that instead
    forced = RunConfig(preset="fp-hetero", scheme="centered", level=1,
                       t_final=0.05, out=str(tmp_path / "forced"),
                       force_peclet=True)
    assert run(forced) == 1
    assert "positive" in (tmp_path / "forced" / "error.txt").read_text()


def test_force_peclet_mild_violation_succeeds(two_cell_mesh):
    # B(1.95) = 0.025 sits below the default guard but stays positive, so the
    # forced solve still produces a valid steady state
    from entrofv.schemes import CENTERED, PecletError, assemble_fp_operator, transport_data
    from entrofv.solvers import solve_fp_steady
    import numpy as np
    mesh = two_cell_mesh
    u = np.where(mesh.interior, 3.9, 0.0)
    fd = np.full(mesh.n_edges, np.nan)
    fd[1], fd[2] = 1.0, 2.0
    data = transport_data(mesh, np.ones(mesh.n_edges), u, fd)
    with pytest.raises(PecletError):
        solve_fp_steady(*assemble_fp_operator(mesh, data, CENTERED))
    steady = solve_fp_steady(*assemble_fp_operator(mesh, data, CENTERED, force=True))
    assert np.all(steady > 0)


def test_run_sweep_writes_a_rate_per_point(tmp_path):
    cfg = RunConfig(preset="pme-sweep", level=1, out=str(tmp_path / "sweep"))
    assert run(cfg) == 0
    rates = (tmp_path / "sweep" / "rates.csv").read_text().splitlines()
    assert rates[0] == "m,m_dirichlet,rate"
    assert len(rates) == 6
    values = [float(r.split(",")[2]) for r in rates[1:] if r.split(",")[2]]
    assert len(values) == 5
    assert all(v > 0 for v in values)
    assert (tmp_path / "sweep" / "m2-md0.1" / "trace.csv").exists()


def test_sweep_removes_the_points_of_an_earlier_sweep(tmp_path):
    """A one-point sweep into the directory of a full one leaves no stale
    point beside its rates.csv, and removes only what runs write."""
    out = tmp_path / "sweep"
    full = RunConfig(preset="pme-sweep", level=0, t_final=0.05, out=str(out))
    assert run(full) == 0
    assert len([p for p in out.iterdir() if p.is_dir()]) == 5
    (out / "notes.txt").write_text("kept\n")
    (out / "m2-md1" / "notes.txt").write_text("kept\n")
    assert run(replace(full, m=3.0)) == 0
    assert (out / "rates.csv").read_text() == "m,m_dirichlet,rate\n3,1,\n"
    assert sorted(p.name for p in out.iterdir()) == ["m2-md1", "m3-md1", "notes.txt",
                                                     "rates.csv"]
    assert [p.name for p in (out / "m2-md1").iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in (out / "m3-md1").iterdir()) == ["steady.txt", "trace.csv"]


def test_failed_sweep_point_writes_error_and_exits_1(tmp_path, monkeypatch):
    def failing(*args):
        raise SolverError("steady state lost positivity")

    monkeypatch.setattr(presets_module, "run_transient", failing)
    out = tmp_path / "sweep"
    assert run(RunConfig(preset="pme-sweep", m=3.0, level=0, out=str(out))) == 1
    assert "positivity" in (out / "m3-md1" / "error.txt").read_text()
    assert (out / "rates.csv").read_text() == "m,m_dirichlet,rate\n"


@pytest.mark.parametrize("fails_first", [False, True], ids=["ok-then-fail", "fail-then-ok"])
def test_rerun_into_one_directory_leaves_only_its_own_files(tmp_path, fails_first):
    """A rerun removes the trace.csv, steady.txt and error.txt of the run
    before it, so an old trace never sits beside a new failure."""
    ok = RunConfig(preset="dd-bias", level=0, t_final=0.05, out=str(tmp_path))
    failing = replace(ok, debye=0.02)  # the steady Newton diverges
    runs = [(failing, 1, {"error.txt"}), (ok, 0, {"trace.csv", "steady.txt"})]
    for cfg, status, files in runs if fails_first else runs[::-1]:
        assert run(cfg) == status
        assert {p.name for p in tmp_path.iterdir()} == files


def test_runs_of_either_kind_clear_the_files_of_the_other(tmp_path):
    """A sweep into a single run's directory, and a single run into a sweep's,
    leave only their own run files beside the ones no run writes; a usage
    error leaves the directory as it was."""
    single = RunConfig(preset="fp-toy", t_final=0.05, out=str(tmp_path))
    sweep = RunConfig(preset="pme-sweep", level=0, m=3.0, t_final=0.05, out=str(tmp_path))
    assert run(single) == 0
    (tmp_path / "notes.txt").write_text("kept\n")
    assert run(sweep) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m3-md1", "notes.txt", "rates.csv"]
    (tmp_path / "m3-md1" / "notes.txt").write_text("kept\n")
    with pytest.raises(UsageError):
        run(replace(single, m=3.0))
    assert (tmp_path / "rates.csv").exists()
    assert run(single) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m3-md1", "notes.txt", "steady.txt",
                                                          "trace.csv"]
    assert [p.name for p in (tmp_path / "m3-md1").iterdir()] == ["notes.txt"]


def _fstring_steady(steady) -> str:
    """The per-cell f-string formula ``steady.txt`` was first written with."""
    if isinstance(steady, DdState):
        lines = [f"{k} {nk:.17g} {pk:.17g} {vk:.17g}"
                 for k, (nk, pk, vk) in enumerate(zip(steady.n, steady.p, steady.v))]
    else:
        lines = [f"{k} {val:.17g}" for k, val in enumerate(steady)]
    return "\n".join(lines) + "\n"


def test_write_steady_matches_per_cell_format(tmp_path):
    path = tmp_path / "steady.txt"
    field = np.array([-0.0, 5e-324, 1 / 3, 1e300, 2.5, -7.0, 1e-300, 12345678.9])
    state = DdState(n=field + 1.0, p=np.full(field.size, math.e), v=field[::-1].copy())
    for steady in (field, state, field[:1]):
        _write_steady(path, steady)
        assert path.read_text() == _fstring_steady(steady)
    assert path.read_text() == "0 -0\n"


def test_run_dd_writes_triple_snapshot(tmp_path):
    cfg = RunConfig(preset="dd-pn", level=0, t_final=0.02,
                    out=str(tmp_path / "dd"))
    assert run(cfg) == 0
    line = (tmp_path / "dd" / "steady.txt").read_text().splitlines()[0]
    assert len(line.split()) == 4


def test_convergence_study_table():
    text, csv = convergence_study("fp-toy", range(3), ["upwind", "sg"])
    assert "upwind" in text
    rows = csv.strip().splitlines()
    assert rows[0] == "dx,upwind_err,upwind_order,sg_err,sg_order"
    assert len(rows) == 4
    last = rows[-1].split(",")
    assert float(last[1]) < 2e-3          # upwind error at level 2
    assert abs(float(last[2]) - 1.0) < 0.2
    assert float(last[3]) < 1e-12         # sg at round-off
    assert last[4] == ""                  # no order at the floor
    with pytest.raises(UsageError):
        convergence_study("pme-fill", range(2), ["sg"])


def _convergence_rows(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return [{key: float(value) for key, value in zip(header, row) if value} for row in rows]


def test_convergence_order_over_a_level_gap(tmp_path):
    """An order across two levels is per halving of the cell size: the mean
    of the two one-level orders, not their sum."""
    gap, full = tmp_path / "gap.csv", tmp_path / "full.csv"
    assert main(["convergence", "fp-toy", "--levels", "0,2", "--out", str(gap)]) == 0
    assert main(["convergence", "fp-toy", "--levels", "0..2", "--out", str(full)]) == 0
    gap_rows, full_rows = _convergence_rows(gap), _convergence_rows(full)
    for scheme, order in (("upwind", 0.93), ("centered", 2.0)):
        key = f"{scheme}_order"
        assert gap_rows[1][f"{scheme}_err"] == full_rows[2][f"{scheme}_err"]
        assert gap_rows[1][key] == pytest.approx((full_rows[1][key] + full_rows[2][key]) / 2,
                                                 rel=1e-12)
        assert gap_rows[1][key] == pytest.approx(order, abs=0.05)


@pytest.mark.parametrize("levels", ["3..1", "a", "-1..0", "0,-1", "0,0", "2,1", "", "1.."])
def test_convergence_bad_levels_are_usage_errors(capsys, levels):
    assert main(["convergence", "fp-toy", f"--levels={levels}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --levels") and "Traceback" not in err


def test_parse_config_text_sections():
    text = """
    # comment
    preset = fp-toy
    scheme = centered
    lambda = 2.5

    [fp-toy]
    level = 1

    [other]
    level = 7
    """
    values = parse_config_text(text)
    assert values == {"preset": "fp-toy", "scheme": "centered",
                      "debye": 2.5, "level": 1}
    with pytest.raises(UsageError, match="unknown key"):
        parse_config_text("bogus = 3")
    with pytest.raises(UsageError, match="key = value"):
        parse_config_text("text without equals")


def _parse_run(monkeypatch, *flags):
    """The parsed flags of ``entrofv run fp-toy FLAGS`` and the RunConfig
    that ``_config_from_target`` makes of them; the preset does not run."""
    seen = []
    to_config = cli._config_from_target
    monkeypatch.setattr(cli, "_config_from_target",
                        lambda target, args: seen.append(args) or to_config(target, args))
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert main(["run", "fp-toy", *flags]) == 0
    return seen


def test_every_run_flag_is_a_run_config_field(monkeypatch, tmp_path):
    args, cfg = _parse_run(monkeypatch, "--scheme", "centered", "--level", "1", "--dt", "0.5",
                           "--t-final", "2", "--entropy-floor", "0", "--out", str(tmp_path),
                           "--force-peclet", "--bias", "1.5", "--m", "3",
                           "--m-dirichlet", "2", "--lambda", "0.5", "--doping", "2")
    dests = set(vars(args)) - {"command", "target"}
    assert dests == {f.name for f in fields(RunConfig)} - {"preset"}
    assert {key: getattr(cfg, key) for key in dests} == {key: getattr(args, key)
                                                        for key in dests}


@pytest.mark.parametrize("flags, fields_set", [
    (("--level", "0", "--bias", "0", "--force-peclet"),
     {"level": 0, "bias": 0.0, "force_peclet": True}),
    ((), {}),
])
def test_zero_and_switch_flags_reach_the_run_config(monkeypatch, flags, fields_set):
    _, cfg = _parse_run(monkeypatch, *flags)
    assert cfg == RunConfig(preset="fp-toy", **fields_set)


def test_doping_flag_reaches_the_device(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or run(cfg))
    base = ["run", "dd-pn", "--level", "0", "--t-final", "0.05"]
    assert main([*base, "--out", str(tmp_path / "default")]) == 0
    assert main([*base, "--doping", "2", "--out", str(tmp_path / "doped")]) == 0
    assert [cfg.doping for cfg in seen] == [None, 2.0]
    steady = [(tmp_path / name / "steady.txt").read_text() for name in ("default", "doped")]
    assert steady[0] != steady[1]


@pytest.mark.parametrize("name", sorted(presets()))
def test_resolve_sets_every_option_the_run_reads(name):
    """The resolved configuration holds every value the run uses, keeps what
    was set, and resolving it again changes nothing."""
    preset, resolved = presets_module._resolve(RunConfig(preset=name))
    for key in (*COMMON_OPTIONS, *preset.reads):
        assert (getattr(resolved, key) is None) == (key == "out"), key
    assert {key: getattr(resolved, key) for key in preset.reads} == preset.reads
    assert presets_module._resolve(resolved) == (preset, resolved)
    assert presets_module._resolve(RunConfig(preset=name, level=1))[1].level == 1


@pytest.mark.parametrize("name", ["pme-fill", "pme-sweep"])
def test_adaptive_preset_takes_a_step_below_the_default_floor(tmp_path, name):
    """Any positive finite dt is accepted: an adaptive preset lowers its
    smallest step to a smaller dt, as a fixed-step one does."""
    out = tmp_path / "out"
    assert main(["run", name, "--level", "0", "--dt", "1e-9", "--t-final", "0.01",
                 "--out", str(out)]) == 0
    traces = sorted(out.rglob("trace.csv"))
    assert len(traces) == (5 if name == "pme-sweep" else 1)
    for trace in traces:
        first_step = trace.read_text().splitlines()[2].split(",")[1]
        assert float(first_step) == pytest.approx(1e-9, rel=1e-12)


def test_config_file_switch_words(tmp_path, capsys):
    """A switch is on for 1/true/yes/on, off for 0/false/no/off (any case),
    and any other word is a usage error naming its line."""
    for words, value in ((("1", "true", "Yes", "ON"), True), (("0", "false", "No", "OFF"), False)):
        for word in words:
            assert parse_config_text(f"force_peclet = {word}\n") == {"force_peclet": value}
    cfg = tmp_path / "run.conf"
    cfg.write_text("preset = fp-hetero\nlevel = 1\nscheme = centered\nforce_peclet = ture\n"
                   f"out = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config line 4: force_peclet ")
    assert "'ture'" in err[0]
    assert not (tmp_path / "out").exists()


def test_config_file_values_take_the_run_config_types():
    values = parse_config_text("preset = fp-toy\nlevel = 0\nforce_peclet = yes\nbias = 0\n")
    assert values == {"preset": "fp-toy", "level": 0, "force_peclet": True, "bias": 0.0}
    assert [type(values[key]) for key in ("level", "force_peclet", "bias")] == [int, bool,
                                                                                float]


def test_cli_run_config_file(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("preset = fp-toy\nlevel = 0\nt_final = 0.03\n"
                   f"out = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("preset, line, name", [
    ("dd-pn", "doping = nan", "doping"),
    ("pme-fill", "scheme = weird", "unknown scheme"),
    ("pme-sweep", "scheme = weird", "unknown scheme"),
])
def test_cli_bad_config_file_value_is_usage_error(tmp_path, capsys, preset, line, name):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"preset = {preset}\n{line}\nout = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} ")
    assert not (tmp_path / "out").exists()


def test_cli_exit_codes(tmp_path):
    assert main(["run", "nosuchpreset"]) == 2
    assert main(["convergence", "fp-toy", "--levels", "0..1",
                 "--schemes", "bogus"]) == 2
    assert main(["mesh", "gen", "--level", "0",
                 "--out", str(tmp_path / "m.tpfa")]) == 0
    assert main(["mesh", "check", str(tmp_path / "m.tpfa")]) == 0
    assert main(["mesh", "gen", str(tmp_path / "m.tpfa"), "--level", "0"]) == 2
    assert main(["mesh", "refine", "--level", "0"]) == 2  # no such subcommand


def test_cli_mesh_check_bad_file(tmp_path, capsys):
    """An unreadable file is a usage error; a field that does not parse is a
    format error naming its line, never a traceback."""
    assert main(["mesh", "check", str(tmp_path / "missing.tpfa")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read mesh file")
    lines = save_mesh(reference_mesh(0, BOUNDARY_NAMES["all-dirichlet"])).splitlines()
    cell = lines[2].split()
    for line, text in ((2, "cells x"), (3, " ".join([cell[0], "zz", *cell[2:]]))):
        path = tmp_path / f"bad{line}.tpfa"
        path.write_text("\n".join(lines[:line - 1] + [text] + lines[line:]) + "\n")
        assert main(["mesh", "check", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("name", sorted(BOUNDARY_NAMES))
def test_cli_mesh_gen_writes_the_reference_mesh(tmp_path, name):
    for level in range(3):
        out = tmp_path / f"{name}-{level}.tpfa"
        assert main(["mesh", "gen", "--level", str(level), "--boundary", name,
                     "--out", str(out)]) == 0
        mesh = reference_mesh(level, BOUNDARY_NAMES[name])
        assert out.read_text() == save_mesh(mesh), level


def test_cli_mesh_gen_refuses_before_building(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(mesh_module, "MAX_REFERENCE_LEVEL", 1)
    monkeypatch.setattr(mesh_module, "build_from_triangulation",
                        lambda *args: built.append(args))
    assert main(["mesh", "gen", "--level", "2"]) == 1
    assert "refusing level 2 > 1" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("command", ["gen", "check"])
def test_cli_mesh_negative_level_is_usage_error(capsys, command):
    assert main(["mesh", command, "--level", "-1"]) == 2
    assert "--level must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unread", [
    (["fp-toy", "--bias", "0"], "bias"),
    (["fp-hetero", "--m", "3"], "m"),
    (["pme-fill", "--force-peclet"], "force_peclet"),
    (["pme-sweep", "--lambda", "0.5"], "lambda"),
    (["dd-pn", "--level", "0", "--t-final", "0.05", "--bias", "5"], "bias"),
    (["dd-bias", "--m-dirichlet", "2"], "m_dirichlet"),
])
def test_cli_option_a_preset_does_not_read_is_usage_error(tmp_path, capsys, argv, unread):
    """An option the preset never reads would leave the run as it was, so it
    is refused before anything is written."""
    preset = presets()[argv[0]]
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: preset {preset.name} does not read {unread}; it reads "
                   + ", ".join(preset.reads).replace("debye", "lambda")]
    assert not list(tmp_path.iterdir())


def test_config_file_option_a_preset_does_not_read_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"preset = fp-toy\ndoping = 2\nlambda = 0.5\nout = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == ("error: preset fp-toy does not read lambda, doping; "
                                       "it reads force_peclet\n")
    assert not (tmp_path / "out").exists()


def test_every_run_config_field_is_common_or_read_by_a_preset():
    read = {name for preset in presets().values() for name in preset.reads}
    assert read | set(COMMON_OPTIONS) == {f.name for f in fields(RunConfig)}
    assert not read & set(COMMON_OPTIONS)


@pytest.mark.parametrize("argv, name", [
    (["dd-bias", "--lambda", "0"], "lambda"),
    (["dd-bias", "--lambda", "-1"], "lambda"),
    (["fp-toy", "--level", "-1"], "level"),
    (["fp-toy", "--t-final", "-1"], "t_final"),
    (["pme-fill", "--dt", "0"], "dt"),
    (["fp-toy", "--dt", "0"], "dt"),
    (["dd-bias", "--dt", "0"], "dt"),
    (["fp-toy", "--dt", "-0.01"], "dt"),
    (["dd-bias", "--bias", "nan"], "bias"),
    (["pme-sweep", "--t-final", "inf"], "t_final"),
    (["pme-fill", "--m", "nan"], "m"),
    (["pme-sweep", "--m", "inf"], "m"),
    (["pme-sweep", "--m-dirichlet", "0"], "m_dirichlet"),
    (["pme-sweep", "--m-dirichlet", "inf"], "m_dirichlet"),
    (["pme-sweep", "--m-dirichlet", "-1"], "m_dirichlet"),
    (["fp-toy", "--entropy-floor", "nan"], "entropy_floor"),
    (["fp-toy", "--entropy-floor", "-1"], "entropy_floor"),
    (["pme-fill", "--m", "0.5"], "m"),  # the steady state needs an exponent above 1
    (["pme-sweep", "--level", "0", "--t-final", "0.05", "--m", "1"], "m"),
])
def test_cli_bad_run_parameter_is_usage_error(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out", ["", "  "])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_cli_empty_out_is_usage_error(tmp_path, monkeypatch, capsys, out, form):
    """An empty ``out`` would name the working directory: the run would clear
    its run files and write there.  It is refused before any file is touched."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.csv").write_text("kept\n")
    if form == "flag":
        argv = ["fp-toy", "--t-final", "0.03", "--out", out]
    else:
        (tmp_path / "run.conf").write_text(f"preset = fp-toy\nt_final = 0.03\nout = {out}\n")
        argv = ["run.conf"]
    assert main(["run", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: out must name a directory, got ")
    assert {p.name for p in tmp_path.iterdir()} <= {"trace.csv", "run.conf"}
    assert (tmp_path / "trace.csv").read_text() == "kept\n"


def test_cli_entry_point_runs():
    # the child imports the package from where this process found it
    src = str(Path(entrofv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-m", "entrofv.cli", "run",
                          "definitely-not-a-preset"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "preset" in out.stderr


def test_boundary_names_cover_presets():
    for name, bnd in BOUNDARY_NAMES.items():
        assert bnd.dirichlet or bnd.neumann
    used = {build_problem(RunConfig(preset=name, level=0))[0].mesh.geometry.boundary
            for name in presets()}
    assert used == set(BOUNDARY_NAMES.values())
