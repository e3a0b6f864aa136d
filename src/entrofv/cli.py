"""Command line surface: preset runs, convergence studies, mesh utilities.

Exit codes: 0 success, 1 solver failure, 2 usage error or an unusable path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_args, get_type_hints

from .mesh import MeshError, load_mesh, reference_mesh, save_mesh, validate
from .presets import (BOUNDARY_NAMES, RunConfig, UsageError, convergence_study,
                      presets, run)

#: Every ``RunConfig`` field with its value type, ``Optional`` unwrapped.
_CONFIG_KEYS = {name: next((t for t in get_args(hint) if t is not type(None)), hint)
                for name, hint in get_type_hints(RunConfig).items()}

#: The words a config file may give a switch.
_SWITCH = {**dict.fromkeys(("1", "true", "yes", "on"), True),
           **dict.fromkeys(("0", "false", "no", "off"), False)}


def parse_config_text(text: str) -> dict:
    """Flat key=value format with '#' comments and optional [preset] sections.

    Top-level keys apply always; keys inside a [name] section apply only when
    the top level selects that preset.
    """
    top: dict = {}
    sections: dict[str, dict] = {}
    current = top
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "lambda":
            key = "debye"
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind is bool and value.lower() not in _SWITCH:
                raise ValueError(f"{key} takes one of {'/'.join(_SWITCH)}, got {value!r}")
            current[key] = _SWITCH[value.lower()] if kind is bool else kind(value)
        except ValueError as err:
            raise UsageError(f"config line {lineno}: {err}") from err
    merged = dict(top)
    merged.update(sections.get(top.get("preset"), {}))
    return merged


def _read(path: str, what: str) -> str:
    """The text of a config or mesh file; one that cannot be read is a usage error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {what} {path!r}: {err}") from None


def _config_from_target(target: str, args) -> RunConfig:
    values: dict = {}
    if target in presets():
        values["preset"] = target
    else:
        path = Path(target)
        if not path.exists():
            raise UsageError(f"{target!r} is neither a preset name nor a config file; "
                             f"presets: {sorted(presets())}")
        values.update(parse_config_text(_read(target, "config file")))
        if "preset" not in values:
            raise UsageError(f"config file {target} does not select a preset")
    for key in _CONFIG_KEYS:  # an unset flag is None, or False for a switch
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            values[key] = flag
    return RunConfig(**values)


def _levels_arg(text: str) -> list[int]:
    """``LO..HI`` or a comma list of non-negative, strictly increasing levels."""
    lo, dots, hi = text.partition("..")
    try:
        levels = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in text.split(",")]
    except ValueError as err:
        raise UsageError(f"--levels {text!r}: {err}") from None
    if not levels or levels[0] < 0 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise UsageError(f"--levels {text!r}: need non-negative, strictly increasing levels")
    return levels


def _mesh_source(args):
    """The ``--level`` reference mesh, or else the FILE that ``check`` takes."""
    if args.level is not None:
        if args.level < 0:
            raise UsageError("--level must be non-negative")
        return reference_mesh(args.level, BOUNDARY_NAMES[args.boundary])
    if getattr(args, "file", None) is not None:
        return load_mesh(_read(args.file, "mesh file"))
    raise UsageError("gen needs --level; check needs --level or a mesh file")


def _write_mesh(args, mesh) -> int:
    text = save_mesh(mesh)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({mesh.n_cells} cells)")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entrofv",
        description="finite volume solvers for boundary-driven "
                    "convection-diffusion with entropy diagnostics")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a preset or a config file")
    p_run.add_argument("target", help="preset name or config file path")
    for key, kind in _CONFIG_KEYS.items():  # a flag per field but preset; --lambda sets debye
        flag = "--" + ("lambda" if key == "debye" else key.replace("_", "-"))
        if kind is bool:
            p_run.add_argument(flag, dest=key, action="store_true")
        elif key != "preset":
            p_run.add_argument(flag, dest=key, type=kind)

    p_conv = sub.add_parser("convergence", help="steady-state error study")
    p_conv.add_argument("preset")
    p_conv.add_argument("--levels", default="0..4")
    p_conv.add_argument("--schemes", default="upwind,centered,sg")
    p_conv.add_argument("--out")

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command")
    for name, help_text in (("gen", "generate a reference mesh"),
                            ("check", "validate admissibility")):
        p = mesh_sub.add_parser(name, help=help_text)
        if name == "check":
            p.add_argument("file", nargs="?", help="TPFA graph file")
        p.add_argument("--level", type=int)
        p.add_argument("--boundary", choices=sorted(BOUNDARY_NAMES),
                       default="all-dirichlet")
        if name != "check":
            p.add_argument("--out")

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0

    try:
        if args.command == "run":
            return run(_config_from_target(args.target, args))

        if args.command == "convergence":
            table, csv = convergence_study(args.preset, _levels_arg(args.levels),
                                           args.schemes.split(","))
            print(table, end="")
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.out).write_text(csv)
                print(f"wrote {args.out}")
            return 0

        if args.command == "mesh":
            if args.mesh_command == "gen":
                return _write_mesh(args, _mesh_source(args))
            if args.mesh_command == "check":
                report = validate(_mesh_source(args))
                print(report)
                return 0 if report.ok else 1
            raise UsageError("mesh needs a subcommand: gen or check")

        parser.print_help()
        return 2

    except (UsageError, OSError) as err:  # an OSError comes from an output path
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MeshError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
