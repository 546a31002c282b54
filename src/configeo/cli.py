"""Command-line surface: config ingestion, experiment dispatch, reports.

Config files are plain text: `key = value` pairs, one optional level of
`[section]` nesting, and full-line `#` comments.  Command-line flags, by
their exact names only, override file values; the seed is --seed, else the
`seed` key, else 0.  A file's `command` picks the command under `run` and
must name the subcommand under any other.  Report bodies are byte-identical
across reruns of the same (config, seed): volatile wall-clock data never
enters a file body (timings go to stdout).

Each command is one row of COMMANDS: its section, parse function, help line
and keys.  A flag comes from the row that defines its key (COMMANDS,
GENERATORS or _MEASURE_KEYS), and --a-b sets key a_b; _FLAG_NAMES holds the
flags named otherwise.  The parse function asks the typed getters for every
key the command reads, and `run` then refuses every key present in the
configuration that the command did not ask for: an unread key is a usage
error, checked before any kernel runs, any file is written and any point
set is read or generated (a command reads its point set last).  That is
the one rule by which a key is refused, a key no command reads any more or
a scan's generator size or seed among them.  The manifest therefore lists
only keys the command read.

A command's job hands values to one report writer and formats none itself:
`_fmt` renders a value, `_csv` writes a CSV report and `_text` a `key = value`
report or the manifest.

Exit codes: 0 success, 1 infeasible/inconclusive result, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .configcount import ConfigQuery, box_dim, family_row, run_query
from .energy import DEFAULT_ADAPTABILITY_C, _check_positive, energy_profile
from .errors import CapacityError, ConfigeoError, InfeasibleError
from .expfit import ScanSpec, run_scan
from .fourierlab import (
    CURVATURE_MAX_N,
    MC_SAMPLE_BUDGET,
    MEASURES,
    FrequencyPoint,
    MeasureSpec,
    decay_fit,
    ft_montecarlo,
    level_set_curvatures,
    nonzero_curvature_count,
    phase_check_ranks,
    phase_plane_discriminant,
    phase_plane_form,
)
from .pointgen import (GENERATORS, GeneratorSpec, PointSet, format_float, format_pointset,
                       generate, load_pointset)

class UsageError(Exception):
    """Bad flags or config contents; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """A parser that takes exact flag names only and raises its errors as
    UsageError; --help and --version still exit through SystemExit."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


@dataclass
class ExperimentConfig:
    """The fully merged, effective configuration of one experiment, and the
    (section, key) pairs its command has asked for; top-level keys are in
    section ''."""

    command: str
    sections: dict[str, dict[str, str]]
    seed: int = 0
    out_dir: Path = Path("reports")
    read: set[tuple[str, str]] = field(default_factory=set)


# ---------------------------------------------------------------------------
# config file parsing


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, dict[str, str]]:
    """Parse the key-value grammar into {section: {key: value}}; top-level
    keys land in section ''. Errors carry line numbers."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise UsageError(f"{origin}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise UsageError(f"{origin}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise UsageError(f"{origin}:{lineno}: empty key")
        sections[current][key] = value
    return sections


# typed getters; each records the (section, key) it is asked for, present or
# not, and all failures name the offending field


def _name(section: str, key: str) -> str:
    return f"[{section}] {key}" if section else key


def _get(cfg: ExperimentConfig, section, key, default=None, required=False) -> str | None:
    cfg.read.add((section, key))
    value = cfg.sections.get(section, {}).get(key)
    if value is None:
        if required:
            raise UsageError(f"missing required field {_name(section, key)}")
        return default
    return value


def _typed(cast, expected: str):
    """A getter like `_get` that converts the value with cast."""

    def get(cfg, section, key, default=None, required=False):
        raw = _get(cfg, section, key, None, required)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise UsageError(f"field {_name(section, key)}: expected {expected}, got {raw!r}") from None

    return get


_get_int = _typed(int, "integer")
_get_float = _typed(float, "number")
_get_floats = _typed(lambda raw: tuple(float(x) for x in raw.split(";") if x != ""),
                     ";-separated numbers")
_get_ints = _typed(lambda raw: tuple(int(x) for x in raw.split(";") if x != ""),
                   ";-separated integers")


def _parse_direction(raw: str) -> FrequencyPoint:
    blocks = []
    for part in raw.split("|"):
        try:
            block = np.array([float(x) for x in part.split(";") if x != ""])
            finite = np.isfinite(block).all()
        except ValueError:
            finite = False
        if not finite:
            raise UsageError(f"field [ft] direction: bad block {part!r} (need finite numbers)")
        blocks.append(block)
    return FrequencyPoint(blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# argument parsing

# (section, key) -> its flag, where that is not --a-b for key a_b
_FLAG_NAMES = {("generator", "l"): "--level", ("ft", "t"): "--level"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="configeo",
        description="point-configuration workbench: generators, counts, energies, "
        "scaling scans, Fourier decay, curvature certificates",
    )
    parser.add_argument("--version", action="version", version=f"configeo {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (flags override file values)")
    common.add_argument("--out", help="output directory (default: reports)")
    common.add_argument("--seed", type=int, help="seed (default: 0)")
    with_input = argparse.ArgumentParser(add_help=False, parents=[common])
    with_input.add_argument("--input", help="point-set file (alternative to [generator])")

    sub = parser.add_subparsers(dest="command", required=True)  # each one a _Parser
    sub.add_parser("run", parents=[with_input], help="run the command named in the config file")
    for name, row in COMMANDS.items():
        command = sub.add_parser(name, parents=[with_input if row.input else common], help=row.help)
        keys = [("generator", key) for key in _GENERATOR_KEYS if row.points]
        for section, key in keys + [(row.section, key) for key in row.keys]:
            flag = _FLAG_NAMES.get((section, key), "--" + key.replace("_", "-"))
            command.add_argument(flag, dest=f"{section}.{key}")

    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Flags plus optional config file into one effective configuration."""
    ns = build_parser().parse_args(argv)
    sections: dict[str, dict[str, str]] = {"": {}}
    if ns.config:
        try:
            text = Path(ns.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {ns.config}: {exc}") from None
        sections = parse_config_text(text, origin=ns.config)

    # a given flag overrides the file: a dest section.key names a section key,
    # and input is a top-level key
    for dest, value in vars(ns).items():
        section, dot, key = dest.rpartition(".")
        if value is not None and (dot or key == "input"):
            sections.setdefault(section, {})[key] = value

    cfg = ExperimentConfig(ns.command, sections)
    named = _get(cfg, "", "command", required=ns.command == "run")
    if ns.command == "run":
        if named not in COMMANDS:
            raise UsageError(f"config names unknown command {named!r}")
        cfg.command = named
    elif named not in (None, ns.command):
        raise UsageError(f"config names command {named!r}, not {ns.command}")
    cfg.seed = ns.seed if ns.seed is not None else _get_int(cfg, "", "seed", 0)

    cfg.out_dir = Path(ns.out or _get(cfg, "", "out", "reports"))
    # resolved here for every command, so every command reads them
    resolved = {"command": cfg.command, "seed": str(cfg.seed), "out": str(cfg.out_dir)}
    sections[""].update(resolved)
    cfg.read.update(("", key) for key in resolved)
    return cfg


# ---------------------------------------------------------------------------
# shared output helpers


def _write_text(path: Path, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)


def _write_manifest(cfg: ExperimentConfig) -> None:
    items = [(f"{section}.{key}" if section else key, cfg.sections[section][key])
             for section in sorted(cfg.sections) for key in sorted(cfg.sections[section])]
    body = _text(f"tool = configeo {__version__}", items)
    _write_text(cfg.out_dir / f"{cfg.command}_manifest.txt", body)


def _fmt(value) -> str:
    """One report value: None (a missing fit) as an empty field, a bool as
    true/false, a float to 17 significant digits, a frequency point as its
    blocks joined by '|', a tuple or array as its items joined by ';',
    anything else by str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, FrequencyPoint):
        return "|".join(map(_fmt, value.blocks))
    if isinstance(value, (tuple, np.ndarray)):
        return ";".join(map(_fmt, value))
    return str(value)


def _csv(header: str, rows, **meta) -> str:
    """A CSV report: one `# key=value` line per meta item, the header line,
    then one line per row of values."""
    lines = [f"# {key}={_fmt(value)}" for key, value in meta.items()] + [header]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _text(title: str, items, rows=None) -> str:
    """A text report: the title line, one `key = value` line per (key,
    value) item, then when rows are given a `rows:` line and one indented
    `key=value ...` line per row (a dict)."""
    lines = [title] + [f"{key} = {_fmt(value)}" for key, value in items]
    if rows is not None:
        lines += ["rows:"] + ["  " + " ".join(f"{key}={_fmt(value)}" for key, value in row.items())
                              for row in rows]
    return "\n".join(lines) + "\n"


def _load_points(cfg: ExperimentConfig) -> PointSet:
    """The input point set, from `input = <path>` or the [generator] section,
    read once the unread keys are refused."""
    input_path = _get(cfg, "", "input")
    if not input_path:
        return _generated(cfg)
    generator = cfg.sections.get("generator")
    if generator:
        raise UsageError(f"input and [generator] {', '.join(sorted(generator))} "
                         "both name a point set; keep one")
    _refuse_unread(cfg)
    try:
        return load_pointset(input_path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load point set {input_path!r}: {exc}") from exc


def _generated(cfg: ExperimentConfig) -> PointSet:
    """The point set of the [generator] section, made once the unread keys are refused."""
    try:
        spec = _generator_spec(cfg, sized=True)
        _refuse_unread(cfg)
        return generate(spec)
    except ValueError as exc:
        raise UsageError(f"bad [generator]: {exc}") from exc


# the [generator] keys: kind, then every parameter some kind reads but the
# seed, whose flag is the top-level --seed
_GENERATOR_KEYS = ("kind",) + tuple(dict.fromkeys(
    name.lower() for row in GENERATORS.values() for name in row.params if name != "seed"))


def _generator_spec(cfg: ExperimentConfig, sized: bool) -> GeneratorSpec:
    """The [generator] section as the parameters its kind's row reads, each
    keyed by its name lower-cased; unsized, a scan template that reads no size
    and no seed, since the scan sets both per step."""
    kind = _get(cfg, "generator", "kind", required=True)
    params = {"d": _get_int(cfg, "generator", "d", required=True)}
    if kind not in GENERATORS:
        raise UsageError(f"unknown generator kind {kind!r}")
    row = GENERATORS[kind]
    for name in row.params[1:]:
        if not sized and name in (row.size, "seed"):
            continue
        get = _get_float if name in row.extras else _get_int
        value = get(cfg, "generator", name.lower(), required=name == row.size)
        if value is not None:
            params[name] = value
    if sized and row.seeded:
        params.setdefault("seed", cfg.seed)
    return GeneratorSpec.make(kind, **params)


# ---------------------------------------------------------------------------
# commands: each parses its keys and returns its job; the job returns
# ({report file name: body}, summary line, exit code)


def _cmd_gen(cfg: ExperimentConfig):
    ps = _generated(cfg)
    kind = ps.meta.generator  # the [generator] kind

    def job():
        name = f"pointset_{kind}_d{ps.dim}_n{ps.n}_seed{cfg.seed}.txt"
        return {name: format_pointset(ps)}, f"gen: kind={kind} d={ps.dim} n={ps.n} -> {cfg.out_dir / name}", 0

    return job


def _cmd_energy(cfg: ExperimentConfig):
    grid = _get_floats(cfg, "energy", "s_grid", required=True)
    if not grid:
        raise ValueError("s_grid names no exponent")
    c_level = _get_float(cfg, "energy", "c", DEFAULT_ADAPTABILITY_C)
    _check_positive("C", c_level)
    ps = _load_points(cfg)

    def job():
        values = energy_profile(ps, grid)
        rows = [(s, ps.n, value, c_level, value <= c_level) for s, value in values]
        name = f"energy_{ps.meta.generator}_d{ps.dim}_n{ps.n}_seed{cfg.seed}.csv"
        last = values[-1]
        line = f"energy: n={ps.n} s={last[0]:g} value={last[1]:.6g} C={c_level:g} -> {cfg.out_dir / name}"
        return {name: _csv("s,n,value,adaptable_at,verdict", rows)}, line, 0

    return job


def _family_k(cfg: ExperimentConfig, section: str, family: str) -> Callable[[int], int]:
    """k in dimension d: fixed by the family's row, else the section's k field."""
    fixed_k = family_row(family).fixed_k
    k = None if fixed_k is not None else _get_int(cfg, section, "k", required=True)
    return fixed_k or (lambda d: k)


def _cmd_count(cfg: ExperimentConfig):
    family = _get(cfg, "query", "family", required=True)
    k = _family_k(cfg, "query", family)
    delta = _get_float(cfg, "query", "delta", required=True)
    t = _get_floats(cfg, "query", "t", required=True)
    ps = _load_points(cfg)
    query = ConfigQuery(family, k(ps.dim), t, delta)

    def job():
        report = run_query(ps, query)
        seed = cfg.seed if ps.meta.seed is None else ps.meta.seed
        # elapsed_seconds is left empty so identical runs write identical bytes
        row = (query.family, query.k, ps.dim, ps.n, query.t, query.delta, report.count,
               report.algorithm, None, seed)
        body = _csv("family,k,d,n,t,delta,count,algorithm,elapsed_seconds,seed", [row],
                    generator=ps.meta.generator, seed=cfg.seed)
        name = f"count_{query.family}_k{query.k}_d{ps.dim}_seed{cfg.seed}.csv"
        line = (f"count: family={query.family} k={query.k} n={ps.n} count={report.count} "
                f"algorithm={report.algorithm} elapsed={report.elapsed_seconds:.3f}s -> {cfg.out_dir / name}")
        return {name: body}, line, 0

    return job


def _cmd_scan(cfg: ExperimentConfig):
    family = _get(cfg, "scan", "family", required=True)
    generator = _generator_spec(cfg, sized=False)
    spec = ScanSpec(
        generator=generator,
        family=family,
        k=_family_k(cfg, "scan", family)(int(generator.as_dict()["d"])),
        schedule=_get_ints(cfg, "scan", "schedule", required=True),
        seed=cfg.seed,
        s=_get_float(cfg, "scan", "s"),
        t=_get_floats(cfg, "scan", "t"),
        delta=_get_float(cfg, "scan", "delta"),
        predicted=_get_float(cfg, "scan", "predicted"),
        adaptability_C=_get_float(cfg, "scan", "c", DEFAULT_ADAPTABILITY_C),
    )

    def job():
        report = run_scan(spec)
        base = f"scan_{report.family}_k{report.k}_d{report.d}_s{_fmt(report.s)}_seed{report.seed}"
        items = [("family", report.family), ("k", report.k), ("d", report.d), ("s", report.s),
                 ("seed", report.seed), ("t", report.t), ("predicted_exponent", report.predicted),
                 ("fitted_slope", report.fitted_slope), ("stderr", report.stderr),
                 ("verdict", report.verdict)]
        rows = [dict(n=r.n, delta=r.delta, count=r.count, energy=e.value, adaptable=e.verdict)
                for r, e in zip(report.rows, report.energy)]
        slope_txt = "n/a" if report.fitted_slope is None else f"{report.fitted_slope:.4f}"
        line = (f"scan: family={report.family} k={report.k} d={report.d} slope={slope_txt} "
                f"predicted={report.predicted:.4f} verdict={report.verdict} -> {cfg.out_dir / base}.txt")
        files = {f"{base}.csv": _csv("n,delta,count", ((r.n, r.delta, r.count) for r in report.rows)),
                 f"{base}.txt": _text("scan report", items, rows)}
        return files, line, 1 if report.verdict == "inconclusive" else 0

    return job


# MeasureSpec constructor parameter -> its [ft] key and getter
_MEASURE_KEYS = {
    "d": ("d", _get_int),
    "radii": ("sphere_radii", _get_floats),
    "gaps": ("gaps", _get_floats),
    "t": ("t", _get_float),
    "cutoff": ("cutoff", _get_float),
}


def _measure_from_config(cfg: ExperimentConfig) -> MeasureSpec:
    """The [ft] measure from the keys its row's constructor takes; a key is
    required where the constructor gives no default."""
    kind = _get(cfg, "ft", "kind", required=True)
    if kind not in MEASURES:
        raise UsageError(f"unknown measure kind {kind!r}")
    make = MEASURES[kind].make
    params = {}
    for name, param in inspect.signature(make).parameters.items():
        key, get = _MEASURE_KEYS[name]
        value = get(cfg, "ft", key, required=param.default is param.empty)
        if value is not None:
            params[name] = value
    return make(**params)


def _default_direction(spec: MeasureSpec) -> FrequencyPoint:
    """e1 in the first block; -e1 in the second when one exists (the paired
    frequency pattern the decay hypotheses quantify)."""
    blocks = [np.zeros(dlen) for dlen in spec.block_dims]
    for block, sign in zip(blocks, (1.0, -1.0)):
        block[0] = sign
    return FrequencyPoint(blocks=tuple(blocks))


FT_RADII_BUDGET = 10**5  # radii per ft ray (see _cmd_ft)


def _cmd_ft(cfg: ExperimentConfig):
    """Time budget: a ray of more than FT_RADII_BUDGET radii (whole commands
    took 0.6-1.0 s for sphere(3), 0.8-1.1 s for triangle2d on a 2-vCPU VM) or
    a Monte Carlo ray of more than MC_SAMPLE_BUDGET samples in all (~12 s of
    chain_spheres(3)) is refused with CapacityError before the radii are built."""
    spec = _measure_from_config(cfg)
    raw_dir = _get(cfg, "ft", "direction")
    direction = _parse_direction(raw_dir) if raw_dir else _default_direction(spec)
    if not direction.matches(spec):
        raise UsageError("field [ft] direction: block shape does not match the measure")

    radii = _get_floats(cfg, "ft", "radii")
    if radii is None:
        rmin = _get_float(cfg, "ft", "rmin", required=True)
        rmax = _get_float(cfg, "ft", "rmax", required=True)
    nradii = _get_int(cfg, "ft", "nradii", 12) if radii is None else len(radii)
    if nradii > FT_RADII_BUDGET:
        raise CapacityError(f"{nradii} radii are over the ft budget of {FT_RADII_BUDGET}")

    row = MEASURES[spec.kind]
    method = _get(cfg, "ft", "method", "mc" if row.closed_form is None else "closed")
    if method == "closed":
        if row.closed_form is None:
            raise UsageError(f"no closed form for kind {spec.kind!r}; use method = mc")
        evaluator = lambda unit, rs: (row.closed_form(spec, unit, rs), None)  # noqa: E731
    elif method == "mc":
        epsilon = _get_float(cfg, "ft", "epsilon", 0.05)
        samples = _get_int(cfg, "ft", "samples", 10**6)
        if samples * nradii > MC_SAMPLE_BUDGET:
            raise CapacityError(f"{samples} samples are over the Monte Carlo budget of "
                                f"{MC_SAMPLE_BUDGET} at {nradii} radii ({samples * nradii} in all)")
        # one call per radius: perfbench's fourierlab.mc.samples adds the
        # `samples` argument of each call and its layer test pins that total,
        # so the ray goes in one call once the counter counts drawn samples
        evaluator = lambda unit, rs: tuple(zip(*(  # noqa: E731
            ft_montecarlo(spec, [unit.scaled(r)], epsilon, samples, cfg.seed)[0] for r in rs)))
    else:
        raise UsageError(f"unknown ft method {method!r}")
    if radii is None:
        radii = tuple(np.geomspace(rmin, rmax, nradii))

    def job():
        report = decay_fit(evaluator, direction, radii, reference=spec.reference_exponent)
        errs = report.mc_error_bars or (0.0,) * len(report.radii)
        body = _csv("radius,magnitude,stderr", zip(report.radii, report.magnitudes, errs),
                    kind=spec.kind, d=spec.d, method=method, direction=report.direction,
                    fitted_exponent=report.fitted_exponent, stderr=report.stderr,
                    reference_exponent=report.reference_exponent, inconclusive=report.inconclusive)
        name = f"ft_{spec.kind}_d{spec.d}_{method}_seed{cfg.seed}.csv"
        exp_txt = "n/a" if report.fitted_exponent is None else f"{report.fitted_exponent:.4f}"
        line = (f"ft: kind={spec.kind} d={spec.d} method={method} exponent={exp_txt} "
                f"reference={report.reference_exponent:g} -> {cfg.out_dir / name}")
        return {name: body}, line, 1 if report.inconclusive else 0

    return job


def _family_items(d: int):
    """Per scalar family, the principal curvatures of its config_map's level
    set through one tuple, and their rank of N - 1: volume at (e_1, ..., e_d,
    0), area2 at (e_1, e_2, 0) and angle at (0, e_1, e_2)."""
    base = np.eye(d + 1, d)  # the rows e_1, ..., e_d, 0
    items = []
    for name, t, x0 in (("volume", 1.0, base), ("area2", 1.0, base[[0, 1, d]]),
                        ("angle", np.pi / 2, base[[d, 0, 1]])):
        eigs = level_set_curvatures(
            lambda x: family_row(name).config_map(x.reshape(len(x), *x0.shape))[:, 0], t, x0.ravel())
        items += [(f"{name}_eigs", eigs),
                  (f"{name}_nonzero", f"{nonzero_curvature_count(eigs)} of {x0.size - 1}")]
    return items


def _phase_items(d: int):
    if d < 3:
        return [("phase_hessian", "skipped (needs d >= 3)")]
    rank_generic, rank_plane = phase_check_ranks(d)
    disc = phase_plane_discriminant()
    return [("phase_rank_generic", f"{rank_generic} (floor {2 * (d - 2)})"),
            ("phase_rank_on_plane", f"{rank_plane} (floor {d - 1})"),
            ("phase_plane_form", tuple(phase_plane_form())),
            ("phase_plane_discriminant", disc),
            ("phase_plane_discriminant_sign", "+" if disc > 0 else "-")]


def _cmd_curvature(cfg: ExperimentConfig):
    """One row per scalar family (_family_items), then the phase rows.  Budget:
    each row is one batched level_set_curvatures call on N = (k+1)d
    coordinates, which that call refuses over CURVATURE_MAX_N.  The volume
    row's N = d(d+1) is the largest, so d <= 8 runs (0.03-0.05 s and a 22 MB
    tracemalloc peak for its call at d = 8), and a larger d is refused with
    CapacityError here, before the rows' base tuple of N floats is built.
    The report states ranks and eigenvalues, never that a hypothesis holds."""
    d = _get_int(cfg, "curvature", "d", 3)
    if d < 2:
        raise ValueError("need d >= 2")
    if d * (d + 1) > CURVATURE_MAX_N:
        raise CapacityError(f"curvature d = {d}: the volume row's level set in R^{d * (d + 1)} is over "
                            f"the curvature budget of N = {CURVATURE_MAX_N}")

    def job():
        items = _family_items(d) + _phase_items(d)
        name = f"curvature_suite_d{d}.txt"
        body = _text(f"curvature certificates (d={d})", items)
        return {name: body}, f"curvature: d={d} -> {cfg.out_dir / name}", 0

    return job


def _cmd_dim(cfg: ExperimentConfig):
    scales = _get_floats(cfg, "dim", "scales", required=True)
    ps = _load_points(cfg)

    def job():
        report = box_dim(ps, scales)
        body = _csv("scale,count", zip(report.scales, report.counts), slope=report.slope,
                    stderr=report.stderr, degenerate=report.degenerate)
        name = f"dim_{ps.meta.generator}_d{ps.dim}_n{ps.n}_seed{cfg.seed}.csv"
        line = f"dim: n={ps.n} slope={report.slope:.4f} degenerate={report.degenerate} -> {cfg.out_dir / name}"
        return {name: body}, line, 0

    return job


@dataclass(frozen=True)
class Command:
    """One row of COMMANDS (see the module docstring)."""

    section: str  # holds the command's keys and names its ValueErrors
    parse: Callable[[ExperimentConfig], Callable]  # returns the command's job
    help: str
    keys: tuple[str, ...] = ()  # the keys of the section that get a flag
    points: bool = False  # reads a point set, so takes the [generator] flags
    input: bool = False  # may read it from a file instead, so takes --input


COMMANDS = {
    "gen": Command("generator", _cmd_gen, "generate and save a point set", points=True),
    "energy": Command("energy", _cmd_energy, "discrete energy report", ("s_grid", "c"),
                      points=True, input=True),
    "count": Command("query", _cmd_count, "one counting run", ("family", "k", "t", "delta"),
                     points=True, input=True),
    "scan": Command("scan", _cmd_scan, "count-growth scan over n",
                    ("family", "k", "schedule", "s", "t", "delta", "predicted", "c"), points=True),
    "ft": Command("ft", _cmd_ft, "Fourier decay of a configuration measure",
                  ("kind", "direction", "rmin", "rmax", "nradii", "radii", "method", "epsilon",
                   "samples") + tuple(key for key, _ in _MEASURE_KEYS.values())),
    "curvature": Command("curvature", _cmd_curvature, "curvature/rank certificates", ("d",)),
    "dim": Command("dim", _cmd_dim, "box-counting dimension", ("scales",), points=True, input=True),
}


def _refuse_unread(cfg: ExperimentConfig) -> None:
    """A usage error for the first key, in sorted order, that the command did
    not ask for."""
    for section in sorted(cfg.sections):
        for key in sorted(cfg.sections[section]):
            if (section, key) not in cfg.read:
                asked = sorted(k for s, k in cfg.read if s == section)
                scope = f"[{section}]" if section else "top-level"
                raise UsageError(f"field {_name(section, key)}: {cfg.command} does not read it "
                                 f"(it reads {scope} keys: {', '.join(asked) or 'none'})")


def run(cfg: ExperimentConfig) -> int:
    """Refuse an output directory that is, or lies under, a file; parse the
    command's keys, refuse any key it did not ask for, run its job, then
    write the reports, print the summary line and write the manifest.  A
    ValueError from parse or job is a usage error."""
    existing = next(path for path in (cfg.out_dir, *cfg.out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise UsageError(f"output directory {cfg.out_dir}: {existing} is not a directory")
    row = COMMANDS[cfg.command]
    try:
        job = row.parse(cfg)
        _refuse_unread(cfg)
        files, line, code = job()
    except ValueError as exc:
        raise UsageError(f"bad [{row.section}]: {exc}") from exc
    for name, body in files.items():
        _write_text(cfg.out_dir / name, body)
    print(line)
    _write_manifest(cfg)
    return code


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as exc:
        print(f"configeo: error: {exc}", file=sys.stderr)
        return 2
    except ConfigeoError as exc:
        kind = "infeasible" if isinstance(exc, InfeasibleError) else "error"
        print(f"configeo: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
