"""Command-line surface: config ingestion, experiment dispatch, reports.

Config files are plain text: `key = value` pairs, one optional level of
`[section]` nesting, and full-line `#` comments.  Command-line flags override
file values; the seed falls back to the CONFIGEO_SEED environment variable.
Report bodies are byte-identical across reruns of the same (config, seed):
volatile wall-clock data never enters a file body (timings go to stdout).

Exit codes: 0 success, 1 infeasible/inconclusive result, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .configcount import (
    COUNT_CSV_HEADER,
    ConfigQuery,
    box_dim,
    count_report_row,
    family_row,
    run_query,
)
from .energy import DEFAULT_ADAPTABILITY_C, energy_profile
from .errors import ConfigeoError, InfeasibleError
from .expfit import ScanSpec, run_scan
from .fourierlab import (
    FrequencyPoint,
    MeasureSpec,
    circulant_check,
    decay_fit,
    ft_montecarlo,
    ft_quadrature,
    ft_sphere,
    ft_triangle,
    level_set_curvatures,
    nonzero_curvature_count,
    phase_hessian,
    phase_plane_discriminant,
    phase_plane_form,
    phase_plane_xi,
)
from .pointgen import GeneratorSpec, PointSet, format_float, generate, load_pointset, save_pointset

COMMANDS = ("gen", "energy", "count", "scan", "ft", "curvature", "dim")

ENV_SEED = "CONFIGEO_SEED"


class UsageError(Exception):
    """Bad flags or config contents; maps to exit code 2."""


# (section, key) of config keys that no longer exist -> why; naming one is a usage error
_REMOVED_KEYS = {
    ("", "threads"): "Monte Carlo draws one seeded stream",
    ("ft", "envelope"): "decay fits always run on the envelope of local maxima",
    ("generator", "input"): "name the point-set file with the top-level input key or --input",
}


@dataclass
class ExperimentConfig:
    """The fully merged, effective configuration of one experiment."""

    command: str
    sections: dict[str, dict[str, str]]
    seed: int
    out_dir: Path
    algorithm: str = "pruned"


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


def _merge_flag_overrides(sections: dict[str, dict[str, str]], overrides: dict[str, str]) -> None:
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, _, key = dotted.rpartition(".")
        sections.setdefault(section, {})[key] = str(value)


# typed getters; all failures name the offending field


def _get(sections, section, key, default=None, required=False) -> str | None:
    value = sections.get(section, {}).get(key)
    if value is None:
        if required:
            where = f"[{section}] {key}" if section else key
            raise UsageError(f"missing required field {where}")
        return default
    return value


def _typed(cast, expected: str):
    """A getter like `_get` that converts the value with cast."""

    def get(sections, section, key, default=None, required=False):
        raw = _get(sections, section, key, None, required)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise UsageError(f"field [{section}] {key}: expected {expected}, got {raw!r}") from None

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
            blocks.append(np.array([float(x) for x in part.split(";") if x != ""]))
        except ValueError:
            raise UsageError(f"field [ft] direction: bad block {part!r}") from None
    return FrequencyPoint(blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="configeo",
        description="point-configuration workbench: generators, counts, energies, "
        "scaling scans, Fourier decay, curvature certificates",
    )
    parser.add_argument("--version", action="version", version=f"configeo {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (flags override file values)")
    common.add_argument("--out", help="output directory (default: reports)")
    common.add_argument("--seed", type=int, help=f"seed (default: ${ENV_SEED} or 0)")
    common.add_argument("--algorithm", choices=("brute", "pruned"), help="counting algorithm")
    common.add_argument("--input", help="point-set file (alternative to [generator])")

    gen_flags = argparse.ArgumentParser(add_help=False)
    gen_flags.add_argument("--kind", dest="generator.kind")
    gen_flags.add_argument("--d", dest="generator.d")
    gen_flags.add_argument("--m", dest="generator.m")
    gen_flags.add_argument("--r", dest="generator.r")
    gen_flags.add_argument("--level", dest="generator.l")
    gen_flags.add_argument("--n", dest="generator.n")
    gen_flags.add_argument("--jitter", dest="generator.jitter")

    sub = parser.add_subparsers(dest="command")
    sub.add_parser("run", parents=[common], help="run the command named in the config file")
    sub.add_parser("gen", parents=[common, gen_flags], help="generate and save a point set")

    p_energy = sub.add_parser("energy", parents=[common, gen_flags], help="discrete energy report")
    p_energy.add_argument("--s", dest="energy.s")
    p_energy.add_argument("--s-grid", dest="energy.s_grid")
    p_energy.add_argument("--c", dest="energy.c")

    p_count = sub.add_parser("count", parents=[common, gen_flags], help="one counting run")
    p_count.add_argument("--family", dest="query.family")
    p_count.add_argument("--k", dest="query.k")
    p_count.add_argument("--t", dest="query.t")
    p_count.add_argument("--delta", dest="query.delta")
    p_count.add_argument("--convention", dest="query.convention")

    p_scan = sub.add_parser("scan", parents=[common, gen_flags], help="count-growth scan over n")
    p_scan.add_argument("--family", dest="scan.family")
    p_scan.add_argument("--k", dest="scan.k")
    p_scan.add_argument("--schedule", dest="scan.schedule")
    p_scan.add_argument("--s", dest="scan.s")
    p_scan.add_argument("--t", dest="scan.t")
    p_scan.add_argument("--delta", dest="scan.delta")
    p_scan.add_argument("--predicted", dest="scan.predicted")
    p_scan.add_argument("--c", dest="scan.c")
    p_scan.add_argument("--convention", dest="scan.convention")

    p_ft = sub.add_parser("ft", parents=[common], help="Fourier decay of a configuration measure")
    p_ft.add_argument("--kind", dest="ft.kind")
    p_ft.add_argument("--d", dest="ft.d")
    p_ft.add_argument("--direction", dest="ft.direction")
    p_ft.add_argument("--rmin", dest="ft.rmin")
    p_ft.add_argument("--rmax", dest="ft.rmax")
    p_ft.add_argument("--nradii", dest="ft.nradii")
    p_ft.add_argument("--radii", dest="ft.radii")
    p_ft.add_argument("--method", dest="ft.method")
    p_ft.add_argument("--epsilon", dest="ft.epsilon")
    p_ft.add_argument("--samples", dest="ft.samples")
    p_ft.add_argument("--nodes", dest="ft.nodes")
    p_ft.add_argument("--sphere-radii", dest="ft.sphere_radii")
    p_ft.add_argument("--gaps", dest="ft.gaps")
    p_ft.add_argument("--level", dest="ft.t")
    p_ft.add_argument("--cutoff", dest="ft.cutoff")

    p_curv = sub.add_parser("curvature", parents=[common], help="curvature/rank certificates")
    p_curv.add_argument("--check", dest="curvature.check")
    p_curv.add_argument("--d", dest="curvature.d")

    p_dim = sub.add_parser("dim", parents=[common, gen_flags], help="box-counting dimension")
    p_dim.add_argument("--scales", dest="dim.scales")

    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Flags plus optional config file into one effective configuration."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a command is required")

    sections: dict[str, dict[str, str]] = {"": {}}
    if ns.config:
        path = Path(ns.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        sections = parse_config_text(path.read_text(encoding="utf-8"), origin=str(path))

    overrides = {k: v for k, v in vars(ns).items() if "." in k}
    _merge_flag_overrides(sections, overrides)
    if ns.input is not None:
        sections[""]["input"] = ns.input

    command = ns.command
    if command == "run":
        command = _get(sections, "", "command", required=True)
        if command not in COMMANDS:
            raise UsageError(f"config names unknown command {command!r}")
    elif command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    sections[""]["command"] = command

    if ns.seed is not None:
        seed = int(ns.seed)
    elif _get(sections, "", "seed") is not None:
        seed = _get_int(sections, "", "seed")
    else:
        seed = int(os.environ.get(ENV_SEED, "0"))
    sections[""]["seed"] = str(seed)

    for (section, key), why in _REMOVED_KEYS.items():
        if _get(sections, section, key) is not None:
            name = f"[{section}] {key}" if section else key
            raise UsageError(f"config key {name} was removed: {why}")
    out_dir = Path(ns.out or _get(sections, "", "out", default="reports"))
    algorithm = ns.algorithm or _get(sections, "", "algorithm", default="pruned")
    if algorithm not in ("brute", "pruned"):
        raise UsageError(f"unknown algorithm {algorithm!r}")
    sections[""]["out"] = str(out_dir)
    sections[""]["algorithm"] = algorithm

    return ExperimentConfig(
        command=command,
        sections=sections,
        seed=seed,
        out_dir=out_dir,
        algorithm=algorithm,
    )


# ---------------------------------------------------------------------------
# shared output helpers


def _write_text(path: Path, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)


def _write_manifest(cfg: ExperimentConfig) -> Path:
    lines = [f"tool = configeo {__version__}"]
    for section in sorted(cfg.sections):
        for key in sorted(cfg.sections[section]):
            name = f"{section}.{key}" if section else key
            lines.append(f"{name} = {cfg.sections[section][key]}")
    path = cfg.out_dir / f"{cfg.command}_manifest.txt"
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _load_points(cfg: ExperimentConfig) -> PointSet:
    """The input point set: from `input = <path>` or the [generator] section."""
    sections = cfg.sections
    input_path = _get(sections, "", "input")
    if input_path:
        try:
            return load_pointset(input_path)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load point set {input_path!r}: {exc}") from exc
    return generate(_generator_spec(cfg, sized=True))


# generator kind -> (its size key in [generator], the GeneratorSpec parameter, seeded)
_GENERATOR_SIZES = {
    "lattice": ("m", "m", False),
    "cantor_product": ("l", "L", False),
    "homogeneous": ("m", "m", True),
    "uniform_random": ("n", "n", True),
    "coplanar": ("n", "n", True),
}


def _generator_spec(cfg: ExperimentConfig, sized: bool) -> GeneratorSpec:
    """The [generator] section; unsized, a scan template without a size key."""
    sections = cfg.sections
    kind = _get(sections, "generator", "kind", required=True)
    params = {"d": _get_int(sections, "generator", "d", required=True)}
    if kind not in _GENERATOR_SIZES:
        raise UsageError(f"unknown generator kind {kind!r}")
    if kind == "cantor_product":
        params["r"] = _get_float(sections, "generator", "r", required=True)
    if kind == "homogeneous":
        params["jitter"] = _get_float(sections, "generator", "jitter", 0.25)
    key, param, seeded = _GENERATOR_SIZES[kind]
    if not sized:
        if _get(sections, "generator", key) is not None:
            raise UsageError(
                f"field [generator] {key}: scans derive sizes from the schedule; drop this key"
            )
        return GeneratorSpec.make(kind, **params)
    params[param] = _get_int(sections, "generator", key, required=True)
    if seeded:
        params["seed"] = _get_int(sections, "generator", "seed", cfg.seed)
    return GeneratorSpec.make(kind, **params)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# commands


def _cmd_gen(cfg: ExperimentConfig) -> int:
    ps = generate(_generator_spec(cfg, sized=True))
    kind = _get(cfg.sections, "generator", "kind", required=True)
    path = cfg.out_dir / f"pointset_{kind}_d{ps.dim}_n{ps.n}_seed{cfg.seed}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_pointset(ps, path)
    print(f"gen: kind={kind} d={ps.dim} n={ps.n} -> {path}")
    return 0


def _cmd_energy(cfg: ExperimentConfig) -> int:
    ps = _load_points(cfg)
    sections = cfg.sections
    grid = _get_floats(sections, "energy", "s_grid")
    if grid is None:
        s = _get_float(sections, "energy", "s", required=True)
        grid = (s,)
    c_level = _get_float(sections, "energy", "c", DEFAULT_ADAPTABILITY_C)
    values = energy_profile(ps, grid)
    rows = ["s,n,value,adaptable_at,verdict"]
    for s, value in values:
        rows.append(
            f"{format_float(s)},{ps.n},{format_float(value)},"
            f"{format_float(c_level)},{_fmt_bool(value <= c_level)}"
        )
    tag = f"{ps.meta.generator}_d{ps.dim}_n{ps.n}_seed{cfg.seed}"
    path = cfg.out_dir / f"energy_{tag}.csv"
    _write_text(path, "\n".join(rows) + "\n")
    last = values[-1]
    print(f"energy: n={ps.n} s={last[0]:g} value={last[1]:.6g} C={c_level:g} -> {path}")
    return 0


def _family_k(sections, section: str, family: str, d: int) -> int:
    """k in dimension d: fixed by the family's row, else the section's k field."""
    fixed_k = family_row(family).fixed_k
    return _get_int(sections, section, "k", required=True) if fixed_k is None else fixed_k(d)


def _query_from_config(cfg: ExperimentConfig, d: int) -> ConfigQuery:
    sections = cfg.sections
    family = _get(sections, "query", "family", required=True)
    if family == "custom":
        raise UsageError("custom Phi queries are library-only (no config serialization)")
    convention = _get(sections, "query", "convention", "bare_determinant")
    delta = _get_float(sections, "query", "delta", required=True)
    t = _get_floats(sections, "query", "t", required=True)
    return ConfigQuery(family, _family_k(sections, "query", family, d), t, delta, convention)


def _cmd_count(cfg: ExperimentConfig) -> int:
    ps = _load_points(cfg)
    try:
        query = _query_from_config(cfg, ps.dim)
        report = run_query(ps, query, algorithm=cfg.algorithm)
    except ValueError as exc:
        raise UsageError(f"bad [query]: {exc}") from exc
    if report.seed is None:
        report = dataclasses.replace(report, seed=cfg.seed)
    body = "\n".join(
        [
            f"# generator={ps.meta.generator}",
            f"# seed={cfg.seed}",
            COUNT_CSV_HEADER,
            count_report_row(report),
        ]
    )
    path = cfg.out_dir / f"count_{query.family}_k{query.k}_d{ps.dim}_seed{cfg.seed}.csv"
    _write_text(path, body + "\n")
    print(
        f"count: family={query.family} k={query.k} n={ps.n} count={report.count} "
        f"algorithm={report.algorithm} elapsed={report.elapsed_seconds:.3f}s -> {path}"
    )
    return 0


def _cmd_scan(cfg: ExperimentConfig) -> int:
    sections = cfg.sections
    family = _get(sections, "scan", "family", required=True)
    if family == "custom":
        raise UsageError("custom Phi scans are library-only")
    generator = _generator_spec(cfg, sized=False)
    try:
        spec = ScanSpec(
            generator=generator,
            family=family,
            k=_family_k(sections, "scan", family, int(generator.as_dict()["d"])),
            schedule=_get_ints(sections, "scan", "schedule", required=True),
            seed=cfg.seed,
            s=_get_float(sections, "scan", "s"),
            t=_get_floats(sections, "scan", "t"),
            delta=_get_float(sections, "scan", "delta"),
            predicted=_get_float(sections, "scan", "predicted"),
            adaptability_C=_get_float(sections, "scan", "c", DEFAULT_ADAPTABILITY_C),
            algorithm=cfg.algorithm,
            volume_convention=_get(sections, "scan", "convention", "bare_determinant"),
        )
        report = run_scan(spec)
    except ValueError as exc:
        raise UsageError(f"bad [scan]: {exc}") from exc

    stag = format_float(report.s)
    base = f"scan_{report.family}_k{report.k}_d{report.d}_s{stag}_seed{report.seed}"
    csv_rows = ["n,delta,count"] + [
        f"{r.n},{format_float(r.delta)},{r.count}" for r in report.rows
    ]
    _write_text(cfg.out_dir / f"{base}.csv", "\n".join(csv_rows) + "\n")

    txt = [
        "scan report",
        f"family = {report.family}",
        f"k = {report.k}",
        f"d = {report.d}",
        f"s = {format_float(report.s)}",
        f"seed = {report.seed}",
        f"t = {';'.join(format_float(x) for x in report.t)}",
        f"predicted_exponent = {format_float(report.predicted)}",
        f"fitted_slope = {'' if report.fitted_slope is None else format_float(report.fitted_slope)}",
        f"stderr = {'' if report.stderr is None else format_float(report.stderr)}",
        f"verdict = {report.verdict}",
        "rows:",
    ]
    for r, e in zip(report.rows, report.energy):
        txt.append(
            f"  n={r.n} delta={format_float(r.delta)} count={r.count} "
            f"energy={format_float(e.value)} adaptable={_fmt_bool(e.verdict)}"
        )
    _write_text(cfg.out_dir / f"{base}.txt", "\n".join(txt) + "\n")

    slope_txt = "n/a" if report.fitted_slope is None else f"{report.fitted_slope:.4f}"
    print(
        f"scan: family={report.family} k={report.k} d={report.d} slope={slope_txt} "
        f"predicted={report.predicted:.4f} verdict={report.verdict} -> {cfg.out_dir / base}.txt"
    )
    return 1 if report.verdict == "inconclusive" else 0


def _measure_from_config(cfg: ExperimentConfig) -> MeasureSpec:
    sections = cfg.sections
    kind = _get(sections, "ft", "kind", required=True)
    try:
        if kind == "sphere":
            return MeasureSpec.sphere(_get_int(sections, "ft", "d", required=True))
        if kind == "triangle2d":
            return MeasureSpec.triangle2d()
        if kind == "chain_spheres":
            return MeasureSpec.chain_spheres(
                _get_int(sections, "ft", "d", required=True),
                radii=_get_floats(sections, "ft", "sphere_radii", (1.0, 1.0)),
                gaps=_get_floats(sections, "ft", "gaps", (1.0,)),
            )
        if kind == "determinant_variety":
            return MeasureSpec.determinant_variety(
                _get_int(sections, "ft", "d", required=True),
                t=_get_float(sections, "ft", "t", required=True),
                cutoff=_get_float(sections, "ft", "cutoff", 2.0),
            )
    except ValueError as exc:
        raise UsageError(f"bad [ft]: {exc}") from exc
    raise UsageError(f"unknown measure kind {kind!r}")


def _default_direction(spec: MeasureSpec) -> FrequencyPoint:
    """e1 in the first block; -e1 in the second when one exists (the paired
    frequency pattern the decay hypotheses quantify)."""
    dims = spec.block_dims
    blocks = [np.zeros(dlen) for dlen in dims]
    blocks[0][0] = 1.0
    if len(blocks) > 1:
        blocks[1][0] = -1.0
    return FrequencyPoint(blocks=tuple(blocks))


def _cmd_ft(cfg: ExperimentConfig) -> int:
    sections = cfg.sections
    spec = _measure_from_config(cfg)
    raw_dir = _get(sections, "ft", "direction")
    direction = _parse_direction(raw_dir) if raw_dir else _default_direction(spec)
    if not direction.matches(spec):
        raise UsageError("field [ft] direction: block shape does not match the measure")

    radii = _get_floats(sections, "ft", "radii")
    if radii is None:
        rmin = _get_float(sections, "ft", "rmin", required=True)
        rmax = _get_float(sections, "ft", "rmax", required=True)
        nradii = _get_int(sections, "ft", "nradii", 2000)
        radii = tuple(np.geomspace(rmin, rmax, nradii))

    default_method = "closed" if spec.kind in ("sphere", "triangle2d") else "mc"
    method = _get(sections, "ft", "method", default_method)

    if method == "closed":
        if spec.kind == "sphere":
            evaluator = lambda ps: [ft_sphere(spec.d, p.blocks[0]) for p in ps]  # noqa: E731
        elif spec.kind == "triangle2d":
            evaluator = lambda ps: [ft_triangle(p.blocks[0], p.blocks[1]) for p in ps]  # noqa: E731
        else:
            raise UsageError(f"no closed form for kind {spec.kind!r}; use method = mc")
    elif method == "quadrature":
        nodes = _get_int(sections, "ft", "nodes", 2048)
        evaluator = lambda ps: [ft_quadrature(spec, p.blocks[0], nodes) for p in ps]  # noqa: E731
    elif method == "mc":
        epsilon = _get_float(sections, "ft", "epsilon", 0.05)
        samples = _get_int(sections, "ft", "samples", 10**6)
        # one call per radius: perfbench's fourierlab.mc.samples adds the
        # `samples` argument of each call and its layer test pins that total,
        # so the ray goes in one call once the counter counts drawn samples
        evaluator = lambda ps: [  # noqa: E731
            ft_montecarlo(spec, [p], epsilon, samples, cfg.seed)[0] for p in ps
        ]
    else:
        raise UsageError(f"unknown ft method {method!r}")

    report = decay_fit(evaluator, direction, radii, reference=spec.reference_exponent)

    dir_txt = "|".join(";".join(format_float(x) for x in b) for b in report.direction.blocks)
    head = [
        f"# kind={spec.kind}",
        f"# d={spec.d}",
        f"# method={method}",
        f"# direction={dir_txt}",
        f"# fitted_exponent={'' if report.fitted_exponent is None else format_float(report.fitted_exponent)}",
        f"# stderr={'' if report.stderr is None else format_float(report.stderr)}",
        f"# reference_exponent={format_float(report.reference_exponent)}",
        f"# inconclusive={_fmt_bool(report.inconclusive)}",
        "radius,magnitude,stderr",
    ]
    errs = report.mc_error_bars or (0.0,) * len(report.radii)
    rows = [
        f"{format_float(r)},{format_float(m)},{format_float(e)}"
        for r, m, e in zip(report.radii, report.magnitudes, errs)
    ]
    path = cfg.out_dir / f"ft_{spec.kind}_d{spec.d}_{method}_seed{cfg.seed}.csv"
    _write_text(path, "\n".join(head + rows) + "\n")

    exp_txt = "n/a" if report.fitted_exponent is None else f"{report.fitted_exponent:.4f}"
    print(
        f"ft: kind={spec.kind} d={spec.d} method={method} exponent={exp_txt} "
        f"reference={report.reference_exponent:g} -> {path}"
    )
    return 1 if report.inconclusive else 0


def _rotated_block_form(d: int):
    """The nondegenerate paired form sum_j (x_{2j-1} y_{2j} - x_{2j} y_{2j-1})
    on R^{2d}; defined for even d."""
    if d % 2 != 0:
        raise UsageError("the rotated block form exists for even d only")

    def F(z: np.ndarray) -> float:
        x, y = z[:d], z[d:]
        total = 0.0
        for j in range(0, d, 2):
            total += x[j] * y[j + 1] - x[j + 1] * y[j]
        return total

    x0 = np.zeros(2 * d)
    x0[0] = 1.0
    x0[d + 1] = 1.0
    return F, x0


def _cmd_curvature(cfg: ExperimentConfig) -> int:
    sections = cfg.sections
    check = _get(sections, "curvature", "check", "suite")
    d = _get_int(sections, "curvature", "d", 3)
    lines = [f"curvature certificates (d={d})"]

    if check in ("circulant", "suite"):
        value = circulant_check(d)
        lines.append(f"circulant_det = {format_float(value)}")
        lines.append(f"circulant_nonzero = {_fmt_bool(value != 0.0)}")
    if check in ("detform", "suite"):
        if d % 2 == 0:
            F, x0 = _rotated_block_form(d)
            eigs = level_set_curvatures(F, 1.0, x0)
            lines.append(
                "detform_eigs = " + ";".join(format_float(x) for x in eigs)
            )
            lines.append(f"detform_nonzero = {nonzero_curvature_count(eigs)} of {2 * d - 1}")
        else:
            lines.append("detform_eigs = skipped (rotated form needs even d)")
    if check in ("phase", "suite"):
        if d >= 3:
            eta = np.zeros(d)
            eta[0], eta[-1] = 0.9, 0.3
            xi = np.zeros(d)
            xi[-1], xi[0] = 0.5, 0.2
            _, rank_generic = phase_hessian(d, xi, eta)
            _, rank_plane = phase_hessian(d, phase_plane_xi(eta, d), eta)
            a, b, c = phase_plane_form()
            disc = phase_plane_discriminant()
            lines.append(f"phase_rank_generic = {rank_generic} (floor {2 * (d - 2)})")
            lines.append(f"phase_rank_on_plane = {rank_plane} (floor {d - 1})")
            lines.append(
                "phase_plane_form = "
                + ";".join(format_float(x) for x in (a, b, c))
            )
            lines.append(f"phase_plane_discriminant = {format_float(disc)}")
            lines.append(f"phase_plane_discriminant_sign = {'+' if disc > 0 else '-'}")
        else:
            lines.append("phase_hessian = skipped (needs d >= 3)")
    if check not in ("circulant", "detform", "phase", "suite"):
        raise UsageError(f"unknown curvature check {check!r}")

    path = cfg.out_dir / f"curvature_{check}_d{d}.txt"
    _write_text(path, "\n".join(lines) + "\n")
    print(f"curvature: check={check} d={d} -> {path}")
    return 0


def _cmd_dim(cfg: ExperimentConfig) -> int:
    ps = _load_points(cfg)
    scales = _get_floats(cfg.sections, "dim", "scales", required=True)
    try:
        report = box_dim(ps, scales)
    except ValueError as exc:
        raise UsageError(f"bad [dim]: {exc}") from exc
    head = [
        f"# slope={format_float(report.slope)}",
        f"# stderr={format_float(report.stderr)}",
        f"# degenerate={_fmt_bool(report.degenerate)}",
        "scale,count",
    ]
    rows = [f"{format_float(s)},{c}" for s, c in zip(report.scales, report.counts)]
    tag = f"{ps.meta.generator}_d{ps.dim}_n{ps.n}_seed{cfg.seed}"
    path = cfg.out_dir / f"dim_{tag}.csv"
    _write_text(path, "\n".join(head + rows) + "\n")
    print(f"dim: n={ps.n} slope={report.slope:.4f} degenerate={report.degenerate} -> {path}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "energy": _cmd_energy,
    "count": _cmd_count,
    "scan": _cmd_scan,
    "ft": _cmd_ft,
    "curvature": _cmd_curvature,
    "dim": _cmd_dim,
}


def run(cfg: ExperimentConfig) -> int:
    """Run one command; the manifest is written only after it returns."""
    code = _DISPATCH[cfg.command](cfg)
    _write_manifest(cfg)
    return code


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as exc:
        print(f"configeo: error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"configeo: infeasible: {exc}", file=sys.stderr)
        return 1
    except ConfigeoError as exc:
        print(f"configeo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
