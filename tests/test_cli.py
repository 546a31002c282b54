import argparse
import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import configeo
from configeo import cli, configcount, expfit, fourierlab
from configeo.cli import (
    UsageError,
    main,
    parse_config,
    parse_config_text,
    run,
)
from configeo.fourierlab import MeasureSpec, ft_quadrature
from configeo.pointgen import PointSet, PointSetMeta, save_pointset

SQUARE_POINTS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


COUNT_CFG = """\
# minimal counting experiment
command = count
seed = 7

[generator]
kind = lattice
d = 2
m = 20

[query]
family = simplex
k = 1
t = 0.5
delta = 0.01
"""


def test_parse_config_text_minimal():
    sections = parse_config_text(COUNT_CFG)
    assert sections[""]["command"] == "count"
    assert sections["generator"]["kind"] == "lattice"
    assert sections["query"]["t"] == "0.5"


def test_parse_config_text_bad_line_names_position():
    with pytest.raises(UsageError, match=":2:"):
        parse_config_text("command = count\nthis is not a pair\n", origin="cfg")


def test_parse_config_builds_experiment(tmp_path):
    cfg_path = _write(tmp_path, "count.cfg", COUNT_CFG)
    cfg = parse_config(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert cfg.command == "count"
    assert cfg.seed == 7


def test_missing_field_names_the_field(tmp_path):
    cfg_path = _write(tmp_path, "bad.cfg", COUNT_CFG.replace("t = 0.5\n", ""))
    cfg = parse_config(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    with pytest.raises(UsageError, match=r"\[query\] t"):
        run(cfg)


def test_seed_precedence_flag_over_file_over_env(tmp_path):
    # the seed is --seed, else the seed key, else 0
    cfg_path = _write(tmp_path, "count.cfg", COUNT_CFG)
    cfg_path2 = _write(tmp_path, "noseed.cfg", COUNT_CFG.replace("seed = 7\n", ""))
    assert parse_config(["run", "--config", str(cfg_path)]).seed == 7
    assert parse_config(["run", "--config", str(cfg_path), "--seed", "42"]).seed == 42
    assert parse_config(["run", "--config", str(cfg_path2)]).seed == 0


def test_env_seed_changes_nothing(tmp_path, monkeypatch):
    # no environment variable is read, so CONFIGEO_SEED, valid or not,
    # changes no seed and no byte of a generated set
    cfg_path = _write(tmp_path, "count.cfg", COUNT_CFG)
    cfg_path2 = _write(tmp_path, "noseed.cfg", COUNT_CFG.replace("seed = 7\n", ""))
    gen = ["gen", "--kind", "uniform_random", "--d", "2", "--n", "5"]
    written = []
    for env in (None, "99", "abc"):
        if env is None:
            monkeypatch.delenv("CONFIGEO_SEED", raising=False)
        else:
            monkeypatch.setenv("CONFIGEO_SEED", env)
        assert parse_config(["run", "--config", str(cfg_path)]).seed == 7
        assert parse_config(["run", "--config", str(cfg_path2)]).seed == 0
        out = tmp_path / f"out_{env}"
        assert main(gen + ["--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir() if "manifest" not in p.name})
    assert list(written[0]) == ["pointset_uniform_random_d2_n5_seed0.txt"]
    assert written[1] == written[0] and written[2] == written[0]


def test_count_on_square_corners_file(tmp_path, capsys):
    pts = _write_square(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["count", "--input", str(pts), "--family", "simplex", "--k", "1",
         "--t", "1", "--delta", "0.01", "--out", str(out), "--seed", "0"]
    )
    assert code == 0
    body = (out / "count_simplex_k1_d2_seed0.csv").read_text()
    assert "family,k,d,n,t,delta,count,algorithm,elapsed_seconds,seed" in body
    assert "simplex,1,2,4,1,0.01,8,pruned,,0" in body
    assert "count=8" in capsys.readouterr().out


def _write_square(tmp_path):
    ps = PointSet(dim=2, points=SQUARE_POINTS)
    path = tmp_path / "square.txt"
    save_pointset(ps, path)
    return path


def test_scan_coplanar_volume_inconclusive_exit_1(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["scan", "--kind", "coplanar", "--d", "3", "--family", "volume",
         "--schedule", "20;40;80", "--s", "2", "--t", "0.2", "--delta", "0.05",
         "--out", str(out), "--seed", "1"]
    )
    assert code == 1
    body = (out / "scan_volume_k3_d3_s2_seed1.txt").read_text()
    assert "verdict = inconclusive" in body


def test_scan_lattice_writes_csv_and_text(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["scan", "--kind", "lattice", "--d", "2", "--family", "simplex", "--k", "1",
         "--schedule", "100;400;1600", "--s", "2", "--t", "0.5", "--out", str(out),
         "--seed", "0"]
    )
    assert code == 0
    csv_body = (out / "scan_simplex_k1_d2_s2_seed0.csv").read_text()
    assert csv_body.startswith("n,delta,count\n")
    assert len(csv_body.strip().splitlines()) == 4
    txt = (out / "scan_simplex_k1_d2_s2_seed0.txt").read_text()
    assert "verdict = consistent" in txt and "adaptable=" in txt


@pytest.mark.parametrize("key", ["m", "seed"])
def test_scan_rejects_size_keys(tmp_path, capsys, key):
    # scan step i is sized by the schedule and seeded with seed + i, so the
    # scan's generator template reads neither key and refuses it as unread
    cfg_path = _write(tmp_path, "scan.cfg", f"[generator]\nkind = homogeneous\nd = 2\n{key} = 10\n")
    out = tmp_path / "out"
    code = main(
        ["scan", "--config", str(cfg_path), "--family", "simplex", "--k", "1",
         "--schedule", "100;400;1600", "--s", "2", "--out", str(out)]
    )
    assert code == 2
    assert (f"field [generator] {key}: scan does not read it (it reads [generator] keys: d, jitter, kind)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_ft_sphere_decay(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["ft", "--kind", "sphere", "--d", "3", "--rmin", "10", "--rmax", "1000",
         "--nradii", "8000", "--out", str(out), "--seed", "2"]
    )
    assert code == 0
    body = (out / "ft_sphere_d3_closed_seed2.csv").read_text()
    exponent = float(
        next(line for line in body.splitlines() if line.startswith("# fitted_exponent="))
        .split("=", 1)[1]
    )
    assert abs(exponent - 1.0) <= 0.05
    assert "radius,magnitude,stderr" in body


def test_ft_quadrature_agrees_with_the_closed_form(tmp_path):
    # the quadrature oracle is a library reference, not an ft method: the
    # closed-form report agrees with it.  Quarter-odd radii: the magnitude
    # 2/r at d = 3, away from the zeros of sin(2 pi r)
    radii = [1.25, 2.25, 4.25, 6.25, 8.25, 12.75]
    args = ["ft", "--kind", "sphere", "--d", "3", "--radii", ";".join(map(str, radii))]
    assert main(args + ["--method", "quadrature", "--out", str(tmp_path / "q")]) == 2
    assert not (tmp_path / "q").exists()
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    lines = (tmp_path / "c" / "ft_sphere_d3_closed_seed0.csv").read_text().splitlines()[9:]
    closed = [float(line.split(",")[1]) for line in lines]
    quadrature = [abs(ft_quadrature(MeasureSpec.sphere(3), [r, 0.0, 0.0], 128)) for r in radii]
    assert len(closed) == 6 and quadrature == pytest.approx(closed, rel=1e-9, abs=1e-12)


def test_ft_mc_runs_and_is_seeded(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["ft", "--kind", "chain_spheres", "--d", "3", "--rmin", "2", "--rmax", "25",
            "--nradii", "6", "--method", "mc", "--epsilon", "0.05", "--samples", "20000",
            "--seed", "5"]
    assert main(args + ["--out", str(out1)]) in (0, 1)
    assert main(args + ["--out", str(out2)]) in (0, 1)
    name = "ft_chain_spheres_d3_mc_seed5.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_roundtrip(tmp_path):
    out = tmp_path / "out"
    code = main(["gen", "--kind", "cantor_product", "--d", "1", "--r", "0.4",
                 "--level", "3", "--out", str(out), "--seed", "0"])
    assert code == 0
    files = list(out.glob("pointset_*.txt"))
    assert len(files) == 1
    from configeo.pointgen import load_pointset

    ps = load_pointset(files[0])
    assert ps.n == 8 and ps.dim == 1


def test_energy_command(tmp_path):
    pts = _write_square(tmp_path)
    out = tmp_path / "out"
    code = main(["energy", "--input", str(pts), "--s-grid", "1", "--out", str(out), "--seed", "3"])
    assert code == 0
    body = (out / "energy_unknown_d2_n4_seed3.csv").read_text()
    assert body.splitlines()[0] == "s,n,value,adaptable_at,verdict"
    # square-corner energy at s=1: (8/1 + 4/sqrt(2)) / 16
    value = float(body.splitlines()[1].split(",")[2])
    assert value == pytest.approx((8.0 + 4.0 / 2.0**0.5) / 16.0, rel=1e-12)


def test_dim_command(tmp_path):
    out = tmp_path / "out"
    code = main(["dim", "--kind", "lattice", "--d", "2", "--m", "100",
                 "--scales", "0.25;0.125;0.0625;0.03125", "--out", str(out)])
    assert code == 0
    body = (out / "dim_lattice_d2_n10000_seed0.csv").read_text()
    assert "# slope=2" in body
    assert "# degenerate=false" in body


def test_curvature_command(tmp_path):
    out = tmp_path / "out"
    code = main(["curvature", "--d", "4", "--out", str(out)])
    assert code == 0
    body = (out / "curvature_suite_d4.txt").read_text()
    assert "circulant" not in body and "detform" not in body
    assert "volume_nonzero = 15 of 19" in body
    assert "area2_nonzero = 7 of 11" in body
    assert "angle_nonzero = 6 of 11" in body
    assert "phase_plane_discriminant_sign = -" in body


# one small report per shape, byte for byte: (argv, exit code, {file: body});
# SEEDED5 stands for the square corners saved with `# seed=5` in their header
GOLDEN_REPORTS = {
    "count": (
        ["count", "--input", "SEEDED5", "--family", "simplex", "--k", "1", "--t", "1",
         "--delta", "0.01", "--seed", "0"], 0,
        {"count_simplex_k1_d2_seed0.csv":
         "# generator=unknown\n# seed=0\n"
         "family,k,d,n,t,delta,count,algorithm,elapsed_seconds,seed\n"
         "simplex,1,2,4,1,0.01,8,pruned,,5\n"}),
    "energy": (
        ["energy", "--input", "SEEDED5", "--s-grid", "0.5;1;2", "--c", "0.7", "--seed", "0"], 0,
        {"energy_unknown_d2_n4_seed0.csv":
         "s,n,value,adaptable_at,verdict\n"
         "0.5,4,0.7102241038134286,0.69999999999999996,false\n"
         "1,4,0.67677669529663687,0.69999999999999996,true\n"
         "2,4,0.625,0.69999999999999996,true\n"}),
    "scan": (
        ["scan", "--kind", "coplanar", "--d", "3", "--family", "volume", "--schedule", "20;40;80",
         "--s", "2", "--t", "0.2", "--delta", "0.05", "--seed", "1"], 1,
        {"scan_volume_k3_d3_s2_seed1.csv":
         "n,delta,count\n20,0.050000000000000003,0\n40,0.050000000000000003,0\n"
         "80,0.050000000000000003,0\n",
         "scan_volume_k3_d3_s2_seed1.txt":
         "scan report\nfamily = volume\nk = 3\nd = 3\ns = 2\nseed = 1\nt = 0.20000000000000001\n"
         "predicted_exponent = 3.5\nfitted_slope = \nstderr = \nverdict = inconclusive\nrows:\n"
         "  n=20 delta=0.050000000000000003 count=0 energy=23.654663599603317 adaptable=false\n"
         "  n=40 delta=0.050000000000000003 count=0 energy=19.816765019897272 adaptable=false\n"
         "  n=80 delta=0.050000000000000003 count=0 energy=76.95070315075904 adaptable=false\n"}),
    "ft": (
        ["ft", "--kind", "triangle2d", "--direction", "1;0|-1;0.5", "--radii", "1;2;4;8;16;32"], 0,
        {"ft_triangle2d_d2_closed_seed0.csv":
         "# kind=triangle2d\n# d=2\n# method=closed\n"
         "# direction=0.66666666666666663;0|-0.66666666666666663;0.33333333333333331\n"
         "# fitted_exponent=-0.30027633713320595\n# stderr=0.2816270945872601\n"
         "# reference_exponent=0.5\n# inconclusive=false\nradius,magnitude,stderr\n"
         "1,0.50782569977185166,0\n2,0.15909372424072132,0\n4,1.5141864473153543,0\n"
         "8,0.0070196880390037686,0\n16,1.1675713064987976,0\n32,0.75684209490575283,0\n"}),
    "dim": (
        ["dim", "--kind", "lattice", "--d", "2", "--m", "8", "--scales", "0.5;0.25;0.125"], 0,
        {"dim_lattice_d2_n64_seed0.csv":
         "# slope=2\n# stderr=0\n# degenerate=false\nscale,count\n0.5,4\n0.25,16\n0.125,64\n"}),
    "curvature": (
        ["curvature", "--d", "4"], 0,
        {"curvature_suite_d4.txt":
         "curvature certificates (d=4)\n"
         "volume_eigs = -0.88388347650869836;-0.79056941533614289;-0.790569415336142;"
         "-0.79056941533614189;0.79056941435483474;0.79056941435483474;0.79056941435483363;"
         "-0.35355339040721812;-0.35355339040721789;-0.35355339040721767;0.3535533894259103;"
         "0.35355338942591014;-0.35355338942591008;-0.35355338942590991;0.35355338942590964;"
         "1.9140598451968825e-16;-1.6611818209775113e-16;-6.6380937928555007e-17;"
         "3.7209877495793822e-18\n"
         "volume_nonzero = 15 of 19\n"
         "area2_eigs = 1.4999999834824729;1.4999999834824724;-0.86602540058635147;"
         "0.86602539966116598;-0.75000000353735552;0.49999999696131908;0.49999999696131858;"
         "7.4014864770918144e-09;7.4014860312409233e-09;-3.7007436123722348e-09;"
         "-1.8503719013000006e-09\n"
         "area2_nonzero = 7 of 11\n"
         "angle_eigs = -1.5000000028221872;-1.4999999810803204;-1.4999999810803186;"
         "0.50000000001554346;0.49999999862776434;0.4999999986277639;-1.4802973923620856e-08;"
         "-1.4802973687582423e-08;-2.7755574543116577e-09;-1.3877786345933009e-09;"
         "-6.5150123619018384e-17\n"
         "angle_nonzero = 6 of 11\nphase_rank_generic = 5 (floor 4)\n"
         "phase_rank_on_plane = 4 (floor 3)\n"
         "phase_plane_form = -1.0000000000000007;8.8817841970012523e-16;-1.000000000000002\n"
         "phase_plane_discriminant = -4.0000000000000107\nphase_plane_discriminant_sign = -\n"}),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_REPORTS))
def test_golden_report_bytes(tmp_path, shape):
    argv, code, files = GOLDEN_REPORTS[shape]
    seeded = tmp_path / "seeded5.txt"
    save_pointset(PointSet(dim=2, points=SQUARE_POINTS, meta=PointSetMeta(seed=5)), seeded)
    out = tmp_path / "out"
    argv = [str(seeded) if arg == "SEEDED5" else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == code
    written = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
    assert written.pop(f"{argv[0]}_manifest.txt").startswith("tool = configeo ")
    assert written == files


def test_manifest_written(tmp_path):
    pts = _write_square(tmp_path)
    out = tmp_path / "out"
    main(["count", "--input", str(pts), "--family", "simplex", "--k", "1",
          "--t", "1", "--delta", "0.01", "--out", str(out), "--seed", "11"])
    manifest = (out / "count_manifest.txt").read_text()
    assert "tool = configeo" in manifest
    assert "seed = 11" in manifest
    assert "query.family = simplex" in manifest


def test_manifest_lists_only_keys_the_command_read(tmp_path):
    pts = _write_square(tmp_path)
    out = tmp_path / "out"
    cfg = parse_config(["count", "--input", str(pts), "--family", "simplex", "--k", "1",
                        "--t", "1", "--delta", "0.01", "--out", str(out), "--seed", "11"])
    assert run(cfg) == 0
    lines = (out / "count_manifest.txt").read_text().splitlines()
    assert lines[0].startswith("tool = configeo ")
    keys = {line.split(" = ")[0] for line in lines[1:]}
    assert keys <= {f"{section}.{key}" if section else key for section, key in cfg.read}
    assert keys == {"command", "out", "seed", "input",
                    "query.delta", "query.family", "query.k", "query.t"}


def test_rerun_byte_identical(tmp_path):
    pts = _write_square(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["count", "--input", str(pts), "--family", "simplex", "--k", "1",
            "--t", "1", "--delta", "0.01", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    name = "count_simplex_k1_d2_seed4.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the manifest embeds the effective config (including out), so compare
    # a literal rerun into the same directory
    before = (out1 / "count_manifest.txt").read_bytes()
    assert main(args + ["--out", str(out1)]) == 0
    assert (out1 / "count_manifest.txt").read_bytes() == before


def test_config_file_with_flag_override(tmp_path):
    cfg_path = _write(tmp_path, "count.cfg", COUNT_CFG)
    out = tmp_path / "out"
    code = main(["count", "--config", str(cfg_path), "--t", "1", "--m", "2",
                 "--out", str(out), "--seed", "7"])
    assert code == 0
    body = (out / "count_simplex_k1_d2_seed7.csv").read_text()
    assert "simplex,1,2,4,1,0.01,8,pruned,,7" in body  # t and m overridden


FT_SPHERE = ["ft", "--kind", "sphere", "--d", "3", "--rmin", "1", "--rmax", "20"]
FT_CHAIN = ["ft", "--kind", "chain_spheres", "--d", "3", "--rmin", "1", "--rmax", "20", "--nradii", "6"]
FT_DETERMINANT = ["ft", "--kind", "determinant_variety", "--samples", "10000", "--rmin", "1", "--rmax", "20"]
SCAN_D2 = ["scan", "--kind", "uniform_random", "--d", "2", "--schedule", "20;40;80", "--s", "2"]
COUNT_LATTICE = ["count", "--kind", "lattice", "--d", "2", "--m", "4", "--family", "simplex",
                 "--k", "1", "--t", "0.5", "--delta", "0.1"]
BAD_INPUTS = [
    (FT_SPHERE + ["--nradii", "3"], "bad [ft]: need at least 5 radii"),
    (FT_CHAIN + ["--epsilon", "0.5"], "bad [ft]: epsilon"),
    (FT_CHAIN + ["--samples", "100"], "bad [ft]: need at least 1e4 samples"),
    # the oracles are library references, not modes: no --algorithm, no
    # quadrature method and no --nodes
    (FT_SPHERE + ["--method", "quadrature"], "unknown ft method 'quadrature'"),
    (FT_SPHERE + ["--nodes", "64"], "unrecognized arguments: --nodes 64"),
    (COUNT_LATTICE + ["--algorithm", "brute"], "unrecognized arguments: --algorithm brute"),
    (SCAN_D2 + ["--family", "simplex", "--k", "1", "--algorithm", "pruned"],
     "unrecognized arguments: --algorithm pruned"),
    (["gen", "--kind", "lattice", "--d", "2", "--m", "3", "--algorithm", "brute"],
     "unrecognized arguments: --algorithm brute"),
    # a direction must be finite, and so must a determinant variety's level and cutoff
    (FT_SPHERE + ["--direction", "nan;0;0"],
     "field [ft] direction: bad block 'nan;0;0' (need finite numbers)"),
    (FT_SPHERE + ["--direction", "inf;0;0"],
     "field [ft] direction: bad block 'inf;0;0' (need finite numbers)"),
    (FT_SPHERE + ["--direction", "1;x;0"], "field [ft] direction: bad block '1;x;0' (need finite numbers)"),
    (FT_DETERMINANT + ["--level", "0.1", "--cutoff", "-1"],
     "bad [ft]: cutoff must be positive and finite, got cutoff=-1.0"),
    (FT_DETERMINANT + ["--level", "0.1", "--cutoff", "inf"],
     "bad [ft]: cutoff must be positive and finite, got cutoff=inf"),
    (FT_DETERMINANT + ["--level", "nan"], "bad [ft]: level must satisfy 0 < |t| < 1.5396"),
    # Gamma(d/2) overflows a float above d = 343: the closed form and the draw refuse
    (["ft", "--kind", "sphere", "--d", "344", "--rmin", "1", "--rmax", "10", "--nradii", "5"],
     "bad [ft]: sphere areas need 1 <= d <= 343, got d = 344"),
    (["ft", "--kind", "chain_spheres", "--d", "344", "--rmin", "1", "--rmax", "10", "--nradii", "5",
      "--samples", "10000"], "bad [ft]: sphere areas need 1 <= d <= 343, got d = 344"),
    (["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid=-1;1"], "bad [energy]: "),
    # an empty grid, and exponents that are not finite
    (["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid", ""],
     "bad [energy]: s_grid names no exponent"),
    (["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid", ";"],
     "bad [energy]: s_grid names no exponent"),
    (["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid", "1;nan"],
     "bad [energy]: s must be positive and finite, got s=nan"),
    (["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid", "inf"],
     "bad [energy]: s must be positive and finite, got s=inf"),
    (["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex", "--k", "1",
      "--schedule", "20;40;80", "--s", "nan"], "bad [scan]: s must be positive and finite, got s=nan"),
    (["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex", "--k", "1",
      "--schedule", "20;40;80", "--s", "inf", "--t", "0.5", "--predicted", "1.5"],
     "bad [scan]: s must be positive and finite, got s=inf"),
    (COUNT_LATTICE + ["--r", "0.3"],
     "field [generator] r: count does not read it (it reads [generator] keys: d, kind, m)"),
    (COUNT_LATTICE + ["--jitter", "0.1"], "field [generator] jitter"),
    (COUNT_LATTICE + ["--n", "99"], "field [generator] n"),
    (["count", "--kind", "uniform_random", "--d", "2", "--n", "9", "--jitter", "0.1", "--family",
      "simplex", "--k", "1", "--t", "0.5", "--delta", "0.1"], "field [generator] jitter"),
    (["dim", "--kind", "cantor_product", "--d", "2", "--r", "0.7", "--level", "2",
      "--scales", "0.5;0.25;0.125"], "bad [generator]: contraction ratio"),
    # one point-set source: the check comes before the file is read
    (["count", "--input", "points.txt", "--kind", "uniform_random", "--d", "3", "--n", "50",
      "--family", "simplex", "--k", "1", "--t", "0.5", "--delta", "0.1"],
     "input and [generator] d, kind, n both name a point set"),
    (["energy", "--input", "points.txt", "--kind", "lattice", "--s-grid", "1"],
     "input and [generator] kind both name a point set"),
    (["dim", "--input", "points.txt", "--m", "4", "--scales", "0.5;0.25;0.125"],
     "input and [generator] m both name a point set"),
    (["ft", "--kind", "triangle2d", "--d", "5", "--rmin", "1", "--rmax", "20"],
     "field [ft] d: ft does not read it (it reads [ft] keys: direction, kind, method, nradii, radii, "
     "rmax, rmin)"),
    (["ft", "--kind", "determinant_variety", "--d", "3", "--level", "0.2", "--rmin", "1", "--rmax", "20"],
     "field [ft] d: ft does not read it (it reads [ft] keys: cutoff, direction, epsilon, kind, method, "
     "nradii, radii, rmax, rmin, samples, t)"),
    (FT_SPHERE + ["--epsilon", "0.01", "--samples", "5"],
     "field [ft] epsilon: ft does not read it (it reads [ft] keys: d, direction, kind, method, "
     "nradii, radii, rmax, rmin)"),
    (FT_SPHERE + ["--radii", "1;2;5;10;20;50"],
     "field [ft] rmax: ft does not read it (it reads [ft] keys: d, direction, kind, method, radii)"),
    # the family fixes k
    (["count", "--kind", "lattice", "--d", "2", "--m", "4", "--family", "volume", "--k", "5",
      "--t", "0.5", "--delta", "0.1"],
     "field [query] k: count does not read it (it reads [query] keys: delta, family, t)"),
    # removed flags, and flag names are exact: no prefix stands for a flag
    (["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s", "1", "--s-grid", "1;2"],
     "unrecognized arguments: --s 1"),
    (["curvature", "--check", "suite"], "unrecognized arguments: --check suite"),
    (["count", "--kind", "lattice", "--d", "2", "--m", "4", "--fam", "simplex", "--k", "1", "--t", "0.5",
      "--delta", "0.1"], "unrecognized arguments: --fam simplex"),
    (["count", "--kind", "lattice", "--d", "2", "--m", "4", "--family", "custom", "--t", "0.5",
      "--delta", "0.1"], "bad [query]: family 'custom' is not one of simplex, volume, area2, angle"),
    (SCAN_D2 + ["--family", "custom"],
     "bad [scan]: family 'custom' is not one of simplex, volume, area2, angle"),
    (["curvature", "--d", "1"], "bad [curvature]: need d >= 2"),
    (["curvature", "--d", "0"], "bad [curvature]: need d >= 2"),
    (["curvature", "--d=-2"], "bad [curvature]: need d >= 2"),
]

# config files with keys their command does not read: (body, message)
UNREAD_CONFIGS = [
    (COUNT_CFG + "bogus = 7\n",
     "field [query] bogus: count does not read it (it reads [query] keys: delta, family, k, t)"),
    (COUNT_CFG + "bogus = 7\n[energy]\ns = 1\n",
     "field [energy] s: count does not read it (it reads [energy] keys: none)"),
    ("colour = red\n" + COUNT_CFG,
     "field colour: count does not read it (it reads top-level keys: command, input, out, seed)"),
    ("command = dim\n[generator]\nkind = lattice\nd = 2\nm = 4\n[dim]\nscales = 0.5;0.25;0.125\n"
     "foo = 1\n", "field [dim] foo: dim does not read it (it reads [dim] keys: scales)"),
    # scan and gen take no --input flag, and refuse the key from a file
    ("input = points.txt\ncommand = scan\n[generator]\nkind = lattice\nd = 2\n[scan]\n"
     "family = simplex\nk = 1\nschedule = 100;400;1600\ns = 2\nt = 0.5\n",
     "field input: scan does not read it (it reads top-level keys: command, out, seed)"),
    ("input = points.txt\ncommand = gen\n[generator]\nkind = lattice\nd = 2\nm = 3\n",
     "field input: gen does not read it (it reads top-level keys: command, out, seed)"),
]


def _bad_inputs(tmp_path):
    """BAD_INPUTS plus one `run --config` argv per UNREAD_CONFIGS body."""
    return BAD_INPUTS + [
        (["run", "--config", str(_write(tmp_path, f"unread{i}.cfg", body))], message)
        for i, (body, message) in enumerate(UNREAD_CONFIGS)
    ]


@pytest.mark.parametrize("body,message", [
    ("command = frobnicate\n", "config names unknown command 'frobnicate'"),
    ("algorithm = fast\n" + COUNT_CFG,
     "field algorithm: count does not read it (it reads top-level keys: command, input, out, seed)"),
    ("algorithm = pruned\n" + COUNT_CFG,
     "field algorithm: count does not read it (it reads top-level keys: command, input, out, seed)"),
    ("algorithm = brute\ncommand = gen\n[generator]\nkind = lattice\nd = 2\nm = 3\n",
     "field algorithm: gen does not read it (it reads top-level keys: command, out, seed)"),
])
def test_bad_run_config_exits_2(tmp_path, capsys, body, message):
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write(tmp_path, "run.cfg", body)), "--out", str(out)]) == 2
    assert f"configeo: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    # no generator/input
    assert main(["count", "--family", "simplex", "--out", str(tmp_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = _write(tmp_path, "bad.cfg", "command = count\nnot a pair\n")
    assert main(["run", "--config", str(bad)]) == 2
    nocmd = _write(tmp_path, "nocmd.cfg", "seed = 1\n")
    assert main(["run", "--config", str(nocmd)]) == 2
    unseeded = _write(tmp_path, "unseeded.cfg", "command = gen\n[generator]\nkind = lattice\n"
                                                "d = 2\nm = 3\nseed = 5\n")
    assert main(["run", "--config", str(unseeded), "--out", str(tmp_path)]) == 2
    assert ("field [generator] seed: gen does not read it (it reads [generator] keys: d, kind, m)"
            in capsys.readouterr().err)
    for argv, message in _bad_inputs(tmp_path):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2, argv
        assert f"configeo: error: {message}" in capsys.readouterr().err, argv
    assert not (tmp_path / "out").exists()


def test_failed_command_leaves_no_artefacts(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["count", "--family", "simplex", "--out", str(out)]) == 2
    assert main(["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex",
                 "--k", "3", "--schedule", "20;40;80", "--out", str(out)]) == 2
    for argv, _ in _bad_inputs(tmp_path):
        assert main(argv + ["--out", str(out)]) == 2, argv
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv,kernel", [
    (COUNT_LATTICE + ["--r", "0.3"], "run_query"),
    (SCAN_D2 + ["--family", "angle", "--k", "3"], "run_scan"),
    (["energy", "--config", "energy.cfg", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid", "1;2"],
     "energy_profile"),  # energy.cfg holds the removed key [energy] s
    (FT_CHAIN + ["--cutoff", "2"], "decay_fit"),
    (["dim", "--kind", "lattice", "--d", "2", "--m", "4", "--n", "9", "--scales", "0.5;0.25;0.125"],
     "box_dim"),
    # curvature takes no --input; at d = 4 each family row calls the kernel
    (["curvature", "--config", "input.cfg", "--d", "4"], "level_set_curvatures"),
])
def test_unread_key_refused_before_the_kernel_runs(tmp_path, monkeypatch, argv, kernel):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "input.cfg", "input = points.txt\n")
    _write(tmp_path, "energy.cfg", "[energy]\ns = 1\n")
    calls = []
    original = getattr(cli, kernel)
    monkeypatch.setattr(cli, kernel, lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


# the [section] keys each point-set command reads, in full
POINT_SET_KEYS = {"count": ("query", "family = simplex\nk = 1\nt = 0.5\ndelta = 0.1\n"),
                  "energy": ("energy", "s_grid = 1\n"),
                  "dim": ("dim", "scales = 0.5;0.25;0.125\n")}


@pytest.mark.parametrize("source", ["generator", "input"])
@pytest.mark.parametrize("command", sorted(POINT_SET_KEYS))
def test_unread_key_refused_before_any_point_set_is_built(tmp_path, monkeypatch, capsys, command, source):
    # a command reads its point set last, so one misspelled key is refused
    # before the [generator] set is generated or the input file is parsed
    calls = []
    for name in ("generate", "load_pointset"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    head = (f"input = {_write_square(tmp_path)}\n" if source == "input"
            else "[generator]\nkind = lattice\nd = 2\nm = 4\n")
    section, keys = POINT_SET_KEYS[command]
    body = f"command = {command}\n{head}[{section}]\n{keys}bogus = 1\n"
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write(tmp_path, "unread.cfg", body)), "--out", str(out)]) == 2
    assert f"configeo: error: field [{section}] bogus: {command} does not read it" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["count", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["count", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
], ids=["no-command", "unknown-command", "unknown-flag", "bad-seed"])
def test_bad_command_line_returns_2(capsys, argv, message):
    # argparse's errors are usage errors too: main returns 2, it does not exit
    assert main(argv) == 2
    assert f"configeo: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("make,message", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"command = gen\n# \xe9\n"), "can't decode byte 0xe9"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, make, message):
    path = tmp_path / "run.cfg"
    make(path)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"configeo: error: cannot read config file {path}: " in err and message in err


def test_config_command_agrees_with_the_subcommand(tmp_path, capsys):
    cfg_path = _write(tmp_path, "dim.cfg", "command = dim\n[generator]\nkind = lattice\nd = 2\nm = 4\n")
    out = tmp_path / "out"
    assert main(["energy", "--config", str(cfg_path), "--s-grid", "1", "--out", str(out)]) == 2
    assert "configeo: error: config names command 'dim', not energy" in capsys.readouterr().err
    assert not out.exists()
    assert main(["dim", "--config", str(cfg_path), "--scales", "0.5;0.25;0.125", "--out", str(out)]) == 0
    assert "command = dim" in (out / "dim_manifest.txt").read_text().splitlines()


def test_scan_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "out")
    assert main(SCAN_D2 + ["--family", "simplex", "--k", "3", "--out", out]) == 2  # k > d
    assert main(SCAN_D2 + ["--family", "simplex", "--out", out]) == 2  # simplex needs k
    assert main(SCAN_D2 + ["--family", "nope", "--out", out]) == 2
    assert main(SCAN_D2 + ["--family", "angle", "--delta", "nan", "--out", out]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", ["volume", "area2", "angle"])
def test_scan_takes_k_from_the_family(tmp_path, capsys, family):
    out = tmp_path / "out"
    # the family fixes k, so the scan does not read a --k
    assert main(SCAN_D2 + ["--family", family, "--k", "3", "--out", str(out)]) == 2
    assert "field [scan] k: scan does not read it" in capsys.readouterr().err
    assert not out.exists()
    assert main(SCAN_D2 + ["--family", family, "--out", str(out)]) in (0, 1)
    assert (out / f"scan_{family}_k2_d2_s2_seed0.txt").exists()


@pytest.mark.parametrize("flags", [["--family", "simplex", "--k", "1", "--t", "0.5", "--delta", "nan"],
                                   ["--family", "volume", "--t", "inf", "--delta", "0.1"]])
def test_non_finite_query_exit_2(tmp_path, flags):
    pts = _write_square(tmp_path)
    assert main(["count", "--input", str(pts), *flags, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("c", ["0", "-5", "nan", "inf"])
@pytest.mark.parametrize("argv", [["energy", "--kind", "lattice", "--d", "2", "--m", "4", "--s-grid", "1"],
                                  SCAN_D2 + ["--family", "angle"]], ids=["energy", "scan"])
def test_bad_adaptability_level_exit_2(tmp_path, capsys, argv, c):
    out = tmp_path / "out"
    assert main(argv + [f"--c={c}", "--out", str(out)]) == 2
    message = f"bad [{argv[0]}]: C must be positive and finite, got C={float(c):g}"
    assert f"configeo: error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_ft_over_the_sample_budget_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(FT_CHAIN + ["--samples", "10000000000", "--out", str(out)]) == 1
    assert "configeo: error: 10000000000 samples are over the Monte Carlo budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    # 6 radii of 2 x 10^7 samples, each call under the budget of 10^8
    (FT_CHAIN + ["--samples", "20000000"],
     "20000000 samples are over the Monte Carlo budget of 100000000 at 6 radii (120000000 in all)"),
    (FT_SPHERE + ["--nradii", "100000000"], "100000000 radii are over the ft budget of 100000"),
    (FT_CHAIN[:-1] + ["100000000", "--samples", "10000"],
     "100000000 radii are over the ft budget of 100000"),
    (FT_CHAIN[:-1] + ["100000"], "1000000 samples are over the Monte Carlo budget of 100000000 at "
     "100000 radii (100000000000 in all)"),
])
def test_ft_ray_over_its_budget_exits_1_before_any_evaluation(tmp_path, monkeypatch, capsys, argv, message):
    # refused before the radii are built, so a huge nradii costs nothing
    monkeypatch.setattr(cli, "ft_montecarlo", lambda *args: pytest.fail("the ray was evaluated"))
    monkeypatch.setattr(cli.np, "geomspace", lambda *args: pytest.fail("the radii were built"))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 1
    assert time.perf_counter() - start < 0.5
    assert f"configeo: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("direction,norm", [("1e200;0;0", "1e+200"), ("1e-200;0;0", "1e-200"),
                                            ("1e-160;0;0", "1e-160")])
def test_ft_direction_whose_square_leaves_the_floats_exits_2(tmp_path, capsys, recwarn, direction, norm):
    # the directions are finite and nonzero, but their squares overflow,
    # underflow or are subnormal, so that the unit vector would lose digits
    # (1e-160 gave direction=1.0000055664551362;0;0): the norm is stated, and
    # no warning or report is made
    out = tmp_path / "out"
    assert main(FT_SPHERE + ["--nradii", "6", "--direction", direction, "--out", str(out)]) == 2
    assert (f"configeo: error: bad [ft]: direction norm {norm} is out of range: its square must be a "
            "positive finite float") in capsys.readouterr().err
    assert not out.exists()
    assert [str(w.message) for w in recwarn] == []


def test_ft_ray_budget_admits_survey_dense():
    assert 24 * 400_000 <= cli.MC_SAMPLE_BUDGET


@pytest.mark.parametrize("argv", [FT_CHAIN[:-2], FT_SPHERE])  # Monte Carlo, closed form
def test_bare_ft_ray_runs_at_the_default_12_radii(tmp_path, monkeypatch, argv):
    radii = []

    def montecarlo(spec, points, epsilon, samples, seed):
        radii.extend(p.norm for p in points)
        return [(1.0 / p.norm, 0.0) for p in points]

    def closed(d, xi):  # one call per ray, on its (radii, d) stack
        norms = np.linalg.norm(xi, axis=-1)
        radii.extend(norms)
        return 1.0 / norms

    monkeypatch.setattr(cli, "ft_montecarlo", montecarlo)
    monkeypatch.setattr(fourierlab, "ft_sphere", closed)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(radii) == 12


@pytest.mark.parametrize("family", ["simplex", "volume", "area2", "angle"])
@pytest.mark.parametrize("command", ["count", "scan"])
def test_convention_flag_and_key_exit_2(tmp_path, monkeypatch, capsys, command, family):
    # every count is in its map's own units: --convention is no flag, and a
    # convention key is unread, so both exit 2 before any point set is made
    for module in (cli, expfit):
        monkeypatch.setattr(module, "generate", lambda spec: pytest.fail("generated a point set"))
    keys = {"family": family, "k": "1", "t": "0.5"}
    if family != "simplex":  # the row fixes k
        del keys["k"]
    if command == "count":
        section, keys["delta"], path = "query", "0.1", _write_square(tmp_path)
        flags, head = ["--input", str(path)], f"input = {path}\n"
    else:
        section, keys["schedule"], keys["s"] = "scan", "20;40;80", "2"
        flags, head = ["--kind", "uniform_random", "--d", "2"], "[generator]\nkind = uniform_random\nd = 2\n"
    out = tmp_path / "out"
    assert main([command] + flags + [f"--{key}={value}" for key, value in keys.items()]
                + ["--convention", "simplex", "--out", str(out)]) == 2
    assert "configeo: error: unrecognized arguments: --convention simplex" in capsys.readouterr().err
    body = (f"command = {command}\n{head}[{section}]\n"
            + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "convention = simplex\n")
    assert main(["run", "--config", str(_write(tmp_path, "convention.cfg", body)), "--out", str(out)]) == 2
    assert f"field [{section}] convention: {command} does not read it" in capsys.readouterr().err
    assert not out.exists()


def test_scan_steps_that_make_one_point_set_exit_2(tmp_path, monkeypatch, capsys):
    # n = 250 and 260 both round to a 16 x 16 lattice, which the fit would count twice
    monkeypatch.setattr(expfit, "generate", lambda spec: pytest.fail("generated a point set"))
    out = tmp_path / "out"
    assert main(["scan", "--kind", "lattice", "--d", "2", "--family", "simplex", "--k", "1",
                 "--schedule", "250;260;1000;1100", "--t", "0.3", "--out", str(out)]) == 2
    assert ("schedule steps n=250 and n=260 make the same lattice set, m=16"
            in capsys.readouterr().err)
    assert not out.exists()


def test_curvature_over_the_dimension_budget_exits_1(tmp_path, monkeypatch, capsys):
    # the volume row's level set lies in R^(d(d+1)), over CURVATURE_MAX_N = 72 from d = 9 on:
    # refused before any row's map is evaluated, and at once even where its base tuple of
    # d(d+1) floats would not fit in memory
    built = []
    for name in ("volume", "area2", "angle"):
        row = configcount.FAMILIES[name]
        monkeypatch.setitem(configcount.FAMILIES, name, dataclasses.replace(
            row, config_map=lambda tuples, f=row.config_map: built.append(len(tuples)) or f(tuples)))
    out = tmp_path / "out"
    for d in (9, 10**6):
        start = time.perf_counter()
        assert main(["curvature", "--d", str(d), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 0.5
        assert (f"configeo: error: curvature d = {d}: the volume row's level set in R^{d * (d + 1)} is "
                "over the curvature budget of N = 72") in capsys.readouterr().err
        assert built == [] and not out.exists()
    assert main(["curvature", "--d", "2", "--out", str(out)]) == 0  # the spies see each row's one call
    assert built == [2 * 6**2 + 1] * 3


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, monkeypatch, capsys, under):
    # refused before the command parses a key or runs its job, and the file is kept
    path = _write(tmp_path, "report.txt", "kept\n")
    row = cli.COMMANDS["curvature"]
    monkeypatch.setitem(cli.COMMANDS, "curvature",
                        dataclasses.replace(row, parse=lambda cfg: pytest.fail("the command ran")))
    out = path / under if under else path
    assert main(["curvature", "--d", "3", "--out", str(out)]) == 2
    assert (f"configeo: error: output directory {out}: {path} is not a directory"
            in capsys.readouterr().err)
    assert path.read_text() == "kept\n"


def test_point_set_file_over_the_budget_exits_1(tmp_path, capsys):
    # like an oversize generator: refused from the header, before any row is read
    path = _write(tmp_path, "points.txt", "pointset v1 d=2 n=1000001\n0 0\n")
    out = tmp_path / "out"
    assert main(["dim", "--input", str(path), "--scales", "0.5;0.25;0.125", "--out", str(out)]) == 1
    assert ("configeo: error: requested 1000001 points exceeds the budget of 1000000"
            in capsys.readouterr().err)
    assert not out.exists()


def test_threads_key_removed(tmp_path, capsys):
    cfg_path = _write(tmp_path, "count.cfg", "threads = 2\n" + COUNT_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert ("field threads: count does not read it (it reads top-level keys: command, input, out, "
            "seed)") in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(UsageError, match="unrecognized arguments: --threads 2"):
        parse_config(["count", "--threads", "2"])


@pytest.mark.parametrize("body,name", [
    ("command = ft\n[ft]\nkind = sphere\nd = 3\nenvelope = false\nrmin = 1\nrmax = 20\n", "[ft] envelope"),
    # the [generator] section reopened after [dim]
    ("command = dim\n[generator]\ninput = points.txt\n[dim]\nscales = 0.5;0.25;0.125\n"
     "[generator]\nkind = lattice\nd = 2\nm = 4\n", "[generator] input"),
])
def test_removed_config_keys(tmp_path, body, name):
    # a key no command reads any more is refused as unread, before the job runs
    out = tmp_path / "out"
    cfg = parse_config(["run", "--config", str(_write(tmp_path, "removed.cfg", body)), "--out", str(out)])
    with pytest.raises(UsageError, match=re.escape(f"field {name}: {cfg.command} does not read it")):
        run(cfg)
    assert not out.exists()


def test_envelope_flag_removed():
    with pytest.raises(UsageError, match="unrecognized arguments: --envelope 0"):
        parse_config(["ft", "--envelope", "0"])


# every option string of each subcommand -> its dest; no flag has choices
COMMON_FLAGS = {"-h": "help", "--help": "help", "--config": "config", "--out": "out", "--seed": "seed"}
INPUT_FLAG = {"--input": "input"}  # only the commands that may read a point-set file
GENERATOR_FLAGS = {"--kind": "generator.kind", "--d": "generator.d", "--m": "generator.m",
                   "--r": "generator.r", "--level": "generator.l", "--n": "generator.n",
                   "--jitter": "generator.jitter"}
FLAG_SURFACE = {
    "run": COMMON_FLAGS | INPUT_FLAG,
    "gen": COMMON_FLAGS | GENERATOR_FLAGS,
    "energy": COMMON_FLAGS | INPUT_FLAG | GENERATOR_FLAGS | {
        "--s-grid": "energy.s_grid", "--c": "energy.c"},
    "count": COMMON_FLAGS | INPUT_FLAG | GENERATOR_FLAGS | {
        "--family": "query.family", "--k": "query.k", "--t": "query.t", "--delta": "query.delta"},
    "scan": COMMON_FLAGS | GENERATOR_FLAGS | {
        "--family": "scan.family", "--k": "scan.k",
        "--schedule": "scan.schedule", "--s": "scan.s", "--t": "scan.t", "--delta": "scan.delta",
        "--predicted": "scan.predicted", "--c": "scan.c"},
    "ft": COMMON_FLAGS | {
        "--kind": "ft.kind", "--d": "ft.d", "--direction": "ft.direction", "--rmin": "ft.rmin",
        "--rmax": "ft.rmax", "--nradii": "ft.nradii", "--radii": "ft.radii", "--method": "ft.method",
        "--epsilon": "ft.epsilon", "--samples": "ft.samples",
        "--sphere-radii": "ft.sphere_radii", "--gaps": "ft.gaps", "--level": "ft.t",
        "--cutoff": "ft.cutoff"},
    "curvature": COMMON_FLAGS | {"--d": "curvature.d"},
    "dim": COMMON_FLAGS | INPUT_FLAG | GENERATOR_FLAGS | {"--scales": "dim.scales"},
}


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_surface():
    # with no prefix matching (allow_abbrev off), these option strings are
    # the whole surface
    subparsers = _subparsers()
    assert list(subparsers) == list(FLAG_SURFACE)
    assert not cli.build_parser().allow_abbrev
    for command, sub in subparsers.items():
        assert not sub.allow_abbrev, command
        flags = {option: action for action in sub._actions for option in action.option_strings}
        assert {option: action.dest for option, action in flags.items()} == FLAG_SURFACE[command]
        for option, action in flags.items():
            assert action.choices is None, (command, option)


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert all(option in usage for option in FLAG_SURFACE[command])


def test_console_entry_point(tmp_path):
    # the package's src directory on the child's path, as pytest's pythonpath
    # setting puts it on this interpreter's only
    src = str(Path(configeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "configeo.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "configeo" in proc.stdout
