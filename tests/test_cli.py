import re
import subprocess
import sys

import pytest

from configeo.cli import (
    UsageError,
    main,
    parse_config,
    parse_config_text,
    run,
)
from configeo.pointgen import PointSet, save_pointset

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
    assert cfg.algorithm == "pruned"


def test_missing_field_names_the_field(tmp_path):
    cfg_path = _write(tmp_path, "bad.cfg", COUNT_CFG.replace("t = 0.5\n", ""))
    cfg = parse_config(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    with pytest.raises(UsageError, match=r"\[query\] t"):
        run(cfg)


def test_seed_precedence_flag_over_file_over_env(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, "count.cfg", COUNT_CFG)
    monkeypatch.setenv("CONFIGEO_SEED", "99")
    assert parse_config(["run", "--config", str(cfg_path)]).seed == 7  # file beats env
    assert parse_config(["run", "--config", str(cfg_path), "--seed", "42"]).seed == 42
    cfg_path2 = _write(tmp_path, "noseed.cfg", COUNT_CFG.replace("seed = 7\n", ""))
    assert parse_config(["run", "--config", str(cfg_path2)]).seed == 99  # env fallback


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
        ["scan", "--kind", "coplanar", "--d", "3", "--family", "volume", "--k", "3",
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


def test_scan_rejects_size_keys(tmp_path):
    code = main(
        ["scan", "--kind", "lattice", "--d", "2", "--m", "10", "--family", "simplex",
         "--k", "1", "--schedule", "100;400;1600", "--s", "2", "--out", str(tmp_path)]
    )
    assert code == 2


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
    code = main(["energy", "--input", str(pts), "--s", "1", "--out", str(out), "--seed", "3"])
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
    code = main(["curvature", "--check", "suite", "--d", "4", "--out", str(out)])
    assert code == 0
    body = (out / "curvature_suite_d4.txt").read_text()
    assert "circulant_nonzero = true" in body
    assert "detform_nonzero = 7 of 7" in body
    assert "phase_plane_discriminant_sign = +" in body


def test_manifest_written(tmp_path):
    pts = _write_square(tmp_path)
    out = tmp_path / "out"
    main(["count", "--input", str(pts), "--family", "simplex", "--k", "1",
          "--t", "1", "--delta", "0.01", "--out", str(out), "--seed", "11"])
    manifest = (out / "count_manifest.txt").read_text()
    assert "tool = configeo" in manifest
    assert "seed = 11" in manifest
    assert "query.family = simplex" in manifest


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


def test_usage_errors_exit_2(tmp_path):
    # no generator/input
    assert main(["count", "--family", "simplex", "--out", str(tmp_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = _write(tmp_path, "bad.cfg", "command = count\nnot a pair\n")
    assert main(["run", "--config", str(bad)]) == 2
    nocmd = _write(tmp_path, "nocmd.cfg", "seed = 1\n")
    assert main(["run", "--config", str(nocmd)]) == 2


def test_failed_command_leaves_no_artefacts(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["count", "--family", "simplex", "--out", str(out)]) == 2
    assert main(["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex",
                 "--k", "3", "--schedule", "20;40;80", "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


SCAN_D2 = ["scan", "--kind", "uniform_random", "--d", "2", "--schedule", "20;40;80", "--s", "2"]


def test_scan_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "out")
    assert main(SCAN_D2 + ["--family", "simplex", "--k", "3", "--out", out]) == 2  # k > d
    assert main(SCAN_D2 + ["--family", "simplex", "--out", out]) == 2  # simplex needs k
    assert main(SCAN_D2 + ["--family", "nope", "--out", out]) == 2
    assert main(SCAN_D2 + ["--family", "angle", "--delta", "nan", "--out", out]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", ["volume", "area2", "angle"])
def test_scan_takes_k_from_the_family(tmp_path, family):
    out = tmp_path / "out"
    # a stray --k is ignored, as count ignores it
    assert main(SCAN_D2 + ["--family", family, "--k", "3", "--out", str(out)]) in (0, 1)
    assert (out / f"scan_{family}_k2_d2_s2_seed0.txt").exists()


@pytest.mark.parametrize("flags", [["--family", "simplex", "--k", "1", "--t", "0.5", "--delta", "nan"],
                                   ["--family", "volume", "--t", "inf", "--delta", "0.1"]])
def test_non_finite_query_exit_2(tmp_path, flags):
    pts = _write_square(tmp_path)
    assert main(["count", "--input", str(pts), *flags, "--out", str(tmp_path / "out")]) == 2


def test_threads_key_removed(tmp_path):
    cfg_path = _write(tmp_path, "count.cfg", "threads = 2\n" + COUNT_CFG)
    with pytest.raises(UsageError, match="threads"):
        parse_config(["run", "--config", str(cfg_path)])
    with pytest.raises(SystemExit):
        parse_config(["count", "--threads", "2"])


@pytest.mark.parametrize("body,name", [
    ("command = ft\n[ft]\nkind = sphere\nd = 3\nenvelope = false\n", "[ft] envelope"),
    ("command = dim\n[generator]\ninput = points.txt\n[dim]\nscales = 0.5;0.25;0.125\n", "[generator] input"),
])
def test_removed_config_keys(tmp_path, body, name):
    cfg_path = _write(tmp_path, "removed.cfg", body)
    with pytest.raises(UsageError, match=re.escape(f"config key {name} was removed")):
        parse_config(["run", "--config", str(cfg_path)])


def test_envelope_flag_removed():
    with pytest.raises(SystemExit):
        parse_config(["ft", "--envelope", "0"])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "configeo.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "configeo" in proc.stdout
