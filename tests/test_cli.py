import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from spectral_embed import charts as charts_mod
from spectral_embed.cli import ConfigError, RunConfig, main
from spectral_embed.manifold import make_sphere
from spectral_embed.spectrum import EigensolverError


CIRCLE_CFG = """
# circle test configuration
manifold.kind = circle
manifold.length = 6.283185307179586
manifold.samples = 2048
spectrum.count = 60
embed.map = G
embed.delta = 0.3
embed.t = 0.1
embed.h_near = 0.05
embed.h_far = 1.0
embed.pairs = 80
bounds.iota = 3.141592653589793
bounds.a = 17.07946844534713
bounds.c = 1.0
bounds.r_h = 1.0
seed = 0
"""

SUMMARY_RE = re.compile(r"^[a-z0-9_]+=[^=]+$")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunConfig:
    def test_round_trip_equality(self):
        cfg = RunConfig.parse(CIRCLE_CFG)
        again = RunConfig.parse(cfg.dump())
        assert cfg == again

    def test_comments_and_blanks_ignored(self):
        cfg = RunConfig.parse("a.b = 1 # trailing\n\n# full line\nc = x\n")
        assert cfg.entries == {"a.b": "1", "c": "x"}

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3"):
            RunConfig.parse("a = 1\nb = 2\nnot a pair\n", origin="f")

    def test_typed_getters(self):
        cfg = RunConfig.parse("x = 1.5\nn = 7\nlist = 1,2,3\n")
        assert cfg.get_float("x") == 1.5
        assert cfg.get_int("n") == 7
        assert cfg.get_floats("list") == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError, match="missing"):
            cfg.get_float("absent")
        with pytest.raises(ConfigError, match="bad float"):
            cfg.get_float("list")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_floats_rejected(self, raw):
        cfg = RunConfig.parse(f"x = {raw}\nlist = 1,{raw}\n")
        with pytest.raises(ConfigError, match="non-finite"):
            cfg.get_float("x")
        with pytest.raises(ConfigError, match="non-finite"):
            cfg.get_floats("list")


class TestExitCodes:
    def test_unknown_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["bogus", "--config", cfg]) == 2

    def test_unknown_verify_target(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["verify", "bogus", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["spectrum", "--config",
                     str(tmp_path / "absent.cfg")]) == 2

    def test_config_parse_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "broken line without equals\n")
        assert main(["spectrum", "--config", cfg]) == 2

    def test_missing_mesh_input(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "manifold.kind = mesh\nmanifold.path = nope.off\n")
        assert main(["spectrum", "--config", cfg]) == 2

    def test_non_finite_periods_exit_promptly(self, tmp_path):
        # a NaN period once sent the lattice-mode enumeration into a loop
        cfg = write_cfg(tmp_path, "manifold.kind = torus\n"
                        "manifold.periods = 1,nan\nspectrum.count = 8\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_embed.cli", "spectrum",
             "--config", cfg, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert "non-finite" in proc.stderr

    @pytest.mark.parametrize("line, message", [
        ("embed.delta = -1", "embed.delta must be positive"),
        ("embed.map = Q", "unknown embed.map 'Q'"),
        ("embed.levels = 0", "embed.levels must be at least 1"),
        ("embed.n = 60", "embed.n must lie in [0, spectrum.count = 60)"),
        ("embed.n = -1", "embed.n must lie in [0, spectrum.count = 60)"),
        ("embed.delta = 0.001", "below the sample resolution"),
    ])
    def test_bad_embed_input(self, tmp_path, capsys, monkeypatch, line,
                             message):
        from spectral_embed import cli

        def no_build(*args, **kwargs):
            raise AssertionError("built before the embed inputs were checked")

        # rejected before the spectrum or the net is computed
        monkeypatch.setattr(cli, "compute_spectrum", no_build)
        monkeypatch.setattr(cli, "build_net", no_build)
        key = line.split(" =")[0]
        text = "".join(l + "\n" for l in CIRCLE_CFG.splitlines()
                       if not l.startswith(key)) + line + "\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["embed", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_disconnected_mesh_input(self, tmp_path, capsys):
        ico = make_sphere(1.0, 1)
        verts = np.vstack([ico.vertices, ico.vertices + 3.0])
        faces = np.vstack([ico.faces, ico.faces + len(ico.vertices)])
        off = tmp_path / "two.off"
        off.write_text("".join(
            [f"OFF\n{len(verts)} {len(faces)} 0\n"]
            + [f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in verts]
            + [f"3 {a} {b} {c}\n" for a, b, c in faces]))
        cfg = write_cfg(tmp_path, f"manifold.kind = mesh\n"
                        f"manifold.path = {off}\nspectrum.count = 8\n")
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "disconnected mesh: 2 components" in capsys.readouterr().err

    def test_malformed_off_input(self, tmp_path, capsys):
        off = tmp_path / "bad.off"
        off.write_text("OFF\n4 4 0\n1 1 x\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
                       "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n")
        cfg = write_cfg(tmp_path, f"manifold.kind = mesh\n"
                        f"manifold.path = {off}\nspectrum.count = 3\n")
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{off}:3: bad vertex line" in err
        assert "check failed" not in err

    @pytest.mark.parametrize("error", [
        EigensolverError, charts_mod.StabilityError,
        charts_mod.QuadratureBudgetError])
    def test_solver_failure_is_a_failed_check(self, tmp_path, capsys,
                                              monkeypatch, error):
        from spectral_embed import cli

        def fail(*args, **kwargs):
            raise error("budget exhausted")

        monkeypatch.setattr(cli, "compute_spectrum", fail)
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "check failed: budget exhausted" in err
        assert "Traceback" not in err

    def test_counterexample_rejects_circle(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out = str(tmp_path / "out")
        assert main(["verify", "counterexample", "--config", cfg,
                     "--out", out]) == 2


class TestSubcommands:
    def test_spectrum_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        eig = np.loadtxt(os.path.join(out, "spectrum", "eigenvalues.csv"),
                         delimiter=",", skiprows=1)
        assert np.allclose(eig[:5, 1], [0, 1, 1, 4, 4], atol=1e-12)

    def test_embed_with_fixed_t(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out = str(tmp_path / "out")
        assert main(["embed", "--config", cfg, "--out", out]) == 0
        report = (tmp_path / "out" / "embed_report.txt").read_text()
        for line in report.strip().splitlines():
            assert SUMMARY_RE.match(line), line
        header = (tmp_path / "out" / "embedding.csv").read_text().splitlines()[0]
        assert header.startswith("point,coord_1,")

    def test_embed_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["embed", "--config", cfg, "--out", out1]) == 0
        assert main(["embed", "--config", cfg, "--out", out2]) == 0
        for name in ("embed_report.txt", "embedding.csv", "ratios.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_constants_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, "constants.n = 2\nconstants.lambda = 1.0\n"
                        "constants.iota = 1.0\nconstants.steps = 8\n")
        out = str(tmp_path / "out")
        assert main(["constants", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "out" / "constants.csv").read_text().splitlines()
        assert lines[0] == "n,Lambda,iota,r,volratio,c,F,C,cond_dist,cond_harm"
        assert len(lines) == 9

    def test_verify_growth(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out = str(tmp_path / "out")
        assert main(["verify", "growth", "--config", cfg, "--out", out]) == 0
        text = (tmp_path / "out" / "growth_report.txt").read_text()
        assert "pass_flag=1" in text

    def test_verify_decay(self, tmp_path):
        # the decay bound needs a genuine (generous) Faber-Krahn constant,
        # not the growth-calibrated one; drop the overrides
        text = "\n".join(line for line in CIRCLE_CFG.splitlines()
                         if not line.startswith(("bounds.a", "bounds.c")))
        cfg = write_cfg(tmp_path, text + "\nspectrum.count = 120\n")
        out = str(tmp_path / "out")
        assert main(["verify", "decay", "--config", cfg, "--out", out]) == 0
        header = (tmp_path / "out" / "decay.csv").read_text().splitlines()[0]
        assert header == "p,q,t,value,bound,flag"

    def test_verify_counterexample(self, tmp_path):
        text = ("manifold.kind = torus\n"
                "manifold.periods = 6.283185307179586,0.6283185307179586\n"
                "spectrum.count = 40\nembed.t = 0.01\n")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["verify", "counterexample", "--config", cfg,
                     "--out", out]) == 0

    def test_verify_truncation(self, tmp_path):
        text = CIRCLE_CFG + "spectrum.count = 200\nverify.samples = 6\n" \
            + "bounds.a = 17.07946844534713\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["verify", "truncation", "--config", cfg,
                     "--out", out]) == 0

    def test_reports_count_far_pairs(self, tmp_path):
        # 32 far sources with max(4, 400 // 32) = 12 draws each give 384
        # far pairs for the 400 requested
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = tmp_path / "scan"
        assert main(["embed", "--scan", "--config",
                     os.path.join(root, "configs", "circle_h.cfg"),
                     "--out", str(out)]) == 0
        report = (out / "embed_report.txt").read_text().splitlines()
        assert "pairs=400" in report
        assert "far_pairs=384" in report
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["verify", "injectivity", "--config", cfg,
                     "--out", str(tmp_path / "inj")]) == 0
        report = (tmp_path / "inj" / "injectivity_report.txt").read_text()
        assert "far_pairs=80" in report.splitlines()

    def test_reports_embed_config(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out = str(tmp_path / "out")
        main(["embed", "--config", cfg, "--out", out])
        text = (tmp_path / "out" / "embed_report.txt").read_text()
        assert "config_manifold_kind=circle" in text
        assert "config_embed_delta=0.3" in text


class TestExportSurfaces:
    def test_distance_field_csv(self, tmp_path):
        from spectral_embed.manifold import export_distance_field, make_sphere
        mesh = make_sphere(1.0, 1)
        field = mesh.graph_distance_from(0)
        path = tmp_path / "dist.csv"
        export_distance_field(field, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "vertex,distance"
        assert len(lines) == len(mesh.vertices) + 1
        assert float(lines[1].split(",")[1]) == 0.0

    def test_grid_kernel_csv(self, tmp_path):
        from spectral_embed.charts import export_grid_kernel, \
            identity_chart, solve_fd_kernel
        gk = solve_fd_kernel(identity_chart(1), 3.0, 31, 0.0, 0.1,
                             steps=16, store_every=8)
        path = tmp_path / "kernel.csv"
        export_grid_kernel(gk, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,value"
        assert len(lines) == 1 + 31 * len(gk.times)

    def test_spectrum_eigenfunction_files(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG + "spectrum.count = 4\n")
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        func = tmp_path / "out" / "spectrum" / "eigenfunction_0001.csv"
        assert func.exists()
        assert func.read_text().splitlines()[0] == "vertex,value"

    def test_verify_isometry_and_injectivity(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG + "spectrum.count = 120\n"
                        "embed.t_max = 0.8\nembed.levels = 5\n")
        out = str(tmp_path / "iso")
        assert main(["verify", "isometry", "--config", cfg,
                     "--out", out]) == 0
        assert main(["verify", "injectivity", "--config", cfg,
                     "--out", str(tmp_path / "inj")]) == 0

    def test_charts_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, "charts.nodes = 41,81,161\n"
                        "charts.sweep_nodes = 401\ncharts.sweep_steps = 512\n")
        out = str(tmp_path / "out")
        assert main(["charts", "--config", cfg, "--out", out]) == 0
        report = (tmp_path / "out" / "charts_report.txt").read_text()
        assert "ratios_ok=1" in report and "slope_ok=1" in report
        kernel = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
        assert kernel[0] == "x,t,value"

    def test_all_outputs_well_formed(self, tmp_path):
        # every summary line matches the key=value grammar and every CSV
        # carries a header, across several subcommands
        cfg = write_cfg(tmp_path, CIRCLE_CFG + "spectrum.count = 400\n")
        out = tmp_path / "sweep"
        assert main(["embed", "--config", cfg, "--out", str(out / "e")]) == 0
        assert main(["verify", "growth", "--config", cfg,
                     "--out", str(out / "g")]) == 0
        assert main(["verify", "varadhan", "--config", cfg,
                     "--out", str(out / "v")]) == 0
        assert main(["constants", "--config", cfg,
                     "--out", str(out / "c")]) == 0
        reports = list(out.rglob("*.txt"))
        csvs = list(out.rglob("*.csv"))
        assert reports and csvs
        for rep in reports:
            for line in rep.read_text().strip().splitlines():
                assert SUMMARY_RE.match(line), (rep, line)
        for path in csvs:
            header = path.read_text().splitlines()[0]
            assert header and not header[0].isdigit(), path

    def test_verify_decay_on_mesh(self, tmp_path):
        text = ("manifold.kind = icosphere\nmanifold.radius = 1.0\n"
                "manifold.subdivisions = 2\nspectrum.count = 12\n"
                "bounds.iota = 3.141592653589793\nbounds.r_h = 1.0\n"
                "heat.t_grid = 0.1,0.5,1.0\nverify.distances = 0.5,1.5\n")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["verify", "decay", "--config", cfg, "--out", out]) == 0


def test_reports_follow_umask(tmp_path):
    from spectral_embed import reporting
    old = os.umask(0o022)
    try:
        reporting.write_report(str(tmp_path / "r.txt"), {"a": 1})
        reporting.write_csv(str(tmp_path / "t.csv"), ["x"], [(1.5,)])
    finally:
        os.umask(old)
    for name in ("r.txt", "t.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


def test_scan_bytes_independent_of_blas_threads(tmp_path):
    # the README promises byte-identical outputs whatever the BLAS pool size
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("SPECTRAL_EMBED_THREADS", None)
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_embed.cli", "embed", "--scan",
             "--config", os.path.join(root, "configs", "circle_h.cfg"),
             "--out", str(out)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert "scan.csv" in trees[0] and "ratios.csv" in trees[0]
    assert trees[0] == trees[1]


def test_thread_cap_applies_before_numpy_loads(tmp_path):
    # the README promises that SPECTRAL_EMBED_THREADS caps the BLAS pools
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env["SPECTRAL_EMBED_THREADS"] = "1"
    script = (
        "import sys\n"
        "from spectral_embed.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(l for l in fh if l.startswith('Threads:')))\n"
        "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "spectrum", "--config",
         os.path.join(root, "configs", "circle_h.cfg"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Threads:", "1"]


def test_shipped_configs_run(tmp_path):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = root / "configs" / "counterexample.cfg"
    assert cfg.exists()
    assert main(["verify", "counterexample", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
