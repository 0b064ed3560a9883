import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_embed import charts as charts_mod
from spectral_embed.cli import ConfigError, RunConfig, main
from spectral_embed.manifold import Circle, make_sphere
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

    @pytest.mark.parametrize("command, line, message", [
        ("embed", "manifold.samples = 0", "manifold.samples must be positive"),
        ("embed", "manifold.samples = -7", "manifold.samples must be positive"),
        ("embed", "spectrum.count = 2048",
         "spectrum.count must lie in [1, 2048) for a sample of 2048 points"),
        ("spectrum", "spectrum.count = 0", "spectrum.count must lie in [1,"),
        ("embed", "embed.levels = 1076", "embed.levels = 1076 halves"),
        ("embed", "embed.t_max = 0", "embed.t_max must be positive"),
        ("embed", "embed.pairs = 0", "embed.pairs must be at least 1"),
        ("embed", "embed.pairs = -7", "embed.pairs must be at least 1"),
    ])
    def test_bad_size_input(self, tmp_path, capsys, monkeypatch, command,
                            line, message):
        from spectral_embed import cli

        def no_build(*args, **kwargs):
            raise AssertionError("built before the sizes were checked")

        monkeypatch.setattr(cli, "compute_spectrum", no_build)
        monkeypatch.setattr(cli, "build_net", no_build)
        key = line.split(" =")[0]
        text = "".join(l + "\n" for l in CIRCLE_CFG.splitlines()
                       if not l.startswith(key)) + line + "\n"
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_out_of_memory_is_a_config_error(self, tmp_path, capsys,
                                             monkeypatch):
        from spectral_embed import cli

        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(cli, "compute_spectrum", exhaust)
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "needs more memory than is available" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("pairs", [0, -7])
    def test_counterexample_rejects_bad_pairs(self, tmp_path, capsys,
                                              monkeypatch, pairs):
        from spectral_embed import cli

        def no_build(*args, **kwargs):
            raise AssertionError("built before embed.pairs was checked")

        monkeypatch.setattr(cli, "compute_spectrum", no_build)
        with open(os.path.join(ROOT, "configs", "counterexample.cfg")) as fh:
            text = fh.read() + f"embed.pairs = {pairs}\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "counterexample", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "embed.pairs must be at least 1" in capsys.readouterr().err

    def test_counterexample_rejects_pairs_beyond_array_size(
            self, tmp_path, capsys, monkeypatch):
        from spectral_embed import cli

        def no_build(*args, **kwargs):
            raise AssertionError("built before embed.pairs was checked")

        monkeypatch.setattr(cli, "compute_spectrum", no_build)
        with open(os.path.join(ROOT, "configs", "counterexample.cfg")) as fh:
            text = fh.read() + f"embed.pairs = {2 ** 63}\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "counterexample", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"embed.pairs must be at most {2 ** 59 - 1}" in err

    def test_counterexample_rejects_pairs_beyond_byte_size(self, tmp_path):
        # 2^62 pairs fit an index but not the byte size of their (pairs, 2)
        # float arrays, which numpy reports as a ValueError
        with open(os.path.join(ROOT, "configs", "counterexample.cfg")) as fh:
            text = fh.read() + f"embed.pairs = {2 ** 62}\n"
        cfg = write_cfg(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_embed.cli", "verify",
             "counterexample", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=cli_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert f"embed.pairs must be at most {2 ** 59 - 1}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line, message", [
        ("charts.steps = 0", "charts.steps must be at least 1"),
        ("charts.sweep_steps = 0", "charts.sweep_steps must be at least 1"),
        ("charts.nodes = 2,3", "charts.nodes must list at least 2 integers"),
        ("charts.nodes = 161", "charts.nodes must list at least 2 integers"),
        ("charts.nodes = 41,161.5",
         "charts.nodes must list at least 2 integers"),
        ("charts.nodes = 41,1e300",
         "charts.nodes must list at least 2 integers"),
        ("charts.sweep_nodes = 2", "charts.sweep_nodes must lie in [3,"),
        (f"charts.sweep_nodes = {2 ** 62}",
         "charts.sweep_nodes must lie in [3,"),
        ("charts.t_max = 0", "charts.t_max must be positive"),
        ("charts.t_max = 5e-324", "gives a time step of 0"),
        ("charts.bump_width = 0", "charts.bump_width must be positive"),
        ("charts.q_list = 0.04", "charts.q_list must list at least 2"),
        ("charts.q_list = 0.02,0.02", "charts.q_list must list at least 2"),
        ("charts.q_list = 0.02,-0.04", "charts.q_list must list at least 2"),
        ("charts.q_list = 0,0.04", "charts.q_list must list at least 2"),
        ("charts.q_list = 1e-17,0.04", "charts.q_list must list at least 2"),
    ])
    def test_bad_charts_input(self, tmp_path, capsys, monkeypatch, line,
                              message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the charts inputs were "
                                 "checked")

        for name in ("convergence_study", "solve_fd_kernel",
                     "ellipticity_sweep"):
            monkeypatch.setattr(charts_mod, name, no_solve)
        cfg = write_cfg(tmp_path, line + "\n")
        assert main(["charts", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_charts_report_keys_for_small_q(self, tmp_path):
        cfg = write_cfg(tmp_path, "charts.nodes = 21,41\ncharts.steps = 32\n"
                        "charts.q_list = 0.00001,0.00002\n"
                        "charts.sweep_nodes = 41\ncharts.sweep_steps = 32\n")
        assert main(["charts", "--config", cfg,
                     "--out", str(tmp_path / "out")]) in (0, 1)
        report = (tmp_path / "out" / "charts_report.txt").read_text()
        assert "sweep_sup_q1em05=" in report
        assert "sweep_grad_q2em05=" in report

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


class TestEmbeddingExport:
    """embedding.csv holds at most 512 rows, an even stride through the
    canonical sample; its point column is the sample index."""

    @staticmethod
    def exported_points(tmp_path, text):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["embed", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "embedding.csv").read_text().splitlines()[1:]
        return [int(row.split(",", 1)[0]) for row in rows]

    def test_icosphere_exports_every_other_vertex(self, tmp_path):
        points = self.exported_points(
            tmp_path, "manifold.kind = icosphere\nmanifold.subdivisions = 3\n"
            "spectrum.count = 12\nembed.map = F\nembed.t = 0.05\n"
            "embed.pairs = 40\n")
        assert points == list(range(0, 642, 2))

    def test_circle_rows_cover_the_circle(self, tmp_path):
        points = self.exported_points(tmp_path, CIRCLE_CFG)
        assert len(points) == 512
        length = 2 * np.pi
        angles = np.sort(Circle(length, 2048).sample_points()[points, 0])
        gaps = np.diff(np.append(angles, angles[0] + length))
        assert gaps.max() <= 2 * length / 512

    def test_small_mesh_exports_every_vertex(self, tmp_path):
        points = self.exported_points(
            tmp_path, "manifold.kind = grid_torus\n"
            "manifold.periods = 6.283185307179586,6.283185307179586\n"
            "manifold.divisions = 24,20\nspectrum.count = 12\n"
            "embed.map = F\nembed.t = 0.05\nembed.pairs = 40\n")
        assert points == list(range(24 * 20))


ICOSPHERE3_KURATOWSKI = ("manifold.kind = icosphere\n"
                         "manifold.subdivisions = 3\nspectrum.count = 40\n"
                         "embed.map = kuratowski\nembed.delta = 0.4\n"
                         "embed.levels = 3\n")


class TestKuratowskiRuns:
    """The Kuratowski map reads distances only: it solves no spectrum, and
    on a mesh it reads the net's own distance fields."""

    def test_mesh_scan_solves_no_spectrum(self, tmp_path, monkeypatch):
        from spectral_embed import cli, manifold

        def no_solve(*args, **kwargs):
            raise EigensolverError("no eigensolve expected")

        sources = []
        dijkstra = manifold.csgraph.dijkstra

        def counting(*args, indices=None, **kwargs):
            sources.append(np.size(indices))
            return dijkstra(*args, indices=indices, **kwargs)

        monkeypatch.setattr(cli, "compute_spectrum", no_solve)
        monkeypatch.setattr(manifold.csgraph, "dijkstra", counting)
        cfg = write_cfg(tmp_path, ICOSPHERE3_KURATOWSKI)
        out = tmp_path / "out"
        assert main(["embed", "--scan", "--config", cfg,
                     "--out", str(out)]) == 0
        report = dict(line.split("=", 1) for line in
                      (out / "embed_report.txt").read_text().splitlines())
        assert report["n_trunc"] == "39"  # the config's spectrum.count - 1
        # one search per net point, the 64 near and 32 far pair sources,
        # and the diameter's two sweeps for the default h_far
        assert sum(sources) == int(report["n_0"]) + 64 + 32 + 2

    @pytest.mark.parametrize("kind", ["kuratowski", "H", "G"])
    def test_net_keeps_fields_only_for_kuratowski(self, kind):
        from spectral_embed import cli

        cfg = RunConfig.parse(ICOSPHERE3_KURATOWSKI.replace(
            "embed.map = kuratowski", f"embed.map = {kind}"))
        net = cli._embedding_setup(cfg, 0)[2]
        assert (net.fields is not None) == (kind == "kuratowski")

    @pytest.mark.parametrize("count, message", [
        (0, "embed.n must lie in [0, spectrum.count = 0)"),
        (642, "spectrum.count must lie in [1, 642) for a sample of 642"),
        (700, "spectrum.count must lie in [1, 642) for a sample of 642"),
    ])
    def test_spectrum_count_still_checked(self, tmp_path, capsys, monkeypatch,
                                          count, message):
        from spectral_embed import cli

        def no_build(*args, **kwargs):
            raise AssertionError("built before spectrum.count was checked")

        monkeypatch.setattr(cli, "compute_spectrum", no_build)
        monkeypatch.setattr(cli, "build_net", no_build)
        cfg = write_cfg(tmp_path, ICOSPHERE3_KURATOWSKI.replace(
            "spectrum.count = 40", f"spectrum.count = {count}"))
        assert main(["embed", "--scan", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli_env(**overrides):
    """The environment of a CLI subprocess on this checkout's sources."""
    env = dict(os.environ)
    env.pop("SPECTRAL_EMBED_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(overrides)
    return env


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


def test_mesh_scan_bytes_independent_of_blas_threads(tmp_path):
    # the same promise on a mesh, whose eigensolve (ARPACK with a sparse
    # LU) and heat-kernel products run through the BLAS pool
    cfg = write_cfg(tmp_path, "manifold.kind = icosphere\n"
                    "manifold.subdivisions = 3\nspectrum.count = 40\n"
                    "embed.map = H\nembed.delta = 0.4\nembed.levels = 4\n")
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_embed.cli", "embed", "--scan",
             "--config", cfg, "--out", str(out)],
            env=cli_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert {"scan.csv", "embedding.csv", "ratios.csv"} <= set(trees[0])
    assert trees[0] == trees[1]


def test_cli_import_leaves_quadrature_unloaded():
    # scipy.integrate (and the scipy.optimize it pulls in) loads only when a
    # radius constant needs quadrature, not with every CLI run
    script = ("import sys, spectral_embed.cli\n"
              "print(*sorted(m for m in ('scipy.integrate', 'scipy.optimize')"
              " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


# The fuzzed CLI runs under an address-space cap, so a config too large for
# memory fails fast in the child instead of crowding the machine.
BOUNDED_CLI = (
    "import resource, runpy\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "runpy.run_module('spectral_embed.cli', run_name='__main__')\n")
FUZZ_MANIFOLDS = [
    "manifold.kind = circle\n",
    "manifold.kind = torus\n"
    "manifold.periods = 6.283185307179586,6.283185307179586\n",
    "manifold.kind = torus\n"
    "manifold.periods = 6.283185307179586,0.6283185307179586\n",
]
EXTREME_INTS = [0, -1, -7, 10 ** 9, 10 ** 18, 2 ** 63]
EXTREME_FLOATS = [0.0, -1.0, 5e-324, 1e300]


def fuzz_int(lo, hi):
    return st.none() | st.sampled_from(EXTREME_INTS) | st.integers(lo, hi)


@settings(max_examples=20, deadline=None)
@given(manifold=st.sampled_from(FUZZ_MANIFOLDS),
       kind=st.sampled_from(["G", "H", "F", "kuratowski"]),
       command=st.sampled_from([["embed"], ["embed", "--scan"], ["spectrum"],
                                ["verify", "injectivity"],
                                ["verify", "counterexample"]]),
       values=st.fixed_dictionaries({
           "spectrum.count": fuzz_int(1, 300),
           "embed.n": fuzz_int(-2, 300),
           "embed.levels": fuzz_int(1, 12),
           "embed.pairs": fuzz_int(1, 500),
           "manifold.samples": fuzz_int(1, 8000),
           "embed.delta": st.none() | st.sampled_from(EXTREME_FLOATS)
           | st.floats(0.01, 4.0)}))
def test_any_config_exits_by_the_contract(manifold, kind, command, values):
    text = manifold + f"embed.map = {kind}\n" + "".join(
        f"{key} = {value}\n" for key, value in values.items()
        if value is not None)
    assert_exit_contract(command, text)


def fuzz_list(elements):
    return st.lists(elements, max_size=4).map(
        lambda values: ",".join(str(v) for v in values))


# sizes stay at most 81 nodes and 64 steps, so each run takes about a second
@settings(max_examples=10, deadline=None)
@given(values=st.fixed_dictionaries({
    "charts.nodes": fuzz_list(st.integers(-1, 81) | st.floats(2.5, 81.0)),
    "charts.steps": st.integers(-1, 64),
    "charts.sweep_nodes": st.integers(-1, 81),
    "charts.sweep_steps": st.integers(-1, 64),
}, optional={
    "charts.t_max": st.sampled_from(EXTREME_FLOATS) | st.floats(0.01, 2.0),
    "charts.bump_width": st.sampled_from(EXTREME_FLOATS)
    | st.floats(0.1, 8.0),
    "charts.q_list": fuzz_list(st.sampled_from(EXTREME_FLOATS + [1e-17])
                               | st.floats(1e-6, 4.0)),
}))
def test_any_charts_config_exits_by_the_contract(values):
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    assert_exit_contract(["charts"], text)


def assert_exit_contract(command, text):
    # every input runs, fails a check or is rejected: exit 0, 1 or 2 within
    # a time bound, never a traceback
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        proc = subprocess.run(
            [sys.executable, "-c", BOUNDED_CLI, *command, "--config", cfg,
             "--out", os.path.join(tmp, "out")],
            env=cli_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
            text=True, timeout=90)
    assert proc.returncode in (0, 1, 2), (text, proc.stderr)
    assert "Traceback" not in proc.stderr, (text, proc.stderr)
