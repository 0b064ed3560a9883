import errno
import functools
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_embed import charts as charts_mod, reporting
from spectral_embed.cli import (KEYS, MAX_FLOATS, VERIFY_TARGETS, ConfigError,
                                RunConfig, brute_truncation_index,
                                build_bounds, build_manifold, main)
from spectral_embed.manifold import Circle, FlatTorus, Sphere, make_sphere
from spectral_embed.spectrum import (EigensolverError, TruncationError,
                                     compute_spectrum, export_spectrum,
                                     truncation_index)


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


def dump(cfg):
    """The config's entries as key = value lines, sorted by key."""
    lines = [f"{k} = {v}" for k, v in sorted(cfg.entries.items())]
    return "\n".join(lines) + "\n"


class TestRunConfig:
    def test_round_trip_equality(self):
        cfg = RunConfig.parse(CIRCLE_CFG)
        again = RunConfig.parse(dump(cfg))
        assert cfg == again

    def test_comments_and_blanks_ignored(self):
        cfg = RunConfig.parse("a.b = 1 # trailing\n\n# full line\nc = x\n")
        assert cfg.entries == {"a.b": "1", "c": "x"}

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3"):
            RunConfig.parse("a = 1\nb = 2\nnot a pair\n", origin="f")

    def test_typed_getters(self):
        cfg = RunConfig.parse("embed.delta = 1.5\nembed.levels = 7\n"
                              "heat.t_grid = 1,2,3\nembed.t = 1,2,3\n")
        assert cfg.value("embed.delta") == 1.5
        assert cfg.value("embed.levels") == 7
        assert cfg.value("heat.t_grid") == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError, match="missing"):
            cfg.value("manifold.kind")
        with pytest.raises(ConfigError, match="bad float"):
            cfg.value("embed.t")
        # an absent key reads the table's default or the one passed in,
        # and a default is never written back into the config
        assert cfg.value("embed.t_max") == 1.0
        assert cfg.value("charts.nodes") == [41, 81, 161]
        assert cfg.value("spectrum.count", 16) == 16
        assert cfg.value("bounds.a", None) is None
        assert "embed.t_max" not in cfg.entries

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_floats_rejected(self, raw):
        cfg = RunConfig.parse(f"embed.delta = {raw}\n"
                              f"heat.t_grid = 1,{raw}\n")
        with pytest.raises(ConfigError, match="non-finite"):
            cfg.value("embed.delta")
        with pytest.raises(ConfigError, match="non-finite"):
            cfg.value("heat.t_grid")


class TestExitCodes:
    def test_unknown_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["bogus", "--config", cfg]) == 2

    def test_unknown_verify_target(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["verify", "bogus", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", [["bogus"], ["verify", "bogus"]])
    def test_bad_command_creates_no_directory(self, tmp_path, monkeypatch,
                                              command):
        # the config names no out, so a run would write to ./out
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--config", cfg]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("mesh", [None, "OFF\n4 4 0\n1 1 x\n"],
                             ids=["missing", "invalid"])
    def test_failed_input_creates_no_directory(self, tmp_path, monkeypatch,
                                               mesh):
        # a run that exits 2 on its mesh leaves no ./out behind
        monkeypatch.chdir(tmp_path)
        if mesh is not None:
            (tmp_path / "in.off").write_text(mesh)
        cfg = write_cfg(tmp_path,
                        "manifold.kind = mesh\nmanifold.path = in.off\n")
        assert main(["spectrum", "--config", cfg]) == 2
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_names_the_path(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("")
        cfg = write_cfg(tmp_path, "constants.n = 2\n")
        assert main(["constants", "--config", cfg,
                     "--out", str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker / 'out'}/")
        assert err.endswith(": Not a directory\n")

    def test_missing_config_file(self, tmp_path):
        assert main(["spectrum", "--config",
                     str(tmp_path / "absent.cfg")]) == 2

    def test_config_parse_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "broken line without equals\n")
        assert main(["spectrum", "--config", cfg]) == 2

    @pytest.mark.parametrize("kind", ["directory", "under a file"])
    def test_unreadable_mesh_input_names_the_path(self, tmp_path, capsys,
                                                  monkeypatch, kind):
        # a run without --out writes ./out; it exits 2 before any output
        monkeypatch.chdir(tmp_path)
        if kind == "directory":
            (tmp_path / "in.off").mkdir()
            path, reason = "in.off", "Is a directory"
        else:
            (tmp_path / "F").write_text("")
            path, reason = "F/in.off", "Not a directory"
        cfg = write_cfg(tmp_path,
                        f"manifold.kind = mesh\nmanifold.path = {path}\n")
        assert main(["spectrum", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read {path}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_binary_mesh_input_is_a_mesh_error(self, tmp_path, capsys):
        path = tmp_path / "in.off"
        path.write_bytes(b"OFF\n\xff\xfe\n")
        cfg = write_cfg(tmp_path,
                        f"manifold.kind = mesh\nmanifold.path = {path}\n")
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: not a text OFF file")

    def test_missing_mesh_input(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run without --out writes ./out
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
        ("embed.n = -1", "embed.n must be at least 0"),
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
        EigensolverError, charts_mod.StabilityError])
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


SPHERE_BOUNDS = ("manifold.kind = sphere\nspectrum.count = 40\n"
                 "bounds.r_h = 1.0\n")
CIRCLE_F = ("manifold.kind = circle\nspectrum.count = 60\nembed.map = F\n"
            "embed.t = 0.1\n")
GRID = "manifold.kind = grid_torus\nmanifold.periods = 1,1\n"


class TestExitContractTable:
    """Each row of the exit-contract table in the ROADMAP baseline: inputs
    that ended in a traceback, a hang, a vacuous pass, a failed check or
    silence now exit 2, naming the key, before any mesh build, solve or
    sweep."""

    ROWS = [
        (["constants"], "constants.n = -3\n", "constants.n"),
        (["verify", "decay"], SPHERE_BOUNDS + "heat.t_grid = 0\n",
         "heat.t_grid"),
        (["verify", "decay"], SPHERE_BOUNDS + "heat.t_grid = -1\n",
         "heat.t_grid"),
        (["verify", "decay"], "manifold.kind = circle\nbounds.r_h = 1.0\n"
         "heat.t_grid = 0.1,5e-324\n", "heat.t_grid = 5e-324"),
        (["verify", "decay"], SPHERE_BOUNDS + "heat.t_grid = 0.1,1e300\n",
         "heat.t_grid = 1e+300"),
        (["constants"], "constants.steps = 100000000\n", "constants.steps"),
        (["spectrum"], "manifold.kind = icosphere\n"
         "manifold.subdivisions = 12\n", "manifold.subdivisions"),
        (["verify", "truncation"], SPHERE_BOUNDS + "verify.samples = 0\n",
         "verify.samples"),
        (["verify", "truncation"], SPHERE_BOUNDS + "verify.samples = -5\n",
         "verify.samples"),
        (["constants"], "constants.n = 0\n", "constants.n"),
        (["constants"], "constants.lambda = -1\n", "constants.lambda"),
        (["constants"], "constants.iota = 0\n", "constants.iota"),
        (["spectrum"], "manifold.kind = icosphere\n"
         "manifold.subdivisions = -1\n", "manifold.subdivisions"),
        (["spectrum"], "manifold.kind = icosphere\nmanifold.radius = -1\n",
         "manifold.radius"),
        (["spectrum"], GRID + "manifold.divisions = 0,5\n",
         "manifold.divisions"),
        (["spectrum"], GRID + "manifold.periods = 1\n", "manifold.periods"),
        (["spectrum"], "manifold.kind = torus\nmanifold.periods = 1,-1\n",
         "manifold.periods"),
        (["spectrum"], "manifold.kind = sphere\nmanifold.radius = 0\n",
         "manifold.radius"),
        (["verify", "growth"], SPHERE_BOUNDS + "bounds.a = -1\n", "bounds.a"),
        (["verify", "decay"], "manifold.kind = sphere\n# no bounds.r_h\n",
         "bounds.r_h"),
        (["verify", "growth"], "manifold.kind = sphere\n# no bounds.r_h\n",
         "bounds.r_h"),
        (["verify", "varadhan"], "manifold.kind = sphere\n# no bounds.r_h\n",
         "bounds.r_h"),
        (["embed"], CIRCLE_F + "embed.eigencount = 0\n", "embed.eigencount"),
        (["embed"], CIRCLE_F + "embed.eigencount = 60\n",
         "embed.eigencount"),
        (["embed"], CIRCLE_F + "embed.h_near = -1\n", "embed.h_near"),
        (["verify", "counterexample"], "manifold.kind = torus\n"
         "manifold.periods = 6.283185307179586,0.6283185307179586\n"
         "verify.gap = -5\n", "verify.gap"),
        (["spectrum"], "manifold.kind = circle\nspectrum.cout = 5\n",
         "spectrum.cout"),
        (["constants"], "constants.steps = 0\n", "constants.steps"),
        (["constants"], "constants.r_min = 0.1\nconstants.r_max = 0.01\n",
         "constants.r_min"),
        (["spectrum"], GRID + "manifold.divisions = 4.7,8\n",
         "manifold.divisions"),
    ]

    @pytest.mark.parametrize("command, text, key", ROWS, ids=[
        f"{' '.join(command)}: {text.splitlines()[-1]}"
        for command, text, _ in ROWS])
    def test_row_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                        command, text, key):
        from spectral_embed import cli

        def no_build(*args, **kwargs):
            raise AssertionError("built before the config was checked")

        # the icosphere and constants rows did not exit within 60 s
        for name in ("make_sphere", "make_torus_mesh", "constants_sweep",
                     "compute_spectrum", "build_net"):
            monkeypatch.setattr(cli, name, no_build)
        cfg = write_cfg(tmp_path, text)
        assert main([*command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err and "check failed" not in err

    def test_config_seed_is_the_default_seed(self, tmp_path):
        # `seed` in a config seeds pair sampling unless --seed is given
        text = CIRCLE_CFG.replace("seed = 0", "seed = 3")
        runs = {"config": ([], text), "flag": (["--seed", "3"], CIRCLE_CFG),
                "both": (["--seed", "3"], text)}
        reports = {}
        for name, (flag, cfg_text) in runs.items():
            cfg = write_cfg(tmp_path, cfg_text, name=f"{name}.cfg")
            out = tmp_path / name
            assert main(["verify", "injectivity", "--config", cfg,
                         "--out", str(out), *flag]) == 0
            reports[name] = [line for line in (
                out / "injectivity_report.txt").read_text().splitlines()
                if not line.startswith("config_")]
        assert reports["config"] == reports["flag"] == reports["both"]
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["verify", "injectivity", "--config", cfg,
                     "--out", str(tmp_path / "zero")]) == 0
        zero = (tmp_path / "zero" / "injectivity_report.txt").read_text()
        assert zero.splitlines()[0] != reports["flag"][0]


class TestKeyTable:
    def test_every_key_read_is_in_the_table(self):
        import inspect
        from spectral_embed import cli
        read = set(re.findall(r'\.value\(\s*"([a-z_.]+)"',
                              inspect.getsource(cli)))
        assert read == set(KEYS)

    def test_readme_table_matches_the_cli_table(self):
        with open(os.path.join(ROOT, "README.md")) as fh:
            section = fh.read().split("### Config keys", 1)[1]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = [c.strip().strip("`") for c in line.split("|")[1:-1]]
                rows[cells[0]] = cells[1:]
        expected = {}
        for name, key in KEYS.items():
            kind = {"floats": "float list", "ints": "int list"}.get(
                key.type, key.type)
            if key.least > 1:
                kind += f" (at least {key.least})"
            default = key.default
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            valid = key.valid.replace(" | ", ", ")
            if key.cap is not None:
                valid += f", at most {key.cap}"
            expected[name] = [kind, str(default), valid]
        assert rows == expected


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

    # at the default radii the ball of radius r_min = 1/6400 is a normal
    # double up to n = 74, subnormal at 75 to 77 and zero from 78 on
    @pytest.mark.parametrize("n, code", [(74, 0), (75, 2), (100, 2)])
    def test_constants_dimension_range(self, tmp_path, capsys, n, code):
        cfg = write_cfg(tmp_path, f"constants.n = {n}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["constants", "--config", cfg,
                         "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert f"error: constants.n = {n} " in err
            assert "constants.r_min" in err
            assert not out.exists()
        else:
            assert err == ""

    # at n = 2 and the default r_max, C is inf from lambda = 9967 on, and
    # sinh overflows at 4 lambda r_max from lambda = 11379 on
    @pytest.mark.parametrize("lam, code", [(1000, 0), (10000, 2),
                                           (100000, 2)])
    def test_constants_lambda_range(self, tmp_path, capsys, lam, code):
        cfg = write_cfg(tmp_path, f"constants.lambda = {lam}\n")
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg,
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert f"error: constants.lambda = {float(lam)!r} " in err
            assert "constants.r_max" in err
            assert not out.exists()
        else:
            assert err == ""
            assert np.isfinite(np.loadtxt(out / "constants.csv",
                                          delimiter=",", skiprows=1)).all()

    # the circle bounds give the growth threshold 2.5066 c; the tail window
    # holds 2^20 indices
    @pytest.mark.parametrize("target", ["truncation", "varadhan"])
    @pytest.mark.parametrize("key, value, code", [
        ("bounds.c", "1e300", 2), ("bounds.volume", "1e300", 2),
        ("bounds.r_h", "5e-324", 2), ("bounds.r_h", "1e-7", 2),
        ("bounds.c", repr(1.01 * 2 ** 20 / 2.5066), 2),
        ("bounds.c", repr(0.99 * 2 ** 20 / 2.5066), (0, 1))])
    def test_tail_window_bounds(self, tmp_path, capsys, target, key, value,
                                code):
        text = "\n".join(line for line in CIRCLE_CFG.splitlines()
                         if not line.startswith(key + " "))
        cfg = write_cfg(tmp_path, text + f"\n{key} = {value}\n"
                        "verify.samples = 1\nverify.distances = 1.0\n")
        out = tmp_path / "out"
        got = main(["verify", target, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if code == 2:
            assert got == 2
            assert err.startswith("error: bounds.c = ")
            for name in ("bounds.volume", "bounds.a", "bounds.r_h"):
                assert f" {name} = " in err
            assert not out.exists()
        else:
            assert got in code and "bounds." not in err

    @pytest.mark.parametrize("target", ["truncation", "varadhan", "growth"])
    def test_growth_threshold_past_the_doubles(self, tmp_path, capsys,
                                               target):
        # on a 3-torus a^(3/2) overflows
        cfg = write_cfg(tmp_path, "manifold.kind = torus\n"
                        "manifold.periods = 1.0,2.0,3.0\n"
                        "bounds.r_h = 1.0\nbounds.a = 1e300\n")
        out = tmp_path / "out"
        assert main(["verify", target, "--config", cfg,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bounds.c = 8.0, ")
        assert "bounds.a = 1e+300 " in err
        assert err.endswith("outside the double range\n")
        assert not out.exists()

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

    def test_isometry_report_echoes_the_config_as_written(self, tmp_path):
        # the default band [0.85, 1.15] is checked, not written as config
        text = (CIRCLE_CFG + "spectrum.count = 120\n"
                "embed.t_max = 0.8\nembed.levels = 5\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "isometry", "--config", cfg,
                     "--out", str(tmp_path / "default")]) == 0
        report = (tmp_path / "default" / "embed_report.txt").read_text()
        assert "band" not in report
        # a band in the config is echoed and checked; band_hi keeps its
        # default of 1.15
        cfg = write_cfg(tmp_path, text + "embed.band_lo = 0.999\n")
        assert main(["verify", "isometry", "--config", cfg,
                     "--out", str(tmp_path / "tight")]) == 1
        report = (tmp_path / "tight" / "embed_report.txt").read_text()
        assert [line for line in report.splitlines() if "band" in line] == [
            "config_embed_band_lo=0.999"]

    def test_failed_check_names_the_run_and_report(self, tmp_path, capsys):
        # 4 of the 20 samples get no certified truncation index: they stay
        # in truncation.csv, and stderr counts them
        cfg = write_cfg(tmp_path, "manifold.kind = sphere\n"
                        "spectrum.count = 225\nbounds.r_h = 1.0\n"
                        "bounds.iota = 3.141592653589793\n")
        out = tmp_path / "out"
        assert main(["verify", "truncation", "--config", cfg,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "check failed: verify truncation: truncation_report.txt has "
            "pass=0: 4 of 20 samples uncertified, 0 with bound_n < "
            "brute_n\n")
        assert (out / "truncation_report.txt").read_text().startswith(
            "samples=20\npass=0\n")
        rows = (out / "truncation.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        uncertified = [r.split(",") for r in rows if ",uncertified," in r]
        assert len(uncertified) == 4
        assert all(int(brute) >= 0 for *_, brute in uncertified)

    def test_failed_band_names_the_quantity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCLE_CFG + "embed.band_lo = 1.5\n"
                        "embed.band_hi = 2.0\n")
        assert main(["embed", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: embed: embed_report.txt has "
                              "dil_min=")
        assert err.endswith(" below band_lo=1.5\n")

    @pytest.mark.parametrize("argv, text, message", [
        (["verify", "varadhan"],
         CIRCLE_CFG + "spectrum.count = 400\nverify.tolerance = 0\n",
         "varadhan_report.txt has pass=0\n"),
        (["verify", "injectivity"], CIRCLE_CFG,
         "injectivity_report.txt has pass=0\n"),
        # no eigenvalue lies between 49 and 64, so the modes below the gap
        # and with it are the same
        (["verify", "counterexample"], "manifold.kind = torus\n"
         "manifold.periods = 6.283185307179586,0.6283185307179586\n"
         "spectrum.count = 40\nembed.t = 0.01\nverify.gap = 50.5\n",
         "counterexample_report.txt has pass=0\n"),
        (["verify", "decay"], "manifold.kind = circle\nspectrum.count = 120\n"
         "bounds.r_h = 1.0\nbounds.d = 1e-9\n",
         "decay_report.txt has pass_flag=0\n"),
        (["verify", "growth"], CIRCLE_CFG.replace(
            "bounds.a = 17.07946844534713", "bounds.a = 1000"),
         "growth_report.txt has pass_flag=0\n"),
        (["charts"], "charts.nodes = 21,41\ncharts.steps = 32\n"
         "charts.sweep_nodes = 41\ncharts.sweep_steps = 32\n"
         "charts.ratio_lo = 1e300\ncharts.slope_lo = 1e300\n",
         "charts_report.txt has ratios_ok=0 and slope_ok=0\n"),
        (["embed"], CIRCLE_CFG + "embed.band_lo = 0\nembed.band_hi = 0.5\n",
         "embed_report.txt has dil_max="),
        (["verify", "isometry"], CIRCLE_CFG + "spectrum.count = 120\n"
         "embed.t_max = 0.8\nembed.levels = 5\nembed.band_lo = 0.999\n",
         "embed_report.txt has dil_min="),
    ], ids=["varadhan", "injectivity", "counterexample", "decay", "growth",
            "charts", "embed-band_hi", "isometry-band_lo"])
    def test_every_failed_check_is_named(self, tmp_path, capsys, monkeypatch,
                                         argv, text, message):
        from spectral_embed import cli
        if argv == ["verify", "injectivity"]:
            monkeypatch.setattr(cli, "injectivity_report",
                                lambda *args, **kwargs: {"margin": 0.0,
                                                         "pairs": 80})
        cfg = write_cfg(tmp_path, text)
        assert main(argv + ["--config", cfg,
                            "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        prefix = f"check failed: {' '.join(argv)}: {message}"
        if message.endswith("\n"):
            assert err == prefix
        else:
            assert err.startswith(prefix) and err.count("\n") == 1

    def test_reports_embed_config(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        out = str(tmp_path / "out")
        main(["embed", "--config", cfg, "--out", out])
        text = (tmp_path / "out" / "embed_report.txt").read_text()
        assert "config_manifold_kind=circle" in text
        assert "config_embed_delta=0.3" in text


def dense_tail_sups(values, weights, floor):
    """The former `verify truncation` oracle: max |partial - full| kernel on
    the points for n = 0, 1, ..., each partial kernel formed by a dense
    product, up to the first below `floor`."""
    full = (values * weights) @ values.T
    sups = []
    for n in range(len(weights) - 1):
        part = (values[:, :n + 1] * weights[:n + 1]) @ values[:, :n + 1].T
        sups.append(np.abs(part - full).max())
        if sups[-1] < floor:
            break
    return np.array(sups)


def dense_brute_index(sups, count, eps):
    """The former brute_n: the first n within eps, else count - 1."""
    below = np.flatnonzero(sups < eps)
    return int(below[0]) if below.size else count - 1


# a circle of length 2 pi with growth constants a = 2 e pi^2, C = 1
TRUNCATION_CFG = ("manifold.kind = circle\nmanifold.samples = 4096\n"
                  "spectrum.count = 200\nbounds.iota = 3.141592653589793\n"
                  "bounds.a = 53.656732595121234\nbounds.c = 1.0\n"
                  "bounds.r_h = 1.0\n")


class TestTruncationOracle:
    @pytest.fixture(scope="class", params=["circle", "sphere", "torus",
                                           "icosphere"])
    def probe(self, request):
        """phi_k(P_i) on the first 256 sample points, and the eigenvalues."""
        man, count = {
            "circle": (lambda: Circle(2 * np.pi), 200),
            "sphere": (lambda: Sphere(1.0), 225),
            "torus": (lambda: FlatTorus((2 * np.pi, np.pi)), 100),
            "icosphere": (lambda: make_sphere(1.0, 2), 100)}[request.param]
        man = man()
        spec = compute_spectrum(man, count)
        return spec.values(man.sample_points()[:256]), spec.eigenvalues

    def test_random_draws_match_the_dense_loop(self, probe):
        # 200 (t, eps) draws from the ranges verify truncation draws from,
        # five eps per t
        values, lam = probe
        rng = np.random.default_rng(18)
        for _ in range(40):
            weights = np.exp(-lam * float(rng.uniform(0.3, 2.0)))
            probes = 10.0 ** rng.uniform(-8, -3, size=5)
            sups = dense_tail_sups(values, weights, probes.min())
            for eps in probes:
                assert brute_truncation_index(values, weights, eps) == \
                    dense_brute_index(sups, len(lam), eps), eps

    @pytest.mark.parametrize("t", [0.3, 1.1])
    def test_draws_at_each_tail_match_the_dense_loop(self, probe, t):
        # eps just above and below max_i sum_{k>n} w_k phi_k(P_i)^2, for
        # every n whose tail is at least the least eps drawn.  The dense
        # loop subtracts two kernels of size K = max K(P_i, P_i), so within
        # about count u K of the tail its answer is its rounding: there eps
        # steps that far instead of 1e-12 of the tail.
        values, lam = probe
        weights = np.exp(-lam * t)
        diagonal = values ** 2 * weights
        tails = diagonal[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:].max(axis=0)
        rounding = len(lam) * np.finfo(float).eps * diagonal.sum(axis=1).max()
        tails = tails[tails >= 1e-8]
        assert len(tails) >= 3
        steps = np.maximum(1e-12 * tails, rounding)
        probes = np.concatenate([tails - steps, tails + steps])
        sups = dense_tail_sups(values, weights, probes.min())
        for eps in probes:
            assert brute_truncation_index(values, weights, eps) == \
                dense_brute_index(sups, len(lam), eps), eps

    def test_a_tail_equal_to_eps_is_not_within_it(self):
        # dyadic values: both oracles form the tails 0.3125 and 0.0625 exactly
        values, weights = np.array([[1.0, 0.5, 0.25]]), np.ones(3)
        for eps, brute in ((0.3125, 1), (0.0625, 2), (0.0625 * 1.5, 1)):
            sups = dense_tail_sups(values, weights, eps)
            assert dense_brute_index(sups, 3, eps) == brute
            assert brute_truncation_index(values, weights, eps) == brute

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csv_matches_the_dense_loop(self, tmp_path, seed):
        cfg = write_cfg(tmp_path, TRUNCATION_CFG)
        out = tmp_path / "out"
        assert main(["verify", "truncation", "--config", cfg,
                     "--out", str(out), "--seed", str(seed)]) == 0
        run = RunConfig.parse(TRUNCATION_CFG)
        man = build_manifold(run)
        bounds = build_bounds(run, man)
        spec = compute_spectrum(man, 200)
        values = spec.values(man.sample_points()[:256])
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(20):
            t = float(rng.uniform(0.3, 2.0))
            eps = float(10.0 ** rng.uniform(-8, -3))
            try:
                n0 = truncation_index(spec, t, eps, bounds)
            except TruncationError:
                continue
            sups = dense_tail_sups(values, np.exp(-spec.eigenvalues * t), eps)
            rows.append((t, eps, n0, dense_brute_index(sups, 200, eps)))
        assert len(rows) == 20
        reporting.write_csv(str(tmp_path / "reference.csv"),
                            ["t", "eps", "bound_n", "brute_n"], rows)
        assert ((out / "truncation.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())


class TestExportSurfaces:
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
        spectrum = tmp_path / "out" / "spectrum"
        assert sorted(p.name for p in spectrum.iterdir()) == [
            "eigenfunctions.npy", "eigenvalues.csv"]
        with open(spectrum / "eigenfunctions.npy", "rb") as fh:
            np.lib.format.read_magic(fh)
            header = np.lib.format.read_array_header_1_0(fh)
        assert header == ((2048, 4), False, np.dtype("<f8"))
        values = np.load(spectrum / "eigenfunctions.npy")
        man = Circle(2 * np.pi, samples=2048)
        expected = compute_spectrum(man, 4).values(man.sample_points())
        assert values.tobytes() == expected.tobytes()

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

    def test_charts_solves_each_grid_once(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "charts.nodes = 21,41,81\n"
                        "charts.steps = 64\ncharts.q_list = 0.02,0.04\n"
                        "charts.sweep_nodes = 81\ncharts.sweep_steps = 32\n")
        nodes, qs, t_max, steps = [21, 41, 81], [0.02, 0.04], 0.25, 64
        solve = charts_mod.solve_fd_kernel
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(charts_mod, "solve_fd_kernel", counted)
        out = tmp_path / "out"
        assert main(["charts", "--config", cfg, "--out", str(out)]) in (0, 1)
        assert len(calls) == len(nodes) + len(qs)
        monkeypatch.undo()

        reference = solve(charts_mod.identity_chart(1), 6.0, nodes[-1], 0.0,
                          t_max, steps=steps, store_every=max(1, steps // 8))
        charts_mod.export_grid_kernel(reference, str(tmp_path / "kernel.csv"))
        assert ((out / "kernel.csv").read_bytes()
                == (tmp_path / "kernel.csv").read_bytes())
        # every grid solved on its own, storing its last step only, and
        # compared with the Gaussian on |x| <= 4
        errors = []
        for n in nodes:
            gk = solve(charts_mod.identity_chart(1), 6.0, n, 0.0, t_max,
                       steps=steps, store_every=steps)
            pts = gk.points()
            exact = charts_mod.euclidean_kernel(pts, gk.times[-1], gk.source)
            near = np.abs(pts[:, 0]) <= 4.0
            errors.append(
                float(np.abs(gk.field(-1)[near] - exact[near]).max()))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        report = (out / "charts_report.txt").read_text().splitlines()
        expected = [f"conv_error_{i}={e!r}" for i, e in enumerate(errors)]
        expected += [f"conv_ratio_{i}={r!r}" for i, r in enumerate(ratios)]
        assert [line for line in report
                if line.startswith("conv_")] == expected

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
        net = cli._embedding_setup(cfg)[2]
        assert (net.fields is not None) == (kind == "kuratowski")

    @pytest.mark.parametrize("count, message", [
        (0, "spectrum.count must lie in [1,"),
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
    """The environment of a CLI subprocess on this checkout's sources;
    ``NAME=value`` sets a variable and ``NAME=None`` unsets it."""
    env = dict(os.environ)
    env.pop("SPECTRAL_EMBED_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


# runs the CLI on its arguments, then prints the process's thread count
_CLI_SCRIPT = (
    "import sys\n"
    "from spectral_embed.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(l for l in fh if l.startswith('Threads:')))\n"
    "sys.exit(code)\n")


def cli_run(argv, out, **overrides):
    """Run ``spectral-embed argv --out out`` in a subprocess under
    ``cli_env(**overrides)``; check that it exits 0 and return its output
    tree (path relative to `out` to bytes) and its stdout, which ends with
    the process's final ``Threads:`` line."""
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_SCRIPT, *argv, "--out", str(out)],
        env=cli_env(**overrides), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    tree = {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
    return tree, proc.stdout


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
    trees = [cli_run(["embed", "--scan", "--config",
                      os.path.join(ROOT, "configs", "circle_h.cfg")],
                     tmp_path / f"threads{threads}",
                     OPENBLAS_NUM_THREADS=threads)[0]
             for threads in ("1", "2")]
    assert "scan.csv" in trees[0] and "ratios.csv" in trees[0]
    assert trees[0] == trees[1]


def test_mesh_scan_bytes_independent_of_blas_threads(tmp_path):
    # the same promise on a mesh, whose eigensolve (ARPACK with a banded
    # Cholesky) and heat-kernel products run through the BLAS pool
    cfg = write_cfg(tmp_path, "manifold.kind = icosphere\n"
                    "manifold.subdivisions = 3\nspectrum.count = 40\n"
                    "embed.map = H\nembed.delta = 0.4\nembed.levels = 4\n")
    trees = [cli_run(["embed", "--scan", "--config", cfg],
                     tmp_path / f"threads{threads}",
                     OPENBLAS_NUM_THREADS=threads)[0]
             for threads in ("1", "2")]
    assert {"scan.csv", "embedding.csv", "ratios.csv"} <= set(trees[0])
    assert trees[0] == trees[1]


def test_mesh_spectrum_bytes_independent_of_blas_threads(tmp_path):
    # the eigenfunction array holds the eigenspace-canonical basis, which
    # must not depend on the BLAS pool either
    cfg = write_cfg(tmp_path, "manifold.kind = icosphere\n"
                    "manifold.subdivisions = 3\nspectrum.count = 40\n")
    trees = []
    for threads in ("1", "2"):
        tree, _ = cli_run(["spectrum", "--config", cfg],
                          tmp_path / f"threads{threads}",
                          OPENBLAS_NUM_THREADS=threads)
        trees.append(tree["spectrum/eigenfunctions.npy"])
    assert np.load(tmp_path / "threads1" / "spectrum" /
                   "eigenfunctions.npy").shape == (642, 40)
    assert trees[0] == trees[1]


def test_spectrum_array_is_byte_stable_and_follows_umask(tmp_path):
    cfg = write_cfg(tmp_path, "manifold.kind = icosphere\n"
                    "manifold.subdivisions = 2\nspectrum.count = 12\n")
    arrays = []
    old = os.umask(0o022)
    try:
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
            path = out / "spectrum" / "eigenfunctions.npy"
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
            arrays.append(path.read_bytes())
    finally:
        os.umask(old)
    assert arrays[0] == arrays[1]


def test_failed_array_write_leaves_no_temp_file(tmp_path, monkeypatch):
    from spectral_embed import reporting
    fdopen = os.fdopen

    class FullDisk:
        """A binary file that takes half the data, then reports ENOSPC."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(reporting.os, "fdopen", lambda fd, mode: (
        FullDisk(fdopen(fd, mode)) if "b" in mode else fdopen(fd, mode)))
    directory = tmp_path / "spectrum"
    with pytest.raises(OSError, match="No space left"):
        export_spectrum(compute_spectrum(make_sphere(1.0, 1), 6),
                        str(directory))
    assert sorted(p.name for p in directory.iterdir()) == ["eigenvalues.csv"]


def test_cli_import_leaves_quadrature_unloaded(tmp_path):
    # scipy.integrate (and the scipy.optimize it pulls in) loads neither with
    # the CLI nor in a constants run: the model volumes are closed form
    report = ("print(*sorted(m for m in ('scipy.integrate', 'scipy.optimize')"
              " if m in sys.modules))\n")
    scripts = ["import sys, spectral_embed.cli\n" + report]
    for i, config in enumerate(["", "constants.n = 3\n"]):
        cfg = write_cfg(tmp_path, config, name=f"c{i}.cfg")
        out = str(tmp_path / f"out{i}")
        scripts.append(
            "import sys\nfrom spectral_embed.cli import main\n"
            f"assert main(['constants', '--config', {cfg!r}, '--out', "
            f"{out!r}]) == 0\n" + report)
    for script in scripts:
        proc = subprocess.run([sys.executable, "-c", script], env=cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


def test_runs_leave_scipy_special_unloaded(tmp_path):
    # the sphere harmonics come from a Legendre recurrence and the
    # truncation tail's Gamma(s, y) from a closed form, so scipy.special
    # loads neither with the CLI nor in the runs that used it
    report = "print('scipy.special' in sys.modules)\n"
    sphere = "manifold.kind = sphere\nspectrum.count = 40\n"
    runs = [
        (["embed", "--scan"], sphere + "embed.map = H\nembed.delta = 0.5\n"
         "embed.levels = 2\n"),
        (["verify", "decay"], "manifold.kind = sphere\nspectrum.count = 225\n"
         "bounds.iota = 3.141592653589793\nbounds.r_h = 1.0\n"
         "heat.t_grid = 0.1,0.5\n"),
        (["verify", "truncation"], CIRCLE_CFG + "spectrum.count = 200\n"
         "verify.samples = 2\n"),
    ]
    scripts = ["import sys, spectral_embed.cli\n" + report]
    for i, (argv, config) in enumerate(runs):
        cfg = write_cfg(tmp_path, config, name=f"c{i}.cfg")
        argv = argv + ["--config", cfg, "--out", str(tmp_path / f"out{i}")]
        scripts.append("import sys\nfrom spectral_embed.cli import main\n"
                       f"assert main({argv!r}) == 0\n" + report)
    for script in scripts:
        proc = subprocess.run([sys.executable, "-c", script], env=cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_thread_cap_applies_before_numpy_loads(tmp_path):
    # the README promises that SPECTRAL_EMBED_THREADS caps the BLAS pools,
    # and that with no thread variable set they run one thread
    for name, cap in (("cap", {"SPECTRAL_EMBED_THREADS": "1"}),
                      ("default", {})):
        _, stdout = cli_run(
            ["spectrum", "--config",
             os.path.join(ROOT, "configs", "circle_h.cfg")],
            tmp_path / name, **(dict.fromkeys(BLAS_VARS) | cap))
        assert stdout.split() == ["Threads:", "1"], name


def test_default_threads_give_one_thread_bytes(tmp_path):
    # a 96^2 grid torus (9,216 vertices) is large enough that a two-thread
    # BLAS pool moves its eigenfunctions at roundoff
    cfg = write_cfg(tmp_path, "manifold.kind = grid_torus\n"
                    "manifold.periods = 6.283185307179586,6.283185307179586\n"
                    "manifold.divisions = 96,96\nspectrum.count = 37\n")
    trees = [cli_run(["spectrum", "--config", cfg], tmp_path / name,
                     **(dict.fromkeys(BLAS_VARS) | threads))[0]
             for name, threads in (("default", {}),
                                   ("one", {"OPENBLAS_NUM_THREADS": "1"}))]
    assert np.load(tmp_path / "one" / "spectrum" /
                   "eigenfunctions.npy").shape == (96 * 96, 37)
    assert trees[0] == trees[1]


def test_shipped_configs_run(tmp_path):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = root / "configs" / "counterexample.cfg"
    assert cfg.exists()
    assert main(["verify", "counterexample", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert main(["embed", "--config", str(root / "configs" / "circle_h.cfg"),
                 "--out", str(tmp_path / "embed")]) == 0


def _unbanded_circle_cfg(tmp_path, kind, t):
    """The shipped circle config without its band keys, for `kind` at t."""
    import pathlib
    shipped = (pathlib.Path(__file__).resolve().parent.parent / "configs"
               / "circle_h.cfg").read_text()
    text = "".join(line for line in shipped.splitlines(keepends=True)
                   if not line.startswith("embed.band_"))
    return write_cfg(tmp_path, text.replace("embed.map = H",
                                            f"embed.map = {kind}")
                     + f"embed.t = {t}\n")


# A map whose scale leaves the doubles sends every near pair to one image,
# or (G at the smallest t) to images apart by subnormal amounts only: the
# run writes its outputs and fails the check, band keys or not.
@pytest.mark.parametrize("kind, t", [("H", "1e300"), ("G", "1e300"),
                                     ("F", "1e300"), ("G", "5e-324")])
def test_collapsed_map_fails_the_run(tmp_path, capsys, kind, t):
    cfg = _unbanded_circle_cfg(tmp_path, kind, t)
    out = tmp_path / "out"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: ")
    report = (out / "embed_report.txt").read_text().splitlines()
    if (kind, t) == ("G", "5e-324"):
        dil_max = next(line for line in report
                       if line.startswith("dil_max="))[len("dil_max="):]
        assert 0.0 < float(dil_max) < np.finfo(float).tiny
        assert f"dil_max = {dil_max} at t = {float(t)!r}" in err
    else:
        assert "dil_max = 0.0" in err and f"t = {float(t)!r}" in err
        assert "dil_max=0.0" in report
    assert (out / "embedding.csv").exists() and (out / "ratios.csv").exists()


# H and F keep a scale of about 1e-242 at the smallest t, so their images
# differ by normal doubles whose squares underflow.  Below t = 1e-200 every
# e^(-lambda t) is 1: the dilatation is the map scale times a fixed ratio.
@pytest.mark.parametrize("kind", ["H", "F"])
def test_map_below_the_squared_range_is_measured(tmp_path, kind):
    from spectral_embed.embed import map_scale
    reports = {}
    for t in ("1e-216", "5e-324"):
        (tmp_path / t).mkdir()
        cfg = _unbanded_circle_cfg(tmp_path / t, kind, t)
        out = tmp_path / t / "out"
        assert main(["embed", "--config", cfg, "--out", str(out)]) == 0
        reports[t] = dict(line.split("=", 1) for line in (
            out / "embed_report.txt").read_text().splitlines())
    for report in reports.values():
        assert 0 < float(report["dil_min"]) <= float(report["dil_max"])
        assert float(report["inj_margin"]) > 0
    ratio = (float(reports["5e-324"]["dil_max"])
             / float(reports["1e-216"]["dil_max"]))
    scales = map_scale(kind, 1, 5e-324) / map_scale(kind, 1, 1e-216)
    assert ratio == pytest.approx(scales, rel=1e-12)


# The fuzzed CLI runs in children forked from one server process that has
# imported spectral_embed.cli (and this module) once, so an example costs its
# run and not an interpreter start.  Each child caps its address space, so a
# config too large for memory fails fast instead of crowding the machine.
def _bounded_main(argv, err_path):
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    os.dup2(os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)
    sys.exit(main(argv))


@functools.cache
def _forkserver():
    import multiprocessing.forkserver
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["spectral_embed.cli", __name__])
    # the server finds this module by its name from the test directory
    env = cli_env(OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.abspath(__file__)), ROOT, env["PYTHONPATH"]])
    with mock.patch.dict(os.environ, env, clear=True):
        multiprocessing.forkserver.ensure_running()
    return ctx


def assert_exit_contract(command, text, expect=(0, 1, 2), seconds=90):
    # every input runs, fails a check or is rejected: an exit code in
    # `expect` within `seconds`, never a traceback; returns the stderr
    with tempfile.TemporaryDirectory() as tmp:
        cfg, err = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "err")
        with open(cfg, "w") as fh:
            fh.write(text)
        proc = _forkserver().Process(target=_bounded_main, args=(
            [*command, "--config", cfg, "--out", os.path.join(tmp, "out")],
            err))
        proc.start()
        proc.join(seconds)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail(f"no exit within {seconds} s:\n{text}")
        with open(err) as fh:
            stderr = fh.read()
    assert proc.exitcode in expect, (text, stderr)
    assert "Traceback" not in stderr, (text, stderr)
    return stderr


# Fuzz strategies come from the config-key table: for every key, values
# inside its type and range (any exit code) and values outside (exit 2).
# Inside draws stay small where a key sets the size of a run; the table's
# ranges themselves are wider.
FUZZ_HIGH = {"manifold.samples": 3000, "manifold.subdivisions": 3,
             "manifold.divisions": 16, "spectrum.count": 80,
             "embed.pairs": 200, "embed.levels": 6, "embed.n": 80,
             "embed.eigencount": 8, "verify.samples": 3,
             "constants.steps": 64, "constants.n": 12, "charts.nodes": 81,
             "charts.steps": 64, "charts.sweep_nodes": 81,
             "charts.sweep_steps": 64, "seed": 2 ** 32}
# sizes that fail fast whatever their value: rejected against the sample
# size, underflowing, or out of memory under the address-space cap
EXTREME_INTS = {"spectrum.count", "embed.n", "embed.levels", "embed.pairs",
                "manifold.samples"}
# every positive float key also draws the smallest and largest doubles
EXTREME_FLOATS = {name for name, key in KEYS.items()
                  if key.type.startswith("float") and key.valid == "> 0"}
FUZZ_KEYS = sorted(set(KEYS) - {"out", "manifold.kind", "manifold.path"})


def _lowest(key):
    """The smallest value inside the range of an int key."""
    op, _, bound = key.valid.partition(" ")
    if op == ">":
        return 1
    return int(bound) if op == ">=" else int(op[1:-1])


def _inside_item(name):
    key = KEYS[name]
    if key.type.startswith("int"):
        lo = _lowest(key)
        ints = st.integers(lo, min(FUZZ_HIGH.get(name, lo + 8),
                                   key.cap or MAX_FLOATS))
        if name in EXTREME_INTS:
            ints |= st.sampled_from([10 ** 9, 10 ** 18, 2 ** 63])
        return ints
    if key.valid == "any":
        return st.floats(-4.0, 4.0)
    floats = st.floats(1e-3, 4.0)
    if name in EXTREME_FLOATS:
        floats |= st.sampled_from([5e-324, 1e300])
    return floats | st.just(0.0) if key.valid == ">= 0" else floats


def inside(name):
    key = KEYS[name]
    if key.type == "choice":
        return st.sampled_from(key.valid.split(" | "))
    if key.type.endswith("s"):
        return st.lists(_inside_item(name), min_size=key.least,
                        max_size=4).map(lambda v: ",".join(map(repr, v)))
    return _inside_item(name).map(repr)


def outside(name):
    if name not in KEYS:
        return st.sampled_from(["5", "x"])
    key = KEYS[name]
    if key.type == "choice":
        return st.just("bogus")
    bad = ["x", ""]
    if key.type.startswith("int"):
        lo = _lowest(key)
        bad += ["4.7", str(lo - 1), str(min(lo - 1, -7))]
        if key.cap is not None:
            bad.append(str(key.cap + 1))
        if key.valid.startswith("["):
            bad.append(str(int(key.valid.split()[1][:-1]) + 1))
    else:
        bad += ["nan", "inf", "-1e999"]
        bad += {"> 0": ["0", "-1", "-5e-324"], ">= 0": ["-1"]}.get(
            key.valid, [])
    if not key.type.endswith("s"):
        return st.sampled_from(bad)
    # one bad entry among good ones, or too few entries
    return (st.tuples(inside(name), st.sampled_from([b for b in bad if b]))
            .map(",".join) | st.sampled_from([""] + (
                ["3" if key.type == "ints" else "1.0"] * (key.least > 1))))


def fuzz_values(names):
    """A config text with in-range values for some of `names` and, at
    random, one out-of-range value; the exit codes it may end with."""
    def text(chosen, bad):
        lines = "".join(f"{n} = {v}\n" for n, v in chosen)
        if bad is None:
            return lines, (0, 1, 2)
        return lines + f"{bad[0]} = {bad[1]}\n", (2,)
    chosen = st.lists(st.sampled_from(names), unique=True, max_size=6)
    chosen = chosen.flatmap(lambda picked: st.tuples(
        *[st.tuples(st.just(n), inside(n)) for n in picked]))
    bad = st.none() | st.sampled_from(
        names + ["spectrum.cout"]).flatmap(
            lambda n: st.tuples(st.just(n), outside(n)))
    return st.builds(text, chosen, bad)


TWO_PI = repr(2 * np.pi)
FUZZ_BACKENDS = st.one_of(
    st.sampled_from(["manifold.kind = circle\n", "manifold.kind = sphere\n",
                     "manifold.kind = mesh\nmanifold.path = {mesh}\n"]),
    st.sampled_from([f"{TWO_PI},{TWO_PI}", f"{TWO_PI},{0.1 * 2 * np.pi!r}",
                     "1.0,2.0,3.0"]).map(
        lambda p: f"manifold.kind = torus\nmanifold.periods = {p}\n"),
    st.integers(0, 3).map(lambda k: "manifold.kind = icosphere\n"
                          f"manifold.subdivisions = {k}\n"),
    st.tuples(st.integers(3, 16), st.integers(3, 16)).map(
        lambda d: f"manifold.kind = grid_torus\nmanifold.periods = "
        f"{TWO_PI},{TWO_PI}\nmanifold.divisions = {d[0]},{d[1]}\n"))
# run-size keys at cheap values, which the drawn values may override
FUZZ_BASE = ("spectrum.count = 24\nembed.delta = 0.5\nembed.levels = 3\n"
             "embed.pairs = 60\nbounds.r_h = 1.0\nverify.samples = 2\n"
             "constants.steps = 8\ncharts.nodes = 21,41\ncharts.steps = 32\n"
             "charts.sweep_nodes = 41\ncharts.sweep_steps = 32\n")
FUZZ_COMMANDS = ([["spectrum"], ["embed"], ["embed", "--scan"],
                  ["constants"], ["charts"]]
                 + [["verify", target] for target in VERIFY_TARGETS])


@pytest.fixture(scope="module")
def off_mesh(tmp_path_factory):
    ico = make_sphere(1.0, 1)
    path = tmp_path_factory.mktemp("mesh") / "ico1.off"
    path.write_text("".join(
        [f"OFF\n{len(ico.vertices)} {len(ico.faces)} 0\n"]
        + [f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in ico.vertices]
        + [f"3 {a} {b} {c}\n" for a, b, c in ico.faces]))
    return str(path)


@settings(max_examples=150, deadline=None)
@given(backend=FUZZ_BACKENDS, command=st.sampled_from(FUZZ_COMMANDS),
       values=fuzz_values(FUZZ_KEYS))
def test_any_config_exits_by_the_contract(off_mesh, backend, command, values):
    text, expect = values
    assert_exit_contract(command, backend.format(mesh=off_mesh) + FUZZ_BASE
                         + text, expect)


# sizes stay at most 81 nodes and 64 steps, so each run takes well under a
# second
@settings(max_examples=20, deadline=None)
@given(values=fuzz_values([n for n in FUZZ_KEYS if n.startswith("charts.")]))
def test_any_charts_config_exits_by_the_contract(values):
    text, expect = values
    assert_exit_contract(["charts"], text, expect)


# Manifold sizes at the edge of the double range fail at once: a circle of
# length 1e300 has a first nonzero eigenvalue that underflows, the two
# meshes have a squared bounding-box diagonal of 0 and inf, a radius of
# 1e300 overflows the sphere's area, and a circle length or torus period
# of 5e-324 overflows the closed-form sample grid.
CIRCLE_1E300 = "manifold.kind = circle\nmanifold.length = 1e300\n"
BOUNDING_BOX = "degenerate bounding box: squared diagonal"
CIRCLE_TINY = "manifold.kind = circle\nmanifold.length = 5e-324\n"
TORUS_TINY = "manifold.kind = torus\nmanifold.periods = 5e-324,1.0\n"


@pytest.mark.parametrize("command, text, expect, message", [
    (["spectrum"], CIRCLE_1E300, (1, 2), ""),
    (["verify", "varadhan"], CIRCLE_1E300 + "bounds.r_h = 1.0\n", (1, 2), ""),
    (["verify", "decay"], CIRCLE_1E300 + "bounds.r_h = 1.0\n", (1, 2), ""),
    (["spectrum"], "manifold.kind = icosphere\nmanifold.radius = 5e-324\n",
     (2,), BOUNDING_BOX),
    (["spectrum"], "manifold.kind = grid_torus\n"
     "manifold.periods = 1e300,1.0\n", (2,), BOUNDING_BOX),
    (["spectrum"], "manifold.kind = sphere\nmanifold.radius = 1e300\n",
     (2,), "manifold.radius"),
    (["embed"], "manifold.kind = icosphere\nmanifold.radius = 1e300\n"
     "embed.delta = 0.5\n", (2,), "manifold.radius"),
    (["spectrum"], CIRCLE_TINY, (2,), "manifold.length"),
    (["embed"], CIRCLE_TINY + "embed.delta = 0.5\n", (2,),
     "manifold.length"),
    (["verify", "isometry"], TORUS_TINY + "embed.delta = 0.5\n", (2,),
     "manifold.periods"),
], ids=["circle-spectrum", "circle-varadhan", "circle-decay", "icosphere",
        "grid_torus", "sphere-1e300", "icosphere-1e300", "circle-5e-324",
        "circle-embed-5e-324", "torus-5e-324"])
def test_extreme_manifold_size_exits_at_once(command, text, expect, message):
    assert message in assert_exit_contract(command, text, expect, seconds=5)
