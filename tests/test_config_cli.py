"""Configuration ingestion and the command-line surface."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from starkshaper import analysis
from starkshaper.cli import main
from starkshaper.config import config_from_dict, load_config
from starkshaper.errors import ConfigError
from starkshaper.planner import (
    DeformationComponent,
    MirrorDeformation,
    PulseSchedule,
    PulseSegment,
    RadialProfile,
    load_schedule,
    schedule_to_json_dict,
)
from starkshaper.specfun import J1_PEAK_VALUE

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

BASE = {
    "pattern": {"kind": "annulus", "amplitude": 1.0},
    "decomposition": {"n_max": 18, "m_max": 0},
    "drive": {"u_hz": 1.0e4, "omega_hz": 1.8e5},
    "mode": "serial",
    "crystal": {"shells": 3, "spacing": 0.3},
}


def write_yaml(path, text):
    path.write_text(text)
    return str(path)


NUMBERS = ("pattern.amplitude", "drive.psi", "drive.u_hz", "drive.u_rad_s", "drive.omega_hz",
           "drive.omega_rad_s", "crystal.spacing", "crystal.orientation", "simulation.tolerance",
           "rwa_study.amplitude", "rwa_study.t_max_s")
POSITIVE = tuple(key for key in NUMBERS if key not in ("pattern.amplitude", "drive.psi",
                                                       "crystal.orientation"))
COUNTS = ("decomposition.n_max", "decomposition.m_max", "crystal.shells", "rwa_study.order",
          "rwa_study.sample_count")
SECTIONS = ("pattern", "decomposition", "drive", "crystal", "simulation", "rwa_study")
DROP = object()


def refusal(edits, where, name):
    return pytest.param(edits, where, id=name)


REFUSALS = [
    refusal({"surprise": 1}, "<root>", "unknown-root-key"),
    *(refusal({f"{s}.surprise": 1}, s, f"unknown-key-{s}") for s in SECTIONS),
    refusal({"simulation.threads": 4}, "simulation", "simulation-threads"),
    *(refusal({key: DROP}, "<root>", f"missing-{key}")
      for key in ("pattern", "decomposition", "drive", "mode")),
    *(refusal({key: DROP}, key.split(".")[0], f"missing-{key}")
      for key in ("pattern.kind", "pattern.amplitude", "decomposition.n_max", "decomposition.m_max")),
    refusal({"pattern.kind": "heptagon"}, "pattern/kind", "bad-kind"),
    refusal({"mode": "batch"}, "mode", "bad-mode"),
    *(refusal({key: bad}, key.replace(".", "/"), f"{key}={name}")
      for key in NUMBERS + COUNTS
      for name, bad in (("true", True), ("string", "1.0"), ("null", None), ("list", [1.0]))),
    *(refusal({key: 3.5}, key.replace(".", "/"), f"{key}=3.5") for key in COUNTS),
    *(refusal({key: bad}, key.replace(".", "/"), f"{key}={bad}")
      for key in POSITIVE for bad in (0, -1.0)),
    *(refusal({f"rwa_study.{key}": [bad]}, f"rwa_study/{key}/0", f"{key}=[{bad!r}]")
      for key in ("omega_hz", "omega_rad_s") for bad in (0, -1.0, True, "1.0")),
    refusal({"crystal.shells": 0}, "crystal/shells", "shells=0"),
    refusal({"rwa_study.sample_count": 1}, "rwa_study/sample_count", "sample_count=1"),
    refusal({"rwa_study.order": 0}, "rwa_study/order", "order=0"),
    refusal({"decomposition.n_max": -1}, "decomposition/n_max", "n_max=-1"),
    refusal({"decomposition.m_max": -1}, "decomposition/m_max", "m_max=-1"),
    *(refusal({f"rwa_study.{key}": []}, f"rwa_study/{key}", f"{key}=[]")
      for key in ("omega_hz", "omega_rad_s")),
    refusal({"rwa_study.omega_hz": 1.8e5}, "rwa_study/omega_hz", "omega_hz-not-a-list"),
    *(refusal({s: bad}, s, f"{s}={bad!r}") for s in SECTIONS for bad in (3, [])),
    refusal({"pattern.params": 3}, "pattern/params", "params=3"),
]


def edited(edits):
    """BASE with each dotted key set (or removed, for DROP); missing
    sections are created."""
    payload = json.loads(json.dumps(BASE))
    for dotted, value in edits.items():
        *sections, key = dotted.split(".")
        node = payload
        for section in sections:
            node = node.setdefault(section, {})
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return payload


class TestConfigParsing:
    def test_hz_and_rad_s_spellings_agree(self):
        cfg_hz = config_from_dict(dict(BASE))
        payload = json.loads(json.dumps(BASE))
        payload["drive"] = {"u_rad_s": 2 * np.pi * 1.0e4, "omega_rad_s": 2 * np.pi * 1.8e5}
        cfg_rad = config_from_dict(payload)
        assert abs(cfg_hz.u_rad_s - cfg_rad.u_rad_s) < 1e-9
        assert abs(cfg_hz.omega_rad_s - cfg_rad.omega_rad_s) < 1e-9
        assert cfg_hz.u_rad_s == pytest.approx(2 * np.pi * 1e4, rel=1e-15)

    @pytest.mark.parametrize("drive", [
        {"u_hz": 1e4, "u_rad_s": 6e4, "omega_hz": 1.8e5},   # both u spellings
        {"omega_hz": 1.8e5},                                  # no u at all
        {"u_hz": 1e4},                                        # no omega
        {"u_hz": 1e4, "omega_hz": 1.8e5, "omega_rad_s": 1.0},
    ])
    def test_frequency_xor_enforced(self, drive):
        payload = json.loads(json.dumps(BASE))
        payload["drive"] = drive
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(payload)

    def test_schema_rejects_unknown_keys_and_kinds(self):
        payload = json.loads(json.dumps(BASE))
        payload["surprise"] = 1
        with pytest.raises(ConfigError, match="config invalid"):
            config_from_dict(payload)
        payload = json.loads(json.dumps(BASE))
        payload["pattern"]["kind"] = "heptagon"
        with pytest.raises(ConfigError, match="config invalid"):
            config_from_dict(payload)

    @pytest.mark.parametrize("edits, where", REFUSALS)
    def test_refusals_name_the_path(self, edits, where):
        with pytest.raises(ConfigError, match=f"^config invalid at {re.escape(where)}: "):
            config_from_dict(edited(edits))

    def test_whole_float_count_loads_as_int(self):
        cfg = config_from_dict(edited({"decomposition.n_max": 18.0}))
        assert cfg == config_from_dict(BASE) and type(cfg.n_max) is int

    def test_invariants(self):
        payload = json.loads(json.dumps(BASE))
        payload["decomposition"] = {"n_max": 5, "m_max": 9}
        with pytest.raises(ConfigError, match="n_max >= m_max"):
            config_from_dict(payload)
        payload = json.loads(json.dumps(BASE))
        payload["simulation"] = {"tolerance": 1e-14}
        with pytest.raises(ConfigError, match="floor"):
            config_from_dict(payload)
        # finite in Hz, but not once multiplied by 2 pi
        for edit in ({"drive.u_hz": 1e308}, {"rwa_study.omega_hz": [1e308]}):
            with pytest.raises(ConfigError, match="rates must be finite in rad/s"):
                config_from_dict(edited(edit))

    def test_rwa_section(self):
        payload = json.loads(json.dumps(BASE))
        payload["rwa_study"] = {"omega_hz": [43.8e3, 180e3], "sample_count": 100}
        cfg = config_from_dict(payload)
        assert cfg.rwa["omega_list"] == pytest.approx(
            [2 * np.pi * 43.8e3, 2 * np.pi * 180e3], rel=1e-15
        )
        assert cfg.rwa["sample_count"] == 100 and cfg.rwa["amplitude"] == 0.25
        payload["rwa_study"]["omega_rad_s"] = [1.0]
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(payload)

    def test_yaml_scientific_notation_without_sign(self, tmp_path):
        # YAML 1.1 would read 1.0e4 as a string; the loader must not
        path = write_yaml(tmp_path / "c.yaml", """
pattern: {kind: annulus, amplitude: 1.0}
decomposition: {n_max: 18, m_max: 0}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: serial
""")
        cfg = load_config(path)
        assert cfg.u_rad_s == pytest.approx(2 * np.pi * 1e4, rel=1e-15)

    def test_cli_import_loads_only_the_runtime_dependencies(self):
        # the config check is plain Python, so starting a command pulls in
        # no distribution beyond those pyproject.toml declares
        code = """if True:
            import json, sys
            from importlib.metadata import packages_distributions
            before = set(sys.modules)
            import starkshaper.cli, starkshaper.analysis
            names = {m.partition(".")[0] for m in set(sys.modules) - before}
            owners = packages_distributions()
            print(json.dumps(sorted({d for n in names for d in owners.get(n, ())})))
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert set(json.loads(done.stdout)) <= {"starkshaper", "numpy", "click", "PyYAML"}

    def test_loader_failures(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")
        bad = write_yaml(tmp_path / "bad.yaml", "pattern: [unclosed")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(bad)
        scalar = write_yaml(tmp_path / "scalar.yaml", "42\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(scalar)


SMALL_ANNULUS_YAML = """
pattern: {kind: annulus, amplitude: 1.0}
decomposition: {n_max: 18, m_max: 0}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: serial
crystal: {shells: 3, spacing: 0.3}
"""

ELLIPTICAL_SERIAL_YAML = """
pattern: {kind: elliptical_gaussian, amplitude: 0.5}
decomposition: {n_max: 26, m_max: 10}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: serial
crystal: {shells: 3, spacing: 0.3}
"""

# the annulus edge is still unresolved by the finest decomposition rule
SHARP_ANNULUS_YAML = """
pattern:
  kind: annulus
  amplitude: 1.0
  params: {r1: 0.45, r2: 0.55, kappa: 1000.0}
decomposition: {n_max: 18, m_max: 0}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: serial
"""

DISPLACED_PARALLEL_YAML = """
pattern: {kind: displaced_gaussian, amplitude: 0.3}
decomposition: {n_max: 40, m_max: 9}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: parallel
crystal: {shells: 3, spacing: 0.3}
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def small_schedule(tmp_path_factory):
    """schedule.json planned from SMALL_ANNULUS_YAML."""
    out = tmp_path_factory.mktemp("small")
    cfg = write_yaml(out / "run.yaml", SMALL_ANNULUS_YAML)
    for args in (["decompose"], ["plan", "--expansion", str(out / "expansion.json")]):
        assert CliRunner().invoke(main, [*args, "--config", cfg, "--out", str(out)]).exit_code == 0
    return str(out / "schedule.json")


class TestCliPipeline:
    def test_decompose_plan_simulate(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        out = str(tmp_path / "art")

        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        expansion = json.loads((tmp_path / "art" / "expansion.json").read_text())
        assert all(entry["m"] == 0 for entry in expansion["coefficients"])
        assert (tmp_path / "art" / "error_map.csv").exists()

        res = runner.invoke(main, [
            "plan", "--config", cfg, "--expansion", f"{out}/expansion.json",
            "--out", out,
        ])
        assert res.exit_code == 0, res.output
        schedule = load_schedule(tmp_path / "art" / "schedule.json")
        assert len(schedule.segments) == 1
        validation = json.loads((tmp_path / "art" / "validation.json").read_text())
        assert validation["ok"] is True

        res = runner.invoke(main, [
            "simulate", "--config", cfg, "--schedule", f"{out}/schedule.json",
            "--out", out,
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "art" / "report.json").read_text())
        assert report["max_infidelity"] < 1e-2
        assert report["ion_count"] == 37
        assert (tmp_path / "art" / "evolution.csv").exists()
        assert (tmp_path / "art" / "histogram.csv").exists()

    def test_decompose_is_deterministic(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        for d in ("a", "b"):
            res = runner.invoke(main, ["decompose", "--config", cfg,
                                       "--out", str(tmp_path / d)])
            assert res.exit_code == 0, res.output
        for name in ("expansion.json", "error_map.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_plan_serial_elliptical_has_six_segments(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", ELLIPTICAL_SERIAL_YAML)
        out = str(tmp_path / "art")
        assert runner.invoke(main, ["decompose", "--config", cfg, "--out", out]).exit_code == 0
        res = runner.invoke(main, [
            "plan", "--config", cfg, "--expansion", f"{out}/expansion.json", "--out", out,
        ])
        assert res.exit_code == 0, res.output
        schedule = load_schedule(tmp_path / "art" / "schedule.json")
        assert len(schedule.segments) == 6

    def test_plan_parallel_displaced_comb(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", DISPLACED_PARALLEL_YAML)
        out = str(tmp_path / "art")
        assert runner.invoke(main, ["decompose", "--config", cfg, "--out", out]).exit_code == 0
        res = runner.invoke(main, [
            "plan", "--config", cfg, "--expansion", f"{out}/expansion.json", "--out", out,
        ])
        assert res.exit_code == 0, res.output
        schedule = load_schedule(tmp_path / "art" / "schedule.json")
        assert len(schedule.segments) == 1
        assert list(schedule.segments[0].beatnotes) == list(range(10))

    def test_rwa_study_outputs(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML + """
rwa_study: {omega_hz: [180.0e3], sample_count: 60}
""")
        out = str(tmp_path / "rwa")
        res = runner.invoke(main, ["rwa-study", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "rwa" / "rwa_series_180000hz.csv").exists()
        assert (tmp_path / "rwa" / "rwa_hist_180000hz.csv").exists()
        summary = json.loads((tmp_path / "rwa" / "rwa_summary.json").read_text())
        assert summary["series"][0]["max_commensurate_infidelity"] < 1e-9

    def test_rwa_study_requires_section(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        res = runner.invoke(main, ["rwa-study", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code != 0

    @pytest.mark.parametrize("section, bound", [("Quick start", 1e-2), ("Hundreds of ions", 1e-3)],
                             ids=["quick-start", "hundreds-of-ions"])
    def test_readme_quick_start_runs_as_written(self, runner, tmp_path, monkeypatch, section, bound):
        quick = README.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
        config = re.search(r"```yaml\n# (\S+)\n(.*?)```", quick, re.S)
        assert config, f"{section} has no yaml config block"
        commands = [
            shlex.split(line, comments=True)
            for line in re.search(r"```sh\n(.*?)```", quick, re.S)[1].splitlines()
            if line.startswith("starkshaper ")
        ]
        assert [c[1] for c in commands] == ["decompose", "plan", "simulate"]
        monkeypatch.chdir(tmp_path)
        (tmp_path / config[1]).write_text(config[2])
        for command in commands:
            res = runner.invoke(main, command[1:])
            assert res.exit_code == 0, f"{shlex.join(command)}: {res.output}"
        out = commands[-1][commands[-1].index("--out") + 1]
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["max_infidelity"] < bound

    def test_readme_python_api_runs_as_written(self, capsys):
        api = README.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
        code = re.search(r"```python\n(.*?)```", api, re.S)
        assert code, "Python API section has no python block"
        exec(compile(code[1], "README.md", "exec"), {})
        assert 0.0 < float(capsys.readouterr().out) < 1e-2

    def test_reproduce_all_runs_each_scenario_once(self, runner, tmp_path, monkeypatch):
        annulus_only = {k: v for k, v in analysis.SCENARIOS.items() if k[0] == "annulus"}
        assert len(annulus_only) == 2
        monkeypatch.setattr(analysis, "SCENARIOS", annulus_only)
        res = runner.invoke(main, ["reproduce", "all", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert res.output.count("[pass]") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "annulus_serial_0.001", "annulus_serial_0.01",
        ]
        for sub in tmp_path.iterdir():
            assert (sub / "report.json").exists()

    def test_reproduce_all_exits_3_on_a_missed_threshold(self, runner, tmp_path, monkeypatch):
        key = ("annulus", "serial", 1e-2)
        config, _ = analysis.SCENARIOS[key]
        monkeypatch.setattr(analysis, "SCENARIOS", {key: (config, 1e-9)})
        res = runner.invoke(main, ["reproduce", "all", "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "[FAIL]" in res.output

    @pytest.mark.parametrize("key", list(analysis.SCENARIOS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]:g}")
    def test_cli_pipeline_matches_run_scenario(self, runner, tmp_path, key):
        """The CLI stages, fed a config written from a registry run's
        parameters, give that run's schedule hash, phases and score."""
        rep = analysis.run_scenario(*key)
        p = rep.parameters
        cfg = write_yaml(tmp_path / "run.yaml", (
            f"pattern: {{kind: {p['pattern_kind']}, amplitude: {p['amplitude']!r}}}\n"
            f"decomposition: {{n_max: {p['n_max']}, m_max: {p['m_max']}}}\n"
            f"drive: {{u_rad_s: {p['u_rad_s']!r}, omega_rad_s: {p['omega_rad_s']!r}, "
            f"psi: {p['psi']!r}}}\n"
            f"mode: {key[1]}\n"
        ))
        out = tmp_path / "art"
        for args in (
            ["decompose"],
            ["plan", "--expansion", str(out / "expansion.json")],
            ["simulate", "--schedule", str(out / "schedule.json")],
        ):
            res = runner.invoke(main, [*args, "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["schedule_sha256"] == rep.schedule_sha256
        assert report["max_infidelity"] == rep.max_infidelity
        with (out / "evolution.csv").open() as fh:
            theta = [float(line.split(",")[3]) for line in list(fh)[1:]]
        np.testing.assert_array_equal(theta, rep.result.theta)

    def test_reproduce_runs_a_figure(self, runner, tmp_path):
        res = runner.invoke(main, ["reproduce", "fig4", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "pass" in res.output
        assert (tmp_path / "annulus_serial_0.01" / "report.json").exists()


class TestCliExitCodes:
    def test_config_error_is_exit_2(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "bad.yaml", """
pattern: {kind: annulus, amplitude: 1.0}
decomposition: {n_max: 5, m_max: 9}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: serial
""")
        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    # the ids name the RunConfig field each key feeds
    @pytest.mark.parametrize("key, path", [
        ("amplitude", "pattern/amplitude"), ("psi", "drive/psi"), ("u_rad_s", "drive/u_rad_s"),
        ("omega_rad_s", "drive/omega_rad_s"), ("tolerance", "simulation/tolerance"),
    ], ids=["amplitude-pattern_amplitude", "psi-psi", "u_rad_s-u_rad_s",
            "omega_rad_s-omega_rad_s", "tolerance-tolerance"])
    def test_nan_in_config_is_exit_2_naming_the_key(self, runner, tmp_path, key, path):
        values = {"amplitude": 1.0, "psi": -1.5, "u_rad_s": 6.3e4, "omega_rad_s": 1.1e6,
                  "tolerance": 1e-12, key: ".nan"}
        cfg = write_yaml(tmp_path / "nan.yaml", """
pattern: {{kind: annulus, amplitude: {amplitude}}}
decomposition: {{n_max: 18, m_max: 0}}
drive: {{u_rad_s: {u_rad_s}, omega_rad_s: {omega_rad_s}, psi: {psi}}}
mode: serial
simulation: {{tolerance: {tolerance}}}
""".format(**values))
        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert f"config invalid at {path}: nan is not a finite number" in res.output

    @pytest.mark.parametrize("command, value", [
        *(("simulate", v) for v in ("1e-14", "0", "-1", "nan", "inf")),
        ("reproduce", "1e-14"),
    ])
    def test_tolerance_override_outside_the_floor_is_exit_2_naming_it(self, runner, tmp_path,
                                                                      small_schedule, command, value):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        args = (["simulate", "--config", cfg, "--schedule", small_schedule] if command == "simulate"
                else ["reproduce", "fig4"])
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "o"), "--tolerance", value])
        assert res.exit_code == 2, res.output
        assert f"error: tolerance {float(value):g} is not finite and >= the certifiable" in res.output

    @pytest.mark.parametrize("pattern, name, shown", [
        ("{kind: elliptical_gaussian, amplitude: 0.5, params: {eta_x: .inf}}", "eta_x", "inf"),
        ("{kind: annulus, amplitude: 1.0, params: {kappa: true}}", "kappa", "True"),
        ("{kind: displaced_gaussian, amplitude: 3.0, params: {delta_x: .nan}}", "delta_x", "nan"),
        ("{kind: annulus, amplitude: 1.0, params: {r1: '0.4'}}", "r1", "'0.4'"),
    ])
    def test_pattern_parameter_not_a_number_is_exit_2_naming_it(self, runner, tmp_path, pattern,
                                                                name, shown):
        cfg = write_yaml(tmp_path / "bad.yaml", f"""
pattern: {pattern}
decomposition: {{n_max: 18, m_max: 4}}
drive: {{u_hz: 1.0e4, omega_hz: 1.8e5}}
mode: serial
""")
        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert f"parameter {name} must be a finite number, got {shown}" in res.output

    @pytest.mark.parametrize("command, edit, path", [
        ("simulate", "crystal: {shells: 3, spacing: .nan}", "crystal/spacing"),
        ("simulate", "crystal: {shells: 3, spacing: 0.3, orientation: .inf}", "crystal/orientation"),
        ("simulate", "drive: {u_hz: 1%s, omega_hz: 1.8e5}" % ("0" * 400), "drive/u_hz"),
        ("rwa-study", "rwa_study: {omega_hz: [.nan]}", "rwa_study/omega_hz/0"),
        ("rwa-study", "rwa_study: {omega_hz: [1.8e5], t_max_s: .inf}", "rwa_study/t_max_s"),
    ], ids=["spacing-nan", "orientation-inf", "u_hz-401-digits", "omega_hz-nan", "t_max_s-inf"])
    def test_non_finite_config_value_is_exit_2_naming_the_path(self, runner, tmp_path, small_schedule,
                                                               command, edit, path):
        section = edit.partition(":")[0]
        body = "\n".join(line for line in SMALL_ANNULUS_YAML.splitlines()
                         if not line.startswith(f"{section}:"))
        cfg = write_yaml(tmp_path / "bad.yaml", f"{body}\n{edit}\n")
        extra = ["--schedule", small_schedule] if command == "simulate" else []
        res = runner.invoke(main, [command, "--config", cfg, *extra, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert f"config invalid at {path}: " in res.output and "finite number" in res.output

    def test_quadrature_error_is_exit_3(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "sharp.yaml", SHARP_ANNULUS_YAML)
        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 3
        assert "768x4096 rules differ by" in res.output

    def test_precompensation_error_is_exit_4(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "hot.yaml", """
pattern: {kind: annulus, amplitude: 3.0}
decomposition: {n_max: 18, m_max: 0}
drive: {u_hz: 1.0e4, omega_hz: 1.8e5}
mode: serial
""")
        out = str(tmp_path / "o")
        assert runner.invoke(main, ["decompose", "--config", cfg, "--out", out]).exit_code == 0
        res = runner.invoke(main, [
            "plan", "--config", cfg, "--expansion", f"{out}/expansion.json", "--out", out,
        ])
        assert res.exit_code == 4

    def test_unknown_figure_is_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["reproduce", "fig99", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "'all'" in res.output

    @pytest.mark.parametrize("argv, code", [
        (["reproduce", "fig2"], 2),
        (["decompose", "--config", "{sharp}"], 3),
        (["plan", "--config", "{small}", "--expansion", "{tmp}/missing.json"], 2),
        (["simulate", "--config", "{small}", "--schedule", "{schedule}", "--tolerance", "nan"], 2),
    ], ids=["reproduce-unknown-figure", "decompose-unconverged", "plan-missing-expansion",
            "simulate-nan-tolerance"])
    def test_refused_command_leaves_no_out_dir(self, runner, tmp_path, small_schedule, argv, code):
        files = {"sharp": write_yaml(tmp_path / "sharp.yaml", SHARP_ANNULUS_YAML),
                 "small": write_yaml(tmp_path / "small.yaml", SMALL_ANNULUS_YAML),
                 "schedule": small_schedule, "tmp": tmp_path}
        out = tmp_path / "figx" / "sub"
        res = runner.invoke(main, [arg.format(**files) for arg in argv] + ["--out", str(out)])
        assert res.exit_code == code, res.output
        assert not (tmp_path / "figx").exists()

    def test_config_setting_threads_is_exit_2(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "threads.yaml", SMALL_ANNULUS_YAML + """
simulation: {tolerance: 1.0e-12, threads: 4}
""")
        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "threads" in res.output

    def test_sampled_format_1_schedule_is_exit_2(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        omega = 2 * np.pi * 1.8e5
        legacy = {
            "mode": "serial", "omega_rad_s": omega, "target_u_rad_s": 2 * np.pi * 1.0e4,
            "gate_time_s": 25e-6, "amplitude": 1.0, "dm_reset_time_s": 0.0,
            "rho_grid": [0.0, 0.5, 1.0],
            "segments": [{
                "duration_s": 25e-6, "u_rad_s": 2 * np.pi * 1.0e4, "psi": -np.pi / 2,
                "beatnotes": [0], "components": [{"m": 0, "even": [1.0, 1.0, 1.0], "odd": None}],
            }],
        }
        (tmp_path / "schedule.json").write_text(json.dumps(legacy))
        res = runner.invoke(main, [
            "simulate", "--config", cfg, "--schedule", str(tmp_path / "schedule.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "re-run `starkshaper plan`" in res.output

    def test_imported_j1inv_record_beyond_j1_max_is_exit_2(self, runner, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        omega = 2 * np.pi * 1.8e5
        part = RadialProfile(2, (1.0,), "j1inv", 0.7)  # |scale * R_2^2| reaches 0.7 at the rim
        seg = PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(2, even=part),)),
            beatnotes=(2,), duration_s=3 * 2 * np.pi / omega, u_rad_s=1e4, psi=-np.pi / 2,
        )
        sched = PulseSchedule(
            mode="serial", omega_rad_s=omega, segments=(seg,),
            target_u_rad_s=1e4, gate_time_s=seg.duration_s, amplitude=0.7,
        )
        (tmp_path / "schedule.json").write_text(json.dumps(schedule_to_json_dict(sched)))
        res = runner.invoke(main, [
            "simulate", "--config", cfg, "--schedule", str(tmp_path / "schedule.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "0.700000" in res.output and f"{J1_PEAK_VALUE:.6f}" in res.output

    @pytest.mark.parametrize("field", ["duration_s", "u_rad_s", "omega_rad_s", "psi"])
    def test_nan_in_schedule_is_exit_2_naming_the_field(self, runner, tmp_path, field):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        omega = 2 * np.pi * 1.8e5
        seg = PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(2, even=RadialProfile(2, (0.1,))),)),
            beatnotes=(2,), duration_s=3 * 2 * np.pi / omega, u_rad_s=1e4, psi=-np.pi / 2,
        )
        sched = PulseSchedule(
            mode="serial", omega_rad_s=omega, segments=(seg,),
            target_u_rad_s=1e4, gate_time_s=seg.duration_s, amplitude=0.1,
        )
        payload = schedule_to_json_dict(sched)
        record = payload if field == "omega_rad_s" else payload["segments"][0]
        record[field] = float("nan")
        (tmp_path / "schedule.json").write_text(json.dumps(payload))
        res = runner.invoke(main, [
            "simulate", "--config", cfg, "--schedule", str(tmp_path / "schedule.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2, res.output
        rule = "finite" if field == "psi" else "positive and finite"
        assert f"{field} must be {rule}, got nan" in res.output

    @pytest.mark.parametrize("text", [
        '{"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": [{"n": 6, "m": 2, "alpha": 1.0}]}',
        '{"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": [{"n": 3, "m": 0, "alpha": 1.0}]}',
        '{"amplitude": 1.0, "n_max": 4, "coefficients": []}',
        '{"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": '
        '[{"n": 0, "m": 0, "alpha": 0.5}, {"n": 2, "m": 2, "alpha": NaN}]}',
        "not json",
        None,  # no file at all
    ], ids=["outside-box", "odd-n-minus-m", "missing-key", "non-finite", "not-json", "missing-file"])
    def test_malformed_expansion_is_exit_2(self, runner, tmp_path, text):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        path = tmp_path / "expansion.json"
        if text is not None:
            path.write_text(text)
        res = runner.invoke(main, [
            "plan", "--config", cfg, "--expansion", str(path), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2, res.output
        assert f"cannot load expansion {path}" in res.output

    @pytest.mark.parametrize("text", ["{not json", None], ids=["not-json", "missing-file"])
    def test_unreadable_schedule_is_exit_2(self, runner, tmp_path, text):
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML)
        path = tmp_path / "schedule.json"
        if text is not None:
            path.write_text(text)
        res = runner.invoke(main, [
            "simulate", "--config", cfg, "--schedule", str(path), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2, res.output
        assert f"cannot load schedule {path}" in res.output

    def test_missing_tabulated_csv_is_exit_2(self, runner, tmp_path):
        table = tmp_path / "absent.csv"
        cfg = write_yaml(tmp_path / "run.yaml", SMALL_ANNULUS_YAML.replace(
            "{kind: annulus, amplitude: 1.0}", f"{{kind: tabulated, amplitude: 1.0, params: {{path: '{table}'}}}}"
        ))
        res = runner.invoke(main, ["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert f"cannot read pattern table {table}" in res.output
