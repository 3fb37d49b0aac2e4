"""Config loading, scenario orchestration, persistence and CLI tests."""

import configparser
import io
import json
import math
import re
import tempfile
import threading
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from decaylab import presets, scenarios
from decaylab.cli import main as cli_main
from decaylab.scenarios import (ConfigError, load_config, run_scenario,
                                run_suite)

MINIMAL_T3 = """
[scenario]
name = mini-t3
theorem = T3
dim = 1
r = 1.5
delta0 = 0.01
l = 0.5
epsilon0 = 0.5
damping_kind = exterior_smooth

[grid]
alpha = 0.5
h = 0.05

[data]
kind = compact
center = 1.25
radius = 0.7
r_support = 2.0

[time]
t_max = 6
sample_stride = 2
"""


WEIGHTED_T2 = """
[scenario]
name = mini-t2
theorem = T2

[grid]
x_max = 12
h = 0.1

[data]
kind = weighted
sigma = 3

[time]
t_max = 2
sample_stride = 2
"""

COMPACT_2D = """
[scenario]
name = mini-2d
theorem = T3
dim = 2
l = 0.5
damping_kind = annulus_plus_exterior

[grid]
rho = 1.0
h = 0.2

[data]
center_x = 2.0
radius = 0.5
r_support = 2.5

[time]
t_max = 1.5
sample_stride = 1
"""


def _with(text, *edits):
    """`text` with each (section, key, value) set, or removed for None."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    for section, key, value in edits:
        if value is None:
            cp.remove_option(section, key)
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _mini(name="mini-t3", t_max=6.0):
    text = MINIMAL_T3.replace("mini-t3", name).replace(
        "t_max = 6", f"t_max = {t_max}")
    return load_config(text)


def _fails_in_run(name="t1-log-desk"):
    """A config that loads and then fails in the run: at gamma = 100 the
    honest-b bundle weight of t1-log-desk is e^1903, which overflows at the
    first sample."""
    text = presets.get("t1-log-desk").replace("gamma = 1.0", "gamma = 100")
    text = text.replace("t_max = 150", "t_max = 10")
    return load_config(text.replace("name = t1-log-desk", f"name = {name}"))


def test_minimal_config_defaults():
    bare = MINIMAL_T3.replace("sample_stride = 2\n", "")
    cfg = load_config(bare)
    assert cfg.cfl == 0.9
    assert cfg.margin == 0.8
    assert cfg.sample_stride == 10
    # auto fields stay unset in the config; a run fills them in
    assert cfg.gamma is None and cfg.x_max is None
    run = scenarios._resolved(cfg)
    assert run.gamma == pytest.approx(0.9 * (1.0 - 0.01) / 3.347398, rel=1e-3)
    # auto truncation is cone-safe
    assert run.x_max >= cfg.R_support + cfg.T_max + 2 * cfg.L


def test_config_rejects_inadmissible_gamma():
    text = MINIMAL_T3.replace("theorem = T3", "theorem = T2").replace(
        "kind = compact", "kind = weighted").replace(
        "[time]", "[extra-placeholder]")
    text = """
[scenario]
name = bad-gamma
theorem = T2
r = 1.5
delta0 = 0.01
gamma = 5.0

[grid]
x_max = 50

[data]
kind = weighted
sigma = 10
"""
    with pytest.raises(Exception, match=r"\(d\+2-dr\)/\(r-1\)"):
        load_config(text)


def test_config_rejects_negative_h():
    with pytest.raises(ConfigError, match="positive"):
        load_config(MINIMAL_T3.replace("h = 0.05", "h = -0.1"))


@pytest.mark.parametrize("section, key, value", [
    ("time", "sample_stride", "0"),
    ("scenario", "dim", "3"),
    ("time", "cfl", "1.5"),
    ("time", "t_max", "0"),
    ("time", "t_max", "-5"),
    ("grid", "h", "nan"),
    ("data", "amplitude", "0"),
    ("data", "amplitude", "inf"),
    ("data", "amplitude", "nan"),
    ("data", "oscillation", "inf"),
    ("data", "sigma", "nan"),
    ("scenario", "margin", "-1"),
    ("prop1", "mu", "-1"),
    ("prop1", "lam", "-1"),
    ("obs", "r0", "-3"),
    ("weights", "practical_b", "1.0"),
    ("scenario", "seed", "-1"),
    ("data", "radius", "-1"),
    ("grid", "rho", "-1"),
    ("scenario", "epsilon0", "-1"),
    ("scenario", "a_max", "0"),
    ("time", "t1_threshold", "200"),
    ("grid", "alpha", "nan"),
    ("scenario", "l", "-2"),
    ("grid", "x_max", "-5"),
    ("time", "t_window", "-1"),
    ("prop1", "gamma", "0"),
    ("scenario", "damping_kind", "foo"),
])
def test_config_rejects_out_of_range_field(section, key, value):
    text = _with(MINIMAL_T3, (section, key, value))
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} "):
        load_config(text)


_BASES = {"t3": MINIMAL_T3, "t2": WEIGHTED_T2, "2d": COMPACT_2D,
          "t3-x12": _with(MINIMAL_T3, ("grid", "x_max", "12")),
          "2d-t2": _with(COMPACT_2D, ("scenario", "theorem", "T2"),
                         ("data", "kind", "weighted"))}


@pytest.mark.parametrize("base, section, key, value", [
    ("t3", "scenario", "epsilon0", "2"),          # above a_max
    ("t3", "time", "t1_threshold", "6"),          # not below t_max
    ("t2", "grid", "x_max", "1.5"),               # below 2l
    ("2d-t2", "grid", "r_out", "1.5"),            # within rho + 4h
    ("t2", "grid", "h", "1"),                     # 12 cells
    ("2d", "grid", "h", "0.3"),                   # above rho/4
    ("t3", "data", "center", "1.0"),              # bump reaches alpha
    ("t3", "data", "r_support", "0.9"),           # T3 needs R >= 1
    ("t3-x12", "data", "kind", "weighted"),       # T3 with weighted data
    ("t2", "data", "sigma", "0.5"),               # weighted norm diverges
    ("t3", "time", "t_window", "0.05"),           # below the sample spacing
    ("t3", "time", "sample_stride", "20"),        # 6 samples in the fit window
    ("2d", "grid", "rho", None),                  # required in 2D
    ("t3", "data", "r_support", None),            # required for compact data
    ("t2", "grid", "x_max", None),                # required for weighted data
])
def test_config_rejects_inconsistent_fields(base, section, key, value):
    text = _with(_BASES[base], (section, key, value))
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} "):
        load_config(text)


def test_t_window_above_t_max_loads_and_runs(tmp_path):
    cfg = load_config(_with(MINIMAL_T3, ("time", "t_window", "50")))
    assert cfg.T_window == 50.0 > cfg.T_max
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed
    # the analysis clips the window to half the run
    assert rep.payload["defects"]["prop1"]["window_T"] == pytest.approx(
        cfg.T_max / 2.0, abs=0.1)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(MINIMAL_T3 + "\nwhatever = 3\n")


def test_config_rejects_unsafe_truncation():
    text = MINIMAL_T3.replace("h = 0.05", "h = 0.05\nx_max = 4")
    with pytest.raises(ConfigError, match="cone-safe"):
        load_config(text)


def test_config_rejects_support_outside_ball():
    text = MINIMAL_T3.replace("radius = 0.7", "radius = 1.5")
    with pytest.raises(ConfigError, match="leaves B_R"):
        load_config(text)


def test_identity_scenario_runs_and_reports(tmp_path):
    cfg = replace(presets.load("identity-refinement"), T_max=5.0)
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed
    d = rep.payload["defects"]
    assert d["identity_final"] <= 1e-3
    assert (tmp_path / "identity-refinement.series.csv").exists()
    assert (tmp_path / "identity-refinement.report.json").exists()


def test_weight_suite_scenario(tmp_path):
    cfg = presets.load("weight-suite")
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed and rep.all_pass
    p = rep.payload
    assert p["constant_identities"]["t2_ok"]
    assert p["constant_identities"]["t3_ok"]
    assert p["weight_inequalities"]["all_passed"]
    assert "series_csv" not in p      # no PDE run


def test_scenario_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_scenario(_mini(t_max=3.0), out)
    csv1 = (out1 / "mini-t3.series.csv").read_bytes()
    csv2 = (out2 / "mini-t3.series.csv").read_bytes()
    assert csv1 == csv2
    r1 = json.loads((out1 / "mini-t3.report.json").read_text())
    r2 = json.loads((out2 / "mini-t3.report.json").read_text())
    r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
    assert r1 == r2


def test_failed_scenario_writes_failed_report(tmp_path):
    rep = run_scenario(_fails_in_run(), tmp_path)
    assert rep.failed and not rep.all_pass
    assert (tmp_path / "t1-log-desk.report.failed.json").exists()
    assert "error" in rep.payload


def test_suite_empty():
    assert run_suite([], parallelism=2) == []


def test_suite_rejects_duplicate_names(tmp_path):
    cfgs = [load_config(MINIMAL_T3), load_config(MINIMAL_T3)]
    with pytest.raises(ConfigError, match="duplicate"):
        run_suite(cfgs, out_dir=tmp_path)


def test_suite_parallel_matches_serial(tmp_path):
    def configs():
        return [_mini(f"mini-{i}", tmax)
                for i, tmax in enumerate((2.0, 3.0))]

    rep1 = run_suite(configs(), parallelism=1, out_dir=tmp_path / "p1")
    rep3 = run_suite(configs(), parallelism=3, out_dir=tmp_path / "p3")
    assert [r.name for r in rep1] == [r.name for r in rep3]
    for a, b in zip(rep1, rep3):
        pa, pb = dict(a.payload), dict(b.payload)
        pa.pop("wall_clock_s"), pb.pop("wall_clock_s")
        assert pa == pb
    for i in range(2):
        c1 = (tmp_path / "p1" / f"mini-{i}.series.csv").read_bytes()
        c3 = (tmp_path / "p3" / f"mini-{i}.series.csv").read_bytes()
        assert c1 == c3


def test_suite_one_failure_does_not_abort(tmp_path):
    good = _mini("good", 2.0)
    bad = _fails_in_run("bad")
    reports = run_suite([bad, good], parallelism=2, out_dir=tmp_path)
    assert reports[0].failed and not reports[1].failed


def _record_threads(monkeypatch):
    """Patch run_scenario to note the thread each scenario runs on."""
    threads = {}
    inner = scenarios.run_scenario

    def recording(cfg, *args):
        threads[cfg.name] = threading.get_ident()
        return inner(cfg, *args)

    monkeypatch.setattr(scenarios, "run_scenario", recording)
    return threads


def _strip_wall_clock(report):
    payload = dict(report.payload)
    payload.pop("wall_clock_s")
    return payload


def test_suite_pool_matches_serial_byte_for_byte(tmp_path, monkeypatch):
    def configs():
        return [_mini(f"mini-{i}", tmax) for i, tmax in enumerate((2.0, 3.0))]

    rep1 = run_suite(configs(), parallelism=1, out_dir=tmp_path / "p1")
    monkeypatch.setattr(scenarios, "_POOL_MIN_NODES", 0)
    threads = _record_threads(monkeypatch)
    rep2 = run_suite(configs(), parallelism=2, out_dir=tmp_path / "p2")
    assert threading.get_ident() not in threads.values()
    assert [r.name for r in rep1] == [r.name for r in rep2] == ["mini-0", "mini-1"]
    for a, b in zip(rep1, rep2):
        assert not a.failed and _strip_wall_clock(a) == _strip_wall_clock(b)
        csv = f"{a.name}.series.csv"
        assert (tmp_path / "p1" / csv).read_bytes() == \
            (tmp_path / "p2" / csv).read_bytes()


def test_suite_small_grids_run_on_calling_thread(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("no scenario crosses the threshold: no pool")

    monkeypatch.setattr(scenarios, "ThreadPoolExecutor", no_pool)
    threads = _record_threads(monkeypatch)
    configs = [_mini("small-a", 2.0), _mini("small-b", 2.0)]
    assert all(scenarios._grid_nodes(c) < scenarios._POOL_MIN_NODES
               for c in configs)
    reports = run_suite(configs, parallelism=2, out_dir=tmp_path)
    assert [r.name for r in reports] == ["small-a", "small-b"]
    assert not any(r.failed for r in reports)
    assert set(threads.values()) == {threading.get_ident()}


def test_suite_mixed_paths_keep_order_and_isolate_failures(tmp_path,
                                                           monkeypatch):
    def mini(name, h):
        return load_config(MINIMAL_T3.replace("mini-t3", name).replace(
            "t_max = 6", "t_max = 2").replace("h = 0.05", f"h = {h}"))

    build = scenarios._build

    def failing_build(cfg):     # the "-bad" scenarios fail in the run
        if cfg.name.endswith("-bad"):
            raise RuntimeError("grid build failed")
        return build(cfg)

    configs = [mini("small-bad", 0.05), mini("large-good", 0.025),
               mini("small-good", 0.05), mini("large-bad", 0.025)]
    assert [scenarios._grid_nodes(c) for c in configs] == [141, 281, 141, 281]
    monkeypatch.setattr(scenarios, "_build", failing_build)
    monkeypatch.setattr(scenarios, "_POOL_MIN_NODES", 200)
    threads = _record_threads(monkeypatch)
    reports = run_suite(configs, parallelism=2, out_dir=tmp_path)
    assert [r.name for r in reports] == [c.name for c in configs]
    assert [r.failed for r in reports] == [True, False, False, True]
    main = threading.get_ident()
    assert threads["small-bad"] == threads["small-good"] == main
    assert main not in (threads["large-good"], threads["large-bad"])


def test_grid_node_count_matches_built_grid():
    for name in presets.names():
        cfg = presets.load(name)
        if cfg.theorem == "weight_suite":
            assert scenarios._grid_nodes(cfg) == 0
        else:
            assert scenarios._grid_nodes(cfg) == \
                scenarios._build(scenarios._resolved(cfg))[0].fluid.size, name


@pytest.mark.parametrize("parallelism", [0, -3, 1.5])
def test_suite_rejects_bad_parallelism(parallelism):
    with pytest.raises(ValueError, match="parallelism"):
        run_suite([_mini()], parallelism=parallelism)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_suite_rejects_bad_parallel(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli_main(["suite", str(tmp_path), "--parallel", value])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


def test_report_is_self_contained_for_refit(tmp_path):
    from decaylab.decay import fit_decay
    from decaylab.functionals import read_series_csv
    cfg = _mini()
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed
    fit0 = rep.payload["fits"]["CompactDecay"]
    header, data = read_series_csv(tmp_path / rep.payload["series_csv"])
    ts = data[:, header.index("t")]
    Es = data[:, header.index("E")]
    refit = fit_decay(ts, Es, "CompactDecay", cfg.R_support,
                      tuple(fit0["window"]))
    assert refit.gamma_hat == fit0["gamma_hat"]      # bit-identical
    assert refit.ln_C_hat == fit0["ln_C_hat"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_presets_listing(capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "t3-compact-1d" in out and "weight-suite" in out


def test_cli_presets_write(tmp_path):
    assert cli_main(["presets", "--write", str(tmp_path)]) == 0
    assert (tmp_path / "t2-poly-1d.ini").exists()


def test_cli_run_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "mini.ini"
    cfgfile.write_text(MINIMAL_T3.replace("t_max = 6", "t_max = 3"))
    code = cli_main(["run", str(cfgfile), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_cli_run_bad_config_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[scenario]\nname = x\ntheorem = nope\n")
    assert cli_main(["run", str(cfgfile)]) == 2


def test_cli_verify_weights(capsys):
    assert cli_main(["verify-weights", "--pairs", "50", "--families", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    # the config echo is the whole config, as in the weight-suite preset
    assert set(payload["config"]) == set(scenarios._ROWS)
    assert payload["config"]["seed"] == 20240809
    assert (payload["config"]["pairs"], payload["config"]["families"]) == (50, 5)
    assert payload["constant_identities"]["pairs"] == 50
    assert payload["weight_inequalities"]["families"] == 5
    # run options have no meaning here: argparse rejects them
    for flag, value in (("--out", "x"), ("--margin", "99"),
                        ("--practical-b", "3")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify-weights", "--pairs", "5", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_fit_roundtrip(tmp_path, capsys):
    cfg = _mini()
    rep = run_scenario(cfg, tmp_path)
    csv = tmp_path / rep.payload["series_csv"]
    code = cli_main(["fit", str(csv), "--model", "CompactDecay",
                     "--R", "2.0", "--window", "0.6:6"])
    assert code == 0
    fit = json.loads(capsys.readouterr().out)
    assert math.isfinite(fit["gamma_hat"])


def test_cli_suite(tmp_path, capsys):
    cfgdir = tmp_path / "cfgs"
    cfgdir.mkdir()
    (cfgdir / "a.ini").write_text(
        MINIMAL_T3.replace("mini-t3", "suite-a").replace("t_max = 6", "t_max = 2"))
    (cfgdir / "b.ini").write_text(
        MINIMAL_T3.replace("mini-t3", "suite-b").replace("t_max = 6", "t_max = 2"))
    code = cli_main(["suite", str(cfgdir), "--parallel", "2",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "suite-a.report.json").exists()


def test_2d_scenario_smoke(tmp_path):
    # shrunk variant of the shipped 2D preset: same machinery, small grid
    text = presets.get("t3-compact-2d")
    text = text.replace("t_max = 16", "t_max = 4")
    text = text.replace("r_out = auto", "r_out = 14")
    text = text.replace("sample_stride = 5", "sample_stride = 2")
    cfg = load_config(text.replace("t3-compact-2d", "t3-2d-smoke"))
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed, rep.payload.get("error")
    assert rep.payload["grid"]["dim"] == 2
    assert rep.payload["verdicts"]["CompactDecay"]["passed"]
    assert rep.payload["truncation_contamination"] < 1e-15
    assert rep.payload["solver"]["mono_violations"] == 0


def test_cli_margin_override(tmp_path, capsys):
    cfgfile = tmp_path / "mini.ini"
    cfgfile.write_text(MINIMAL_T3)
    # an absurd margin makes the verdict fail: exit code 1
    code = cli_main(["run", str(cfgfile), "--out", str(tmp_path),
                     "--margin", "50.0"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is False


@pytest.mark.parametrize("flag, attr, value", [
    ("--margin", "margin", "-1"), ("--practical-b", "practical_b", "1.0")])
def test_out_of_range_override_rejected_before_any_run(tmp_path, capsys,
                                                       flag, attr, value):
    section = scenarios._ROWS[attr].metadata["section"]
    assert cli_main(["run", "t2-poly-1d", "--out", str(tmp_path), flag, value]) == 2
    assert f"error: [{section}] {attr} must be " in capsys.readouterr().err
    (tmp_path / "mini.ini").write_text(MINIMAL_T3)
    assert cli_main(["suite", str(tmp_path), "--out", str(tmp_path), flag, value]) == 2
    assert not list(tmp_path.glob("*.json"))
    cfg = _mini()
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {attr} must be "):
        replace(cfg, **{attr: float(value)})
    assert getattr(cfg, attr) == scenarios._ROWS[attr].default
    assert not list(tmp_path.glob("*.json"))


def test_readme_schema_lists_every_field_with_its_range():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Scenario config schema")[1].split("```")[1]
    rows, section, last = {}, None, None
    for line in block.splitlines():
        m = re.match(r"(?:\[(\w+)\] +|\s{11})(\w+)(.*)", line)
        if m:
            section = m[1] or section
            last = (section, m[2])
            rows[last] = m[3]
        elif last:
            rows[last] += " " + line.strip()
    assert set(rows) == scenarios._KEYS
    table = {(f.metadata["section"], f.metadata["key"]): f
             for f in scenarios._ROWS.values()}
    for section, key in rows:
        f = table.get((section, key), scenarios._ROWS["center"])
        assert f.metadata["rule"][0] in " ".join(rows[section, key].split()), key


def test_overrides_leave_caller_config_unchanged(tmp_path, capsys):
    text = presets.get("t1-log-desk").replace("t_max = 150", "t_max = 20")
    cfg = load_config(text)
    before = vars(cfg).copy()
    rep = run_scenario(replace(cfg, margin=5.0, practical_b=3.5), tmp_path)
    assert not rep.failed
    assert cfg.margin == 0.8 and cfg.practical_b == math.e
    assert vars(cfg) == before
    assert rep.payload["config"]["margin"] == 5.0
    assert rep.payload["config"]["practical_b"] == 3.5
    on_disk = json.loads((tmp_path / "t1-log-desk.report.json").read_text())
    assert on_disk["config"]["margin"] == 5.0
    # the run uses the config as loaded
    rep = run_scenario(cfg, tmp_path / "plain")
    assert rep.payload["config"]["margin"] == 0.8
    # the CLI's flags reach the run, and only the run
    (tmp_path / "t1.ini").write_text(text)
    out = tmp_path / "cli"
    assert cli_main(["run", str(tmp_path / "t1.ini"), "--out", str(out),
                     "--margin", "5", "--practical-b", "3.5"]) in (0, 1)
    capsys.readouterr()
    on_disk = json.loads((out / "t1-log-desk.report.json").read_text())
    assert (on_disk["config"]["margin"], on_disk["config"]["practical_b"]) == (5.0, 3.5)


def test_echo_shows_fields_set_after_load(tmp_path):
    # a field changed after load goes through `replace`, which re-derives the
    # auto fields; the echo shows the config the run used
    loaded = presets.load("t2-poly-1d")
    cfg = replace(loaded, T_max=40.0, margin=0.5)
    assert (loaded.T_max, loaded.margin) == (150.0, 0.8)
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed
    assert rep.payload["solver"]["n_steps"] == round(40.0 / rep.payload["solver"]["dt"])
    on_disk = json.loads((tmp_path / "t2-poly-1d.report.json").read_text())
    for config in (rep.payload["config"], on_disk["config"]):
        assert (config["T_max"], config["margin"]) == (40.0, 0.5)
        assert config["T1_threshold"] == 4.0        # auto: t_max/10
        assert config == scenarios._echo(scenarios._resolved(cfg))


def test_config_fields_cannot_be_assigned():
    cfg = _mini()
    for name in scenarios._ROWS:
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))


def test_replace_rederives_cone_safe_truncation(tmp_path):
    # loaded at t_max = 20 the auto x_max is 25.5; at 40 it must be >= 43
    loaded = load_config(_with(presets.get("t3-compact-1d"),
                               ("time", "t_max", "20")))
    assert loaded.x_max is None
    assert scenarios._resolved(loaded).x_max == 25.5
    cfg = replace(loaded, T_max=40.0)
    rep = run_scenario(cfg, tmp_path)
    assert not rep.failed
    assert rep.payload["config"]["x_max"] >= 43.0
    assert rep.payload["grid"]["x_max"] >= 43.0
    assert rep.payload["truncation_contamination"] == 0.0
    # a truncation set by hand is re-checked against the new horizon
    fixed = replace(loaded, x_max=25.5)
    with pytest.raises(ConfigError, match=r"^\[grid\] x_max must be cone-safe"):
        replace(fixed, T_max=40.0)


@pytest.mark.parametrize("changes, named", [
    ({"radius": 40.0}, "[data] r_support"),       # support leaves B_R
    ({"sample_stride": 2.5}, "[time] sample_stride"),
    ({"h": "0.1"}, "[grid] h"),
    ({"use_practical_b": 1}, "[weights] use_practical_b"),
    ({"T_max": True}, "[time] t_max"),
    ({"dim": 2}, "[data] center"),                # one centre value in 2D
    ({"center": (1.25, 0.0)}, "[data] center"),
    ({"center": [1.25]}, "[data] center"),
    ({"x_max": None, "theorem": "T2", "data_kind": "weighted"}, "[grid] x_max"),
    ({"name": ""}, "[scenario] name"),
    ({"R_support": 1.5e308, "T_max": 1.5e308}, "[data] r_support"),  # R + t_max = inf
])
def test_replace_checks_like_load(changes, named):
    cfg = _mini()
    with pytest.raises(ConfigError, match=rf"^{re.escape(named)} "):
        replace(cfg, **changes)


def test_2d_center_errors_name_the_key_read():
    for key in scenarios._CENTER_2D:
        with pytest.raises(ConfigError, match=rf"^\[data\] {key} must be finite"):
            load_config(_with(COMPACT_2D, ("data", key, "nan")))
    cfg = load_config(COMPACT_2D)
    with pytest.raises(ConfigError, match=r"^\[data\] center_y must be finite"):
        replace(cfg, center=(2.0, math.inf))


@pytest.mark.parametrize("base, name, value, named", [
    ("t3", "amplitude", 1e300, "[data] amplitude"),
    ("t3", "amplitude", -2e100, "[data] amplitude"),
    ("t3", "R_support", 1e300, "[grid] x_max"),     # the auto, cone-safe x_max
    ("2d", "R_support", 1e300, "[grid] r_out"),
    ("t3", "T_max", 1e300, "[time] t_max"),
    ("t2", "T_max", 1e300, "[time] t_max"),
    ("2d", "T_max", 1e300, "[time] t_max"),
    ("t2", "x_max", 1e300, "[grid] x_max"),
    ("2d", "h", 1e-9, "[grid] r_out"),          # 2e20 nodes, 2e9 steps
    ("t2", "h", 1e-300, "[time] t_max"),        # the steps run out first
    ("t2", "a_max", 1e300, "[scenario] a_max"),     # the blow-up guard
    ("t3", "a_max", 1e300, "[scenario] a_max"),
])
def test_magnitudes_beyond_numpy_arrays_fail_at_load(base, name, value, named):
    # the blow-up guard bounds the data; numpy's largest array bounds the
    # grid's nodes and the run's steps
    f = scenarios._ROWS[name]
    text = _with(_BASES[base], (f.metadata["section"], f.metadata["key"], repr(value)))
    msg = rf"^{re.escape(named)} must be "
    with pytest.raises(ConfigError, match=msg):
        load_config(text)
    with pytest.raises(ConfigError, match=msg):
        replace(load_config(_BASES[base]), **{name: value})


def test_a_max_at_the_blowup_guard_loads_and_runs(tmp_path):
    # a_max = 1e100 makes dt * a huge; the nodal solve still converges
    text = _with(presets.get("t2-poly-1d"), ("scenario", "a_max", "1e100"),
                 ("time", "t_max", "10"))
    rep = run_scenario(load_config(text), tmp_path)
    assert not rep.failed
    assert rep.payload["config"]["a_max"] == 1e100


@pytest.mark.parametrize("flag, value, row", [
    ("--families", "0", "[weights] families"),
    ("--pairs", "0", "[weights] pairs"),
    ("--seed", "-1", "[scenario] seed"),
])
def test_cli_verify_weights_rejects_bad_counts(capsys, flag, value, row):
    assert cli_main(["verify-weights", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {row} must be ")
    assert captured.out == ""


def test_weight_suite_counts_are_config_rows(tmp_path):
    text = _with(presets.get("weight-suite"), ("weights", "pairs", "7"),
                 ("weights", "families", "2"))
    rep = run_scenario(load_config(text), tmp_path)
    assert rep.all_pass
    assert rep.payload["constant_identities"]["pairs"] == 7
    assert rep.payload["weight_inequalities"]["families"] == 2
    with pytest.raises(ConfigError, match=r"^\[weights\] pairs must be an integer"):
        load_config(_with(text, ("weights", "pairs", "0")))


def test_compact_config_without_cone_keys_loads_and_runs(tmp_path):
    # cfl takes its default 0.9: the cone is measured, not enforced
    text = _with(presets.get("t3-compact-1d"), ("time", "cfl", None),
                 ("time", "t_max", "60"), ("time", "t_window", "10"))
    rep = run_scenario(load_config(text), tmp_path)
    assert not rep.failed
    assert rep.payload["cone"]["declared"]


@pytest.mark.parametrize("name, edits, enforce", [
    ("t3-compact-1d", (), True),
    ("t3-compact-1d", (("time", "cfl", "0.9"),), False),
    ("t3-compact-2d", (), False),
    ("identity-refinement", (), False),
    ("identity-refinement-h2", (), False),
    ("identity-refinement-h4", (), False),
    ("identity-refinement", (("time", "cfl", "1"),), True),
])
def test_cone_enforced_exactly_at_dim_1_cfl_1(tmp_path, monkeypatch, name,
                                               edits, enforce):
    seen = []

    def recording(*args, cone=None, **kwargs):
        seen.append(cone)
        raise RuntimeError("stop before stepping")

    monkeypatch.setattr(scenarios.solver, "run", recording)
    cfg = load_config(_with(presets.get(name), *edits))
    assert run_scenario(cfg, tmp_path).failed
    assert len(seen) == 1 and seen[0].enforce is enforce


def test_t1_weight_overflow_fails_at_first_sample(tmp_path):
    # the run must fail on sampling instead of writing a series of capped values
    rep = run_scenario(_fails_in_run(), tmp_path)
    assert rep.failed
    assert rep.payload["error"].startswith("WeightOverflowError")
    assert not (tmp_path / "t1-log-desk.series.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_t1_sum_overflow_fails_at_first_sample(tmp_path):
    # at gamma = 41.5 every weight of t1-log-desk is finite, but the sum of
    # the honest-b energy_weighted_inst member overflows: the sample fails,
    # naming the column, instead of writing inf into the series
    text = presets.get("t1-log-desk").replace("gamma = 1.0", "gamma = 41.5")
    rep = run_scenario(load_config(text.replace("t_max = 150", "t_max = 10")),
                       tmp_path)
    assert rep.failed
    assert rep.payload["error"] == ("FloatingPointError: sampled column "
                                    "thm1.energy_weighted_inst is inf at t = 0")
    assert not (tmp_path / "t1-log-desk.series.csv").exists()


# Small, short scenarios to draw config documents from: one per data kind
# and dimension.  Each loads, runs in well under a second, and fits.
_FUZZ_BASES = [MINIMAL_T3.replace("t_max = 6", "t_max = 2"), WEIGHTED_T2,
               COMPACT_2D, _with(_BASES["2d-t2"], ("grid", "r_out", "4"))]
_FUZZ_ROWS = [(f.metadata["section"], f.metadata["key"], f)
              for f in scenarios._ROWS.values()]
_FUZZ_ROWS += [("data", key, scenarios._ROWS["center"])
               for key in scenarios._CENTER_2D]


def _fuzz_values(cp, section, key, f):
    """Text values for one row, in and out of its range: a fixed set, the
    row's choices, and the base's value halved and doubled.  Nothing above 3
    or twice the base's value keeps every grid small and every run short."""
    values = ["-1", "0", "0.5", "1", "2", "3", "nan", "inf", "auto", "foo"]
    need = f.metadata["rule"][0]
    if need.startswith("one of "):
        values += need[len("one of "):].split("|")
    if f.metadata["cast"] is scenarios._bool:
        values += ["true", "false"]
    try:
        base = float(cp.get(section, key))
        values += [repr(base / 2), repr(2 * base)]
    except (configparser.Error, ValueError):
        pass
    return values


@st.composite
def _documents(draw):
    base = draw(st.sampled_from(_FUZZ_BASES))
    cp = configparser.ConfigParser()
    cp.read_string(base)
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        section, key, f = draw(st.sampled_from(_FUZZ_ROWS))
        edits.append((section, key, draw(st.sampled_from(
            _fuzz_values(cp, section, key, f)))))
    return _with(base, *edits)


def _typed(f, text):
    """`text` as row `f`'s parser reads it; text that does not parse stays
    text, which the config must reject."""
    if f.metadata["auto"] and text == "auto":
        return None
    try:
        return f.metadata["cast"](text)
    except (ValueError, KeyError):
        return text


@settings(max_examples=30, deadline=None)
@given(doc=_documents(), data=st.data())
def test_config_documents_fail_at_load_or_run(doc, data):
    try:
        cfg = load_config(doc)
    except ConfigError:
        return
    # one more field, changed after load: rejected naming its row, or run
    cp = configparser.ConfigParser()
    cp.read_string(doc)
    section, key, f = data.draw(st.sampled_from(_FUZZ_ROWS))
    value = _typed(f, data.draw(st.sampled_from(
        _fuzz_values(cp, section, key, f))))
    if f.name == "center":      # the axis `key` names
        i = int(key == "center_y")
        value = cfg.center[:i] + (value,) + cfg.center[i + 1:]
    try:
        cfg = replace(cfg, **{f.name: value})
    except ConfigError as exc:
        assert re.match(r"\[\w+\] \w+", str(exc)), exc
    with tempfile.TemporaryDirectory() as out:
        rep = run_scenario(cfg, out)
    assert not rep.failed, rep.payload["error"]
