import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ouperturb import cli, harness
from ouperturb._util import CSV_BLOCK_ROWS, fmt, sha256_file, write_csv
from ouperturb.config import ConfigError, load_config, parse_config
from ouperturb.girsanov import martingale_check
from ouperturb.harness import (ensure_ensemble, make_state, run_stages,
                               stage_girsanov, stage_phi, stage_simulate,
                               stage_sweep)
from ouperturb.ou import sample_ou_paths

ROOT = Path(__file__).resolve().parents[1]
SMOKE = ROOT / "configs" / "smoke.json"
ZERO = ROOT / "configs" / "zero_drift.json"

CSV_FILES = ("moments.csv", "fernique.csv", "p0.csv", "paths.csv", "sweep.csv",
             "gaps.csv", "density.csv", "martingale.csv", "stopped.csv",
             "entropy.csv", "p_table.csv", "psi_closed_form.csv",
             "psi_bump.csv", "psi_envelope.csv", "psi_mollified.csv",
             "phi_bounds_power2.csv", "phi_bounds_exponential.csv",
             "phi_bounds_xlog.csv", "lemma_constants.csv",
             "summary.txt", "manifest.json")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ouperturb", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# config validation


def test_config_parses_smoke():
    cfg = load_config(SMOKE)
    assert cfg.model.dim == 4
    assert cfg.grid.dt == pytest.approx(1.0 / 800)
    assert cfg.drift.kind == "radial"
    assert len(cfg.weights) == 3


def test_config_rejects_dt_rule():
    raw = json.loads(SMOKE.read_text())
    raw["grid"] = {"n_steps": 100}
    with pytest.raises(ConfigError, match="min\\(alpha\\)/8"):
        parse_config(raw)


def test_config_rejects_unknown_drift():
    raw = json.loads(SMOKE.read_text())
    raw["drift"] = {"kind": "mystery"}
    with pytest.raises(ConfigError, match="drift"):
        parse_config(raw)


def test_config_rejects_low_tail_grid():
    raw = json.loads(ZERO.read_text())
    raw["drift"] = {"kind": "saturating", "params": {"eps": 1.0}}
    raw["girsanov"]["y_grid"] = {"start": 2.0, "stop": 1e6, "count": 10}
    # unit envelope needs start > e^5
    with pytest.raises(ConfigError, match="admissible"):
        parse_config(raw)


def test_config_rejects_noncontiguous_ladder():
    raw = json.loads(SMOKE.read_text())
    raw["girsanov"]["tau_levels"] = [0, 2, 4]
    with pytest.raises(ConfigError, match="ladder"):
        parse_config(raw)


def test_config_rejects_increasing_alphas():
    raw = json.loads(SMOKE.read_text())
    raw["sweep"]["alpha_list"] = [0.01, 0.1]
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(raw)
    raw["sweep"]["alpha_list"] = [0.1]
    with pytest.raises(ConfigError, match="need >= 2 entries"):
        parse_config(raw)


def test_config_rejects_sigma_diag_length(tmp_path):
    raw = json.loads(SMOKE.read_text())
    for sig in ([1.0, 1.0], []):
        raw["model"]["sigma_diag"] = sig
        with pytest.raises(ConfigError, match="sigma_diag"):
            parse_config(raw)
    bad = tmp_path / "bad_sigma.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["all", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_config_rejects_unread_psi_kind(tmp_path, capsys):
    # every stage uses the closed form, so another kind would be ignored
    raw = json.loads(SMOKE.read_text())
    for kind in ("bump", "mollified"):
        raw["girsanov"]["psi"]["kind"] = kind
        with pytest.raises(ConfigError, match="girsanov.psi.kind"):
            parse_config(raw)
    bad = tmp_path / "bump.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["all", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error: girsanov.psi.kind" in capsys.readouterr().err


def test_cli_overrides_get_the_config_check(tmp_path, capsys):
    for paths in ("0", "-5"):
        code = cli.main(["all", "--config", str(SMOKE), "--paths", paths,
                         "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "config error: mc.n_paths" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("path,value,message", [
    (("grid",), {"dt": 0}, "grid.dt: must be finite and > 0"),
    (("grid",), {"dt": float("nan")}, "grid.dt: must be finite and > 0"),
    (("model", "horizon"), 0, "model: horizon must be positive"),
    (("model", "horizon"), -1, "model: horizon must be positive"),
    (("grid", "n_steps"), -5, "grid.n_steps: must be >= 1"),
    (("girsanov", "psi", "delta"), 2.0, "girsanov.psi.delta: delta must lie in"),
    # values of the wrong type
    (("grid", "n_steps"), float("nan"), "grid.n_steps: cannot read nan as int"),
    (("mc", "n_paths"), float("nan"), "mc.n_paths: cannot read nan as int"),
    (("girsanov", "y_grid", "count"), float("nan"),
     "girsanov.y_grid.count: cannot read nan as int"),
    (("mc", "master_seed"), "abc", "mc.master_seed: cannot read 'abc' as int"),
    (("model", "dim"), "x", "model.dim: cannot read 'x' as int"),
    (("model", "beta"), "x", "model.beta: cannot read 'x' as float"),
    (("sweep", "alpha_list"), ["a", 0.01],
     "sweep.alpha_list: cannot read 'a' as float"),
    (("girsanov", "tau_levels"), [0, float("inf")],
     "girsanov.tau_levels: cannot read inf as int"),
    (("phi", "kinds"), 5, "phi.kinds: cannot read 5 as list"),
    (("phi", "kinds"), [5], "phi.kinds: 'int' object is not subscriptable"),
    # a number or a string where a list or a mapping is due
    (("sweep", "alpha_list"), 5, "sweep.alpha_list: cannot read 5 as list"),
    (("girsanov", "tau_levels"), 5, "girsanov.tau_levels: cannot read 5 as list"),
    (("girsanov", "y_grid"), 5, "girsanov.y_grid: cannot read 5 as list"),
    (("drift", "params"), 5, "drift.params: cannot read 5 as dict"),
    (("model", "x0"), "x", "model.x0: cannot read 'x' as float"),
    (("model", "sigma_diag"), ["a", 1, 1, 1],
     "model.sigma_diag: cannot read 'a' as float"),
    (("model", "eigenvalues"), "x", "model.eigenvalues: cannot read 'x' as float"),
], ids=["dt0", "dt_nan", "horizon0", "horizon-1", "n_steps-5", "psi_delta2",
        "n_steps_nan", "n_paths_nan", "y_count_nan", "seed_str", "dim_str",
        "beta_str", "alpha_str", "tau_inf", "kinds_int", "kinds_entry_int",
        "alphas_int", "tau_levels_int", "y_grid_int", "params_int", "x0_str",
        "sigma_entry_str", "eigenvalues_str"])
def test_config_rejects_values_that_failed_after_the_check(tmp_path, capsys, path,
                                                           value, message):
    # the config check itself rejects each value: exit 2, naming the key,
    # with nothing written, and no grid is built from the value (so no
    # dt message names a clamped step)
    raw = json.loads(SMOKE.read_text())
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "out"
    # --paths would replace the file's mc.n_paths before the check
    paths = [] if path == ("mc", "n_paths") else ["--paths", "8"]
    code = cli.main(["all", "--config", str(bad), *paths,
                     "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2 and "config error: " in err
    assert message in err and "dt=" not in err, err
    assert not out.exists()


def test_config_bound_echo_must_match():
    raw = json.loads(SMOKE.read_text())
    raw["drift"]["bound"] = "something else"
    with pytest.raises(ConfigError, match="bound"):
        parse_config(raw)


# ---------------------------------------------------------------------------
# CSV cells


def test_fmt_cells():
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(0.1)) == "0.1"
    assert fmt(np.float32(0.5)) == "0.5"
    assert fmt(np.float32(0.1)) == repr(float(np.float32(0.1)))
    assert fmt(True) == "1" and fmt(np.bool_(False)) == "0"
    assert fmt(3) == "3" and fmt("") == ""


def test_write_csv_columns_match_fmt(tmp_path):
    # every column type gives the text fmt gives each cell, across more than
    # two row blocks
    n = 2 * CSV_BLOCK_ROWS + 37
    special = [0.1, -0.0, 1e-300, 5e-324, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(0)
    f64 = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    f64[:len(special)] = special
    f64[CSV_BLOCK_ROWS:CSV_BLOCK_ROWS + len(special)] = special
    columns = [f64,
               rng.standard_normal(n).astype(np.float32),
               rng.integers(-10**12, 10**12, n, dtype=np.int64),
               rng.random(n) < 0.5,
               [i if i % 3 else "" for i in range(n)],
               [float(v) for v in rng.random(n)]]
    header = ["f64", "f32", "i64", "b", "mixed", "py"]
    out = write_csv(tmp_path / "t.csv", header, columns)
    assert out == tmp_path / "t.csv"
    lines = [",".join(header)] + [",".join(fmt(c[i]) for c in columns)
                                  for i in range(n)]
    assert out.read_text() == "\n".join(lines) + "\n"
    assert not (tmp_path / "t.csv.tmp").exists()

    empty = write_csv(tmp_path / "e.csv", ["a", "b"],
                      [np.array([]), np.array([], dtype=np.int64)])
    assert empty.read_text() == "a,b\n"
    with pytest.raises(ValueError, match="unequal"):
        write_csv(tmp_path / "u.csv", ["a", "b"], [np.zeros(3), [1, 2]])


# ---------------------------------------------------------------------------
# CLI and end-to-end runs


def test_cli_exit_2_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("all", "--config", str(bad))
    assert r.returncode == 2
    r = run_cli("all", "--config", str(tmp_path / "missing.json"))
    assert r.returncode == 2


@pytest.fixture(scope="module")
def zero_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("zero_run")
    r = run_cli("all", "--config", str(ZERO), "--out", str(out), "--quiet")
    return out, r


def test_zero_drift_run_emits_all_artifacts(zero_run):
    out, r = zero_run
    for name in CSV_FILES:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] in ("ok", "check_failures")
    listed = {f["name"] for f in manifest["files"]}
    assert "density.csv" in listed and "sweep.csv" in listed
    for f in manifest["files"]:
        assert sha256_file(out / f["name"]) == f["sha256"]
    # booleans are written 1/0 in every CSV, the phi_bounds pass columns too
    for name in CSV_FILES:
        if name.endswith(".csv"):
            cells = (out / name).read_text().replace("\n", ",").split(",")
            assert "True" not in cells and "False" not in cells, name


def test_zero_drift_density_is_unit(zero_run):
    import csv

    out, _ = zero_run
    rows = list(csv.DictReader(open(out / "density.csv")))
    assert rows
    assert all(float(r["zeta_T"]) == 0.0 for r in rows)
    assert all(float(r["log_rho_tilde"]) == 0.0 for r in rows)


def test_zero_drift_only_stated_weight_checks_fail(zero_run):
    # every check passes except the stated-coefficient weighted-moment form,
    # which is violated even by the unperturbed process (the zero-drift
    # counterexample in notes/decisions.md, section 2)
    out, r = zero_run
    manifest = json.loads((out / "manifest.json").read_text())
    failing = {c["id"] for c in manifest["checks"] if not c["pass"]}
    assert failing <= {"phi.bound_power2", "phi.bound_exponential",
                       "phi.bound_xlog", "phi.bound_candidate_power2",
                       "phi.bound_candidate_exponential",
                       "phi.bound_candidate_xlog"}
    assert r.returncode == 1


def test_compare_runs_script(zero_run, tmp_path):
    # a copy of a run reads the same; one changed CSV byte is a difference
    # that names the file
    out, _ = zero_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    compare = [sys.executable, str(ROOT / "scripts" / "compare_runs.py"),
               str(out), str(copy)]
    r = subprocess.run(compare, capture_output=True, text=True)
    assert r.returncode == 0, r.stdout
    data = bytearray((copy / "p0.csv").read_bytes())
    data[-2] = ord("8") if data[-2] == ord("7") else ord("7")
    (copy / "p0.csv").write_bytes(bytes(data))
    r = subprocess.run(compare, capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["p0.csv: bytes differ"]


def test_dimension_sweep_script():
    # the script reads the result of a pass that asks for no task
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "dimension_sweep.py"),
                        "--dims", "2", "--paths", "50", "--steps", "16"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 2 and lines[1].split()[0] == "2"
    assert float(lines[1].split()[1]) > 0


def test_psi_subcommand_writes_the_psi_rows_of_all(tmp_path):
    # the psi stage reads the pass itself, not what an earlier stage kept
    rows = {}
    for cmd in ("psi", "all"):
        out = tmp_path / cmd
        run_cli(cmd, "--config", str(SMOKE), "--out", str(out), "--paths", "64",
                "--quiet")
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        rows[cmd] = [c for c in checks if c["id"].startswith("psi.")]
    assert "psi.chain_fit" in {c["id"] for c in rows["psi"]}
    assert rows["psi"] == rows["all"]


def test_stage_table_orders_the_prerequisites():
    # psi reads the tail table that girsanov keeps, and phi-check the
    # weak-limit candidate that sweep keeps; no stage runs another
    for name, stages in cli.SUBCOMMAND_STAGES.items():
        for first, then in (("girsanov", "psi"), ("sweep", "phi-check")):
            if then in stages:
                assert first in stages[:stages.index(then)], (name, stages)


def test_all_checks_pass_without_weight_stage(tmp_path):
    raw = json.loads(ZERO.read_text())
    raw["phi"]["kinds"] = []
    cfg_path = tmp_path / "zero_nophi.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    r = run_cli("all", "--config", str(cfg_path), "--out", str(out), "--quiet")
    assert r.returncode == 0, r.stdout + r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(c["pass"] for c in manifest["checks"])


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_run")
    r = run_cli("all", "--config", str(SMOKE), "--out", str(out), "--quiet")
    return out, r


def test_margin_sign_agrees_with_verdict(zero_run, smoke_run):
    # a PASS row never shows a negative margin and a FAIL row never a
    # non-negative one; a NaN margin counts as failing
    for out, _ in (zero_run, smoke_run):
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert len(checks) > 30
        disagree = [(c["id"], c["pass"], c["margin"]) for c in checks
                    if c["pass"] != (c["margin"] >= 0)]
        assert not disagree, disagree


def test_zero_drift_stage_seconds(zero_run):
    # per-stage seconds, the streaming pass on its own, within the run's wall
    out, _ = zero_run
    manifest = json.loads((out / "manifest.json").read_text())
    secs = manifest["stage_seconds"]
    assert set(secs) == {"pass", *manifest["stages"]}
    assert all(np.isfinite(v) and v >= 0 for v in secs.values())
    assert sum(secs.values()) <= manifest["wall_clock_s"]
    r = run_cli("report", "--out", str(out))
    assert "seconds: " in r.stdout and "pass " in r.stdout


def test_report_subcommand_and_exit_codes(zero_run, tmp_path):
    out, _ = zero_run
    r = run_cli("report", "--out", str(out), "--quiet")
    assert r.returncode == 1  # stated-form failures recorded in the manifest
    # a doctored manifest with a failing check must exit 1; missing manifest 2
    doctored = tmp_path / "art"
    doctored.mkdir()
    (doctored / "manifest.json").write_text(json.dumps(
        {"version": "x", "status": "ok", "stages": ["simulate"],
         "checks": [{"id": "c", "pass": False, "margin": -1.0}], "files": []}))
    assert run_cli("report", "--out", str(doctored)).returncode == 1
    assert run_cli("report", "--out", str(tmp_path / "nope")).returncode == 2
    good = tmp_path / "good"
    good.mkdir()
    (good / "manifest.json").write_text(json.dumps(
        {"version": "x", "status": "ok", "stages": [],
         "checks": [{"id": "c", "pass": True, "margin": 1.0}], "files": []}))
    assert run_cli("report", "--out", str(good)).returncode == 0


def test_report_keeps_and_verifies_the_inventory(zero_run, tmp_path):
    out, _ = zero_run
    art = tmp_path / "art"
    shutil.copytree(out, art)
    before = {p.name: p.read_bytes() for p in art.iterdir()}
    r = run_cli("report", "--out", str(art))
    assert r.returncode == 1 and "artifact report" in r.stdout
    assert "sha256" not in r.stdout and "missing" not in r.stdout
    # the report writes nothing, so every recorded digest still verifies
    assert {p.name: p.read_bytes() for p in art.iterdir()} == before
    manifest = json.loads((art / "manifest.json").read_text())
    for f in manifest["files"]:
        assert sha256_file(art / f["name"]) == f["sha256"], f["name"]
    # one changed byte in a CSV fails the report and names the file; so does
    # a changed digest in an otherwise passing manifest
    data = bytearray((art / "gaps.csv").read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    (art / "gaps.csv").write_bytes(bytes(data))
    r = run_cli("report", "--out", str(art))
    assert r.returncode == 1
    assert "files not matching their sha256: gaps.csv" in r.stdout
    good = tmp_path / "good"
    good.mkdir()
    (good / "a.csv").write_text("x\n1\n")
    entry = {"name": "a.csv", "sha256": sha256_file(good / "a.csv"), "bytes": 4}
    for digest, code in ((entry["sha256"], 0), ("0" * 64, 1)):
        (good / "manifest.json").write_text(json.dumps(
            {"version": "x", "status": "ok", "stages": [], "checks": [],
             "files": [dict(entry, sha256=digest)]}))
        assert run_cli("report", "--out", str(good)).returncode == code


def test_manifest_records_blocks(zero_run):
    out, _ = zero_run
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = load_config(ZERO)
    blocks = manifest["blocks"]
    assert sum(blocks["paths"]) == cfg.n_paths
    assert sum(blocks["checked"]) == min(harness.N_CHECK_PATHS, cfg.n_paths)
    assert blocks["n_workers"] >= 1
    r = run_cli("report", "--out", str(out))
    line = [x for x in r.stdout.splitlines() if x.startswith("blocks: ")]
    assert line == [f"blocks: {len(blocks['paths'])} on {blocks['n_workers']} "
                    f"workers, paths {'/'.join(map(str, blocks['paths']))}, "
                    f"checked {'/'.join(map(str, blocks['checked']))}"]


def test_simulate_subcommand_standalone(tmp_path):
    out = tmp_path / "sim"
    r = run_cli("simulate", "--config", str(ZERO), "--out", str(out),
                "--paths", "64", "--quiet")
    assert r.returncode == 0, r.stdout + r.stderr
    for name in ("moments.csv", "fernique.csv", "p0.csv", "paths.csv",
                 "manifest.json"):
        assert (out / name).exists()


def test_seed_and_paths_overrides(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli("simulate", "--config", str(ZERO), "--out", str(out1),
            "--paths", "32", "--seed", "5", "--quiet")
    run_cli("simulate", "--config", str(ZERO), "--out", str(out2),
            "--paths", "32", "--seed", "6", "--quiet")
    assert sha256_file(out1 / "moments.csv") != sha256_file(out2 / "moments.csv")
    # the manifest echoes the config the run used
    mc = json.loads((out1 / "manifest.json").read_text())["config"]["mc"]
    assert (mc["master_seed"], mc["n_paths"]) == (5, 32)


# ---------------------------------------------------------------------------
# gates fail closed


@pytest.fixture(scope="module")
def cached_state(tmp_path_factory):
    raw = json.loads(ZERO.read_text())
    raw["mc"]["n_paths"] = 24
    raw["phi"]["kinds"] = [{"kind": "power", "p": 2.0}]
    state = make_state(parse_config(raw), out=tmp_path_factory.mktemp("gates"),
                       n_workers=1, quiet=True)
    ensure_ensemble(state)
    return state


def run_stage(base, stage, result, candidate=None):
    state = make_state(base.cfg, out=base.out, n_workers=1, quiet=True)
    state.result = result
    state.candidate = candidate
    stage(state)
    return {c.id: c for c in state.checks}


def with_nan(a, i=3):
    a = a.copy()
    a.flat[i] = np.nan
    return a


def test_nan_margin_fails_bound_gates(cached_state):
    # a NaN margin counts no violation (NaN < 0 is False); the gate must
    # still fail, on the non-finite worst margin
    res = cached_state.result
    clean = run_stage(cached_state, stage_sweep, res)
    assert clean["bounds.z_full"].passed
    # row 1 of the form axis is z_full
    doctored = replace(res, bound_margin=with_nan(res.bound_margin,
                                                  res.bound_margin[0].size + 3))
    checks = run_stage(cached_state, stage_sweep, doctored)
    assert "0 node violations" in checks["bounds.z_full"].detail
    assert not checks["bounds.z_full"].passed
    assert checks["bounds.x_full"].passed

    # phi-check reads the weak-limit candidate that sweep keeps
    sweep = make_state(cached_state.cfg, out=cached_state.out, n_workers=1,
                       quiet=True)
    sweep.result = res
    stage_sweep(sweep)
    clean = run_stage(cached_state, stage_phi, res, sweep.candidate)
    assert clean["phi.bound_derived_power2"].passed
    # the derived form reports its own overflow count
    assert clean["phi.bound_derived_power2"].detail == \
        "derived form; 0 node violations, 0 overflow nodes"
    # row 1 of the form axis is the derived form
    doctored = replace(res, weight_margin=with_nan(res.weight_margin,
                                                   res.weight_margin[0].size + 3))
    checks = run_stage(cached_state, stage_phi, doctored, sweep.candidate)
    assert "0 node violations" in checks["phi.bound_derived_power2"].detail
    assert not checks["phi.bound_derived_power2"].passed

    # a NaN in the weak-limit candidate is a violation with a NaN worst margin
    clean = run_stage(cached_state, stage_phi, res, sweep.candidate)
    assert clean["phi.bound_candidate_derived_power2"].passed
    checks = run_stage(cached_state, stage_phi, res,
                       with_nan(sweep.candidate, 5))
    assert not checks["phi.bound_candidate_derived_power2"].passed
    assert np.isnan(checks["phi.bound_candidate_derived_power2"].margin)
    assert "1 violations" in checks["phi.bound_candidate_derived_power2"].detail


def test_unstable_fernique_rows_fail_with_negative_margin(cached_state):
    # the margin is the distance of the most stable finite row below the
    # stability threshold: one large maximum among zeros makes every finite
    # row unstable, and with no finite row the margin is -inf
    res = cached_state.result
    row = "ou.fernique_stable_gamma"
    assert run_stage(cached_state, stage_simulate, res)[row].margin > 0
    for big, finite in ((200.0, True), (1e5, False)):
        w0_max = np.zeros_like(res.w0_max)
        w0_max[0] = big
        check = run_stage(cached_state, stage_simulate,
                          replace(res, w0_max=w0_max))[row]
        assert not check.passed and check.margin < 0, big
        assert np.isfinite(check.margin) == finite, big
        assert check.detail == "largest stable gamma = None"


def test_run_stages_runs_the_pass_once_and_records_each_stage(
        cached_state, monkeypatch, tmp_path, capsys):
    # run_stages alone announces, times and records the stages; the injected
    # result is the pass, so no stage may run another
    def no_pass(*args, **kwargs):
        raise AssertionError("a second pass")
    monkeypatch.setattr(harness, "run_ensemble", no_pass)
    for name, stages in cli.SUBCOMMAND_STAGES.items():
        state = make_state(cached_state.cfg, out=tmp_path / name, n_workers=1)
        state.result = cached_state.result
        run_stages(state, stages)
        said = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("stage ")]
        assert said == [f"stage {s}" for s in stages], name
        assert state.stages_done == list(stages), name
        assert list(state.stage_seconds) == list(stages), name


def test_overflow_fails_entropy_two_route(cached_state):
    # a non-finite path is dropped from its route's mean; the remaining
    # paths may still agree, so the dropped path itself must fail the row
    res = cached_state.result
    clean = run_stage(cached_state, stage_girsanov, res)
    assert clean["girsanov.entropy_two_route"].passed
    doctored = replace(res, zeta_tilde=with_nan(res.zeta_tilde))
    assert np.count_nonzero(~np.isfinite(doctored.log_rho_tilde)) == 1
    checks = run_stage(cached_state, stage_girsanov, doctored)
    assert not checks["girsanov.entropy_two_route"].passed
    rows = (cached_state.out / "entropy.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["0"] + ["1"] * (len(rows) - 1)


def test_overflow_fails_martingale(cached_state):
    # an overflowing density fails the row by its overflow count, not
    # through NaN arithmetic, and raises no warning
    res = cached_state.result
    assert run_stage(cached_state, stage_girsanov, res)["girsanov.martingale"].passed
    zeta = res.zeta.copy()
    zeta[0, 0, 3] = 1e6
    doctored = replace(res, zeta=zeta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = martingale_check(doctored, 0)
        checks = run_stage(cached_state, stage_girsanov, doctored)
    assert rep.overflow == 1 and not rep.passed
    assert martingale_check(doctored, 1).passed
    assert not checks["girsanov.martingale"].passed
    assert checks["girsanov.martingale"].margin == -np.inf


def test_nan_field_fails_weak_limit_rows(cached_state):
    # a NaN field point is a limsup violation with a NaN margin, and its gap
    # reaches the gap sequence
    res = cached_state.result
    clean = run_stage(cached_state, stage_sweep, res)
    assert clean["pseudoweak.limsup"].passed
    assert clean["pseudoweak.gap_sequence_decreasing"].passed
    fx = res.field_x.copy()
    fx[0, 5, 100, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = run_stage(cached_state, stage_sweep, replace(res, field_x=fx))
    assert not checks["pseudoweak.limsup"].passed
    assert np.isnan(checks["pseudoweak.limsup"].margin)
    assert checks["pseudoweak.limsup"].detail.startswith("1 violations")
    assert not checks["pseudoweak.gap_sequence_decreasing"].passed


def test_overflow_fails_stopped_moment(cached_state):
    # a kept path whose transformed density overflows fails its cell by its
    # overflow count, not through NaN arithmetic, and raises no warning
    res = cached_state.result
    clean = run_stage(cached_state, stage_girsanov, res)
    assert clean["girsanov.stopped_moment"].passed
    kept = res.tau[0] >= res.grid.horizon - 1e-15
    path = np.flatnonzero(kept[-1])[0]
    zt = res.zeta_tilde.copy()
    zt[0, 0, path] = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = run_stage(cached_state, stage_girsanov,
                           replace(res, zeta_tilde=zt))
    assert not checks["girsanov.stopped_moment"].passed
    rows = (cached_state.out / "stopped.csv").read_text().splitlines()[1:]
    failed = [r.split(",")[:2] for r in rows if r.endswith(",0")]
    # the cells of the first alpha at each level that keeps the path
    levels = cached_state.cfg.tau_levels
    assert failed == [[fmt(lvl), fmt(cached_state.cfg.alphas[0])]
                      for li, lvl in enumerate(levels) if lvl and kept[li, path]]


def test_dumped_paths_are_the_pass_paths(tmp_path):
    # paths.csv samples its paths apart from the pass; both take the step
    # of ou.ou_step on the same per-path noise, so they agree bit for bit
    cfg = load_config(SMOKE)
    res = ensure_ensemble(make_state(cfg, out=tmp_path, n_workers=1, quiet=True))
    stride = res.tasks.field_stride
    paths = sample_ou_paths(cfg.model, cfg.grid, 4, cfg.master_seed)
    for i, p in enumerate(paths):
        assert np.array_equal(p.w0[-1], res.final_w0[i]), i
        assert np.array_equal(p.w0[::stride], res.field_w0[i]), i


def test_every_csv_goes_through_traced_writer(cached_state, monkeypatch, tmp_path):
    # the benchmark's tracer wraps harness.write_csv with three positional
    # arguments and reads the size of the returned path; every CSV the
    # manifest lists must pass through that wrapper
    seen = {}
    write = harness.write_csv

    def traced(path, header, rows):
        out = write(path, header, rows)
        seen[Path(out).name] = Path(out).stat().st_size
        return out
    monkeypatch.setattr(harness, "write_csv", traced)
    state = make_state(cached_state.cfg, out=tmp_path, n_workers=1, quiet=True)
    state.result = cached_state.result
    run_stages(state, cli.SUBCOMMAND_STAGES["all"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    listed = {f["name"]: f["bytes"] for f in manifest["files"]
              if f["name"].endswith(".csv")}
    assert {"paths.csv", "sweep.csv", "density.csv", "phi_bounds_power2.csv",
            "gaps.csv", "lemma_constants.csv"} <= set(listed)
    assert seen == listed
