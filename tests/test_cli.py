import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermigas as fg
from fermigas.cli import _COMMANDS, _t_grid, build_parser, main
from fermigas.curves import parse_csv, write_table

SRC = str(Path(__file__).resolve().parents[1] / "src")
# child interpreters find the package the way this one did
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mu_curve_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "mu-curve", "--t-max", "0.5", "--steps", "6")
    assert code == 0
    curve = parse_csv(out)
    assert (curve.x_label, curve.y_label) == ("t", "m")
    assert len(curve.samples) == 6
    for t, m in curve.samples:
        assert m == fg.solve_mu(t)  # 17 significant digits round-trip exactly


def test_heat_curve_json(capsys):
    code, out, _ = run_cli(capsys, "heat-curve", "--t-max", "1.0", "--steps", "5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["x_label"] == "t" and doc["y_label"] == "c"
    assert doc["samples"][0] == [0.0, 0.0]


def test_thermo_curves_compute_only_their_column(capsys, monkeypatch):
    # mu-curve never calls heat_capacity; heat-curve calls solve_mu only
    # inside heat_capacity, once per grid point
    calls = []

    def refuse(t):
        raise AssertionError("heat capacity column of mu-curve")

    monkeypatch.setattr(fg.thermo, "heat_capacity", refuse)
    code, out, _ = run_cli(capsys, "mu-curve", "--t-max", "1.0", "--steps", "5")
    assert code == 0
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_csv(out).samples == tuple((t, fg.solve_mu(t)) for t in grid)
    monkeypatch.undo()

    real = fg.thermo.heat_capacity

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(fg.thermo, "heat_capacity", counted)
    code, out, _ = run_cli(capsys, "heat-curve", "--t-max", "1.0", "--steps", "5")
    assert code == 0
    assert calls == list(grid)
    assert parse_csv(out).samples == tuple((t, real(t)) for t in calls)


def test_msd_curve(capsys):
    code, out, _ = run_cli(capsys, "msd-curve", "--t-max", "1.0", "--steps", "3")
    assert code == 0
    curve = parse_csv(out)
    assert curve.y_label == "msd"
    assert curve.samples[0][1] == 0.375
    # each sample is the scalar call, bit for bit
    code, out, _ = run_cli(capsys, "msd-curve")
    assert code == 0
    samples = parse_csv(out).samples
    assert len(samples) == 200
    assert samples == tuple((t, fg.mean_square_size(t)) for t, _ in samples)


@pytest.mark.parametrize("argv, message", [
    (("mu-curve", "--t-max", "1e300", "--steps", "3"), "at most 3e+102 for m, got 5e+299"),
    (("heat-curve", "--t-max", "1e300", "--steps", "3"), "at most 3e+102 for m, got 5e+299"),
    (("msd-curve", "--t-max", "8e102", "--steps", "3"), "at most 3e+102 for m, got 4e+102"),
    (("profile", "--t", "0,0.5,1e200"), "at most 3e+102 for m, got 1e+200"),
])
def test_temperature_caps(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_profile_blocks_per_temperature(capsys):
    code, out, _ = run_cli(capsys, "profile", "--t", "0,0.5", "--samples", "4",
                           "--s-max", "1.2")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2
    assert blocks[0].startswith("# t = 0")
    curve = parse_csv(blocks[1])
    assert curve.samples[0][1] == fg.density(0.0, 0.5)


def test_profile_momentum_same_numbers(capsys):
    _, out_s, _ = run_cli(capsys, "profile", "--t", "0.5", "--samples", "5", "--space")
    _, out_q, _ = run_cli(capsys, "profile", "--t", "0.5", "--samples", "5",
                          "--momentum")
    assert out_q.replace("q,density", "s,density") == out_s


def test_scales_preset_json(capsys):
    code, out, _ = run_cli(capsys, "scales", "--preset", "li6-top", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    sc = fg.derive_scales(fg.PRESETS["li6-top"])
    assert doc["r_fermi_m"] == sc.r_fermi
    assert doc["sigma_r_m"] == sc.sigma_r
    assert doc["t_fermi_k"] == sc.t_fermi


@pytest.mark.parametrize("command", ["mu-curve", "heat-curve", "msd-curve"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curve_commands_print_the_library_curve(capsys, command, fmt):
    code, out, _ = run_cli(capsys, command, "--t-min", "0.05", "--t-max", "1.3",
                           "--steps", "7", "--format", fmt)
    assert code == 0
    grid = np.linspace(0.05, 1.3, 7).tolist()
    mu_curve, c_curve = fg.thermo_curve(grid)
    curve = {"mu-curve": mu_curve, "heat-curve": c_curve,
             "msd-curve": fg.msd_curve(grid)}[command]
    assert out == (curve.to_json() if fmt == "json" else curve.to_csv())


LI6_TOP_FLAGS = ("--mass", "9.988e-27", "--omega-r", "3800",
                 "--lambda", repr(math.sqrt(8.0)), "--n", "100000")


@pytest.mark.parametrize("command", ["scales", "bose-compare"])
@pytest.mark.parametrize("flag, value", [(None, None), ("--n", "1000"), ("--lambda", "1"),
                                         ("--mass", "1e-26"), ("--omega-r", "500")])
def test_trap_flags_replace_preset_fields(capsys, command, flag, value):
    explicit = list(LI6_TOP_FLAGS)
    override = ()
    if flag is not None:
        explicit[explicit.index(flag) + 1] = value
        override = (flag, value)
    code, want, _ = run_cli(capsys, command, *explicit)
    assert code == 0
    code, got, _ = run_cli(capsys, command, "--preset", "li6-top", *override)
    assert code == 0
    assert got == want


def test_config_trap_entry_replaces_preset_field(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "fermigas.conf"
    cfg.write_text("preset=li6-top\nn=1000\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "scales")
    assert code == 0
    assert "n_particles,1000\n" in out


def test_scales_requires_full_spec(capsys):
    code, _, err = run_cli(capsys, "scales", "--mass", "1e-26")
    assert code == 2
    assert "--omega-r" in err


def write_dv_table(path):
    s = np.linspace(0.0, 1.0, 60)
    rows = "\n".join(f"{x:.10f},{1e-3 * x * x:.12e}" for x in s)
    path.write_text("s,delta_v\n" + rows + "\n")
    return str(path)


def test_determinism_byte_identical(tmp_path, capsys):
    table = write_dv_table(tmp_path / "dv.csv")
    invocations = {
        "mu-curve": ("--t-max", "0.5", "--steps", "8"),
        "heat-curve": ("--t-max", "0.5", "--steps", "8"),
        "msd-curve": ("--t-max", "0.5", "--steps", "8"),
        "profile": ("--t", "0,0.25", "--samples", "16"),
        "scales": ("--preset", "li6-top"),
        "perturb": ("--delta-v", table),
        "bose-compare": ("--preset", "li6-top"),
        "oracle": ("--n", "2000", "--shells", "10,20"),
        "validity": ("--n", "1000"),
    }
    assert sorted(invocations) == sorted(_COMMANDS)
    for command, args in invocations.items():
        for fmt in ("csv", "json"):
            code, first, _ = run_cli(capsys, command, *args, "--format", fmt)
            assert code == 0, (command, fmt)
            _, second, _ = run_cli(capsys, command, *args, "--format", fmt)
            assert first == second, (command, fmt)


def test_every_subcommand_has_a_handler():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(_COMMANDS)


def test_write_table_rejects_unknown_format():
    with pytest.raises(fg.DomainError, match="unknown output format 'xml'"):
        write_table("xml", ("a",), [(1.0,)])


def test_output_file_and_empty_curve_guard(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "mu-curve", "--t-max", "0.4", "--steps", "3",
                         "--output", str(target))
    assert code == 0
    assert parse_csv(target.read_text()).samples[0] == (0.0, 1.0)

    missing = tmp_path / "nothing.csv"
    code, _, err = run_cli(capsys, "mu-curve", "--steps", "1",
                           "--output", str(missing))
    assert code == 2
    assert not missing.exists()
    assert "--steps" in err
    with pytest.raises(fg.DomainError, match="empty curve file"):
        parse_csv("# only\n")


TRAP_OVERFLOW = ("48 * n_particles * lambda must be finite, "
                 "got n_particles = 1e+307 and lambda = 10.0")


def test_usage_errors(capsys):
    assert run_cli(capsys, "mu-curve", "--steps", "0")[0] == 2
    assert run_cli(capsys, "mu-curve", "--t-max", "-1")[0] == 2
    assert run_cli(capsys, "mu-curve", "--t-max", "0.1", "--t-min", "0.5")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "profile", "--t", ",")[0] == 2
    assert run_cli(capsys, "validity", "--radii", "nan,0.5")[0] == 2
    assert run_cli(capsys, "oracle", "--shells", "nan")[0] == 2
    assert run_cli(capsys, "oracle", "--shells", "1e400")[0] == 2
    assert run_cli(capsys, "oracle", "--shells", "1e300")[0] == 2
    assert run_cli(capsys, "oracle", "--shells", "1e9")[0] == 2
    assert run_cli(capsys, "oracle", "--lambda", "1e-7")[0] == 2
    huge_n = "1" + "0" * 400
    assert run_cli(capsys, "scales", "--mass", "1e-26", "--omega-r", "1000",
                   "--lambda", "1", "--n", huge_n)[0] == 2
    assert run_cli(capsys, "bose-compare", "--mass", "1e-26", "--omega-r", "1000",
                   "--lambda", "1", "--n", huge_n)[0] == 2
    assert run_cli(capsys, "profile", "--t", "abc")[0] == 2
    assert run_cli(capsys, "oracle", "--shells", ",")[0] == 2
    # a value argparse cannot read is argparse's usage error
    assert "invalid float value: 'abc'" in run_cli(capsys, "oracle", "--lambda", "abc")[2]
    assert "invalid int value: '2.5'" in run_cli(capsys, "scales", "--preset", "li6-top",
                                                  "--n", "2.5")[2]
    # one out-of-domain value per number flag: the library check names it
    li6 = ("--preset", "li6-top")
    for argv, message in [
        (("scales", *li6, "--mass", "-1"), "mass must be finite and positive, got -1.0"),
        (("scales", *li6, "--omega-r", "0"), "omega_r must be finite and positive, got 0.0"),
        (("scales", *li6, "--lambda", "nan"), "lambda must be finite and positive, got nan"),
        (("scales", *li6, "--n", "0"), "n_particles must be a positive integer, got 0.0"),
        (("bose-compare", *li6, "--n", "-3"), "n_particles must be a positive integer, got -3.0"),
        (("bose-compare", *li6, "--u-bose", "-0.5"),
         "u_bose must be finite and positive, got -0.5"),
        (("bose-compare", *li6, "--a-scatt", "inf"),
         "a_scatt must be finite and positive, got inf"),
        (("mu-curve", "--t-min", "-1"),
         "need 0 <= --t-min < --t-max < inf, got --t-min -1.0 and --t-max 2.0"),
        (("heat-curve", "--t-max", "inf"),
         "need 0 <= --t-min < --t-max < inf, got --t-min 0.0 and --t-max inf"),
        (("msd-curve", "--steps", "-4"), "--steps must be an integer from 2 to 1000000, got -4"),
        (("profile", "--s-max", "0"), "s_max must be finite and positive, got 0.0"),
        (("profile", "--s-max", "1e-320"), "s_max = 1e-320 and n_samples = 300 give a "
                                           "radius grid that is not strictly increasing"),
        (("profile", "--samples", "1"), "n_samples must be an integer from 2 to 1000000, got 1"),
        (("profile", "--samples", "100000000000000000000"),
         "n_samples must be an integer from 2 to 1000000, got 100000000000000000000"),
        (("heat-curve", "--steps", "1000001"),
         "--steps must be an integer from 2 to 1000000, got 1000001"),
        (("mu-curve", "--steps", "100000000000000000000"),
         "--steps must be an integer from 2 to 1000000, got 100000000000000000000"),
        (("oracle", "--n", "0"), "n_particles must be a positive integer, got 0.0"),
        (("oracle", "--lambda", "-1"), "lambda must be finite and positive, got -1.0"),
        (("oracle", "--t", "-0.5"),
         "reduced temperature must be finite and non-negative, got -0.5"),
        (("validity", "--n", "-5"), "n_particles must be a positive integer, got -5.0"),
        (("validity", "--lambda", "inf"), "lambda must be finite and positive, got inf"),
        # 48 N lambda past the float range: one trap check for every command
        (("scales", "--mass", "1e-26", "--omega-r", "1000", "--lambda", "10",
          "--n", "1" + "0" * 307), TRAP_OVERFLOW),
        (("bose-compare", "--mass", "1e-26", "--omega-r", "1000", "--lambda", "10",
          "--n", "1" + "0" * 307), TRAP_OVERFLOW),
        (("oracle", "--lambda", "10", "--n", "1" + "0" * 307), TRAP_OVERFLOW),
        (("validity", "--lambda", "10", "--n", "1" + "0" * 307), TRAP_OVERFLOW),
        # SI scales past the float range
        (("scales", "--mass", "1e-300", "--omega-r", "1e-300", "--lambda", "1", "--n", "1000"),
         "mass = 1e-300 and omega_r = 1e-300 give SI scales outside the float range"),
        (("scales", "--mass", "1e-26", "--omega-r", "1e300", "--lambda", "1",
          "--n", "1" + "0" * 300),
         "mass = 1e-26 and omega_r = 1e+300 give SI scales outside the float range"),
        (("bose-compare", "--mass", "1e-26", "--omega-r", "1e300", "--lambda", "1",
          "--n", "1" + "0" * 300),
         "mass = 1e-26 and omega_r = 1e+300 give SI scales outside the float range"),
    ]:
        assert run_cli(capsys, *argv) == (2, "", f"fermigas: error: {message}\n"), argv


def test_bose_compare_pauli_pseudopotential_outside_the_float_range(capsys):
    # SI scales in range, but E_F R_F^3/N or its trap-unit form u_eff /
    # (hbar omega_r sigma_r^3) is not: R_F^3 overflows, sigma_r^3 overflows,
    # hbar omega_r sigma_r^3 rounds to 0, u_eff / (hbar omega_r sigma_r^3) to 0
    for mass, omega_r, lam, n in [("1e-200", "1e-100", "1", "1000"),
                                  ("1e-270", "1e30", "1e-06", "1"),
                                  ("1e-110", "1e300", "1e-06", "1" + "0" * 30),
                                  ("1e-300", "1e110", "1e-06", "1")]:
        message = (f"mass = {float(mass)!r} and omega_r = {float(omega_r)!r} give a Pauli "
                   "pseudopotential outside the float range")
        argv = ("bose-compare", "--mass", mass, "--omega-r", omega_r, "--lambda", lam, "--n", n)
        assert run_cli(capsys, *argv) == (2, "", f"fermigas: error: {message}\n"), argv


def test_config_file_defaults_and_flag_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "fermigas.conf"
    cfg.write_text("# defaults for curve runs\nt-max=0.5\nsteps=4\nformat=json\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "mu-curve")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["samples"]) == 4
    assert doc["samples"][-1][0] == 0.5
    # explicit flag beats the file
    code, out, _ = run_cli(capsys, "mu-curve", "--steps", "3")
    assert len(json.loads(out)["samples"]) == 3


def test_config_file_loses_to_abbreviated_flags(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "fermigas.conf"
    cfg.write_text("t-max=0.5\nsteps=4\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "mu-curve", "--t-ma", "1.0", "--ste", "3")
    assert code == 0
    assert [t for t, _ in parse_csv(out).samples] == [0.0, 0.5, 1.0]


def test_config_file_supplies_required_option(tmp_path, capsys, monkeypatch):
    table = write_dv_table(tmp_path / "dv.csv")
    _, expected, _ = run_cli(capsys, "perturb", "--delta-v", table)
    cfg = tmp_path / "perturb.conf"
    cfg.write_text(f"delta-v={table}\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "perturb")
    assert code == 0
    assert out == expected


def test_config_file_and_flag_from_either_or_pair(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bose.conf"
    cfg.write_text("u-bose=0.5\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "bose-compare", "--preset", "li6-top",
                           "--a-scatt", "0.01")
    assert code == 2
    assert "--u-bose" in err and "--a-scatt" in err


def test_config_file_help_key_rejected(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "help.conf"
    cfg.write_text("help=1\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "scales", "--preset", "li6-top")
    assert code == 2
    assert out == ""


def test_config_file_unknown_key_rejected(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("tmax=0.5\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "mu-curve")
    assert code == 2
    assert "tmax" in err
    cfg.write_text("t-max=0.5\nsteps\n")
    code, out, err = run_cli(capsys, "mu-curve")
    assert (code, out) == (2, "")
    assert err.endswith(f"{cfg}:2: expected key=value, got 'steps'\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(tmp_path / "missing.conf"))
    code, out, err = run_cli(capsys, "mu-curve")
    assert (code, out) == (2, "")
    assert "cannot read config file" in err


def test_config_file_choices_checked(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "choices.conf"
    cfg.write_text("preset=no-such-trap\n")
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "scales")
    assert code == 2
    assert "no-such-trap" in err
    cfg.write_text("format=xml\n")
    assert run_cli(capsys, "scales", "--preset", "li6-top")[0] == 2


def test_perturb_round_trip(tmp_path, capsys):
    table = write_dv_table(tmp_path / "dv.csv")
    code, out, _ = run_cli(capsys, "perturb", "--delta-v", table,
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_e_fermi"] == pytest.approx(5e-4, abs=1e-6)
    assert len(doc["samples"]) == 2048

    code, out, _ = run_cli(capsys, "perturb", "--delta-v", table)
    assert code == 0
    assert out.startswith("# delta_e_fermi_over_e_fermi = ")
    assert "s,delta_n" in out

    # the table's header row is optional
    bare = tmp_path / "bare.csv"
    bare.write_text(Path(table).read_text().split("\n", 1)[1])
    assert run_cli(capsys, "perturb", "--delta-v", str(bare)) == (0, out, "")


def test_perturb_table_skips_comment_and_blank_lines(tmp_path, capsys):
    table = write_dv_table(tmp_path / "dv.csv")
    code, out, _ = run_cli(capsys, "perturb", "--delta-v", table)
    assert code == 0
    lines = Path(table).read_text().split("\n")
    lines[20:20] = ["# a comment between data rows", "", "   # indented"]
    commented = tmp_path / "commented.csv"
    commented.write_text("\n".join(lines))
    assert run_cli(capsys, "perturb", "--delta-v", str(commented)) == (0, out, "")


def test_perturb_bad_table(tmp_path, capsys):
    table = tmp_path / "partial.csv"
    table.write_text("0.5,0.0\n1.0,0.0\n")
    code, _, err = run_cli(capsys, "perturb", "--delta-v", str(table))
    assert code == 2
    assert "cover" in err
    for text, message in [("s,dv\n0,0\n1,0\nend\n", "malformed table row ['end']"),
                          ("s,dv\n0,0\n", "need at least two (s, dV/E_F) rows"),
                          ("s,dv\n0,0\n0.5,0.01\n0.5,0.02\n1,0.03\n",
                           "field table abscissa must be strictly increasing")]:
        table.write_text(text)
        code, out, err = run_cli(capsys, "perturb", "--delta-v", str(table))
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize("text, row", [
    ("s,dv\n0,0\n0.5,0.01,junk\n1,0.02\n", ['0.5', '0.01', 'junk']),  # a third field
    ("s,dv\n0\n1,0.02\n", ['0']),
    ("title\ns,dv\n0,0\n1,0\n", ['title']),  # a label line of one field
    ("s,dv,note\n0,0\n1,0\n", ['s', 'dv', 'note']),
    ("s,dv\nunits,none\n0,0\n1,0\n", ['units', 'none']),  # a second label line
    ("s,dv\n# units\n\nunits,none\n0,0\n1,0\n", ['units', 'none']),
])
def test_perturb_table_rows_hold_two_fields_after_one_label_line(tmp_path, capsys, text, row):
    table = tmp_path / "dv.csv"
    table.write_text(text)
    code, out, err = run_cli(capsys, "perturb", "--delta-v", str(table))
    assert (code, out) == (2, "")
    assert f"{table}: malformed table row {row!r}" in err


@pytest.mark.parametrize("rows, message", [
    ("nan,0\n0.5,0.01\n1,0.02", "field table s must be finite, got nan in row 1"),
    ("0,0\nnan,0.01\n1,0.02", "field table s must be finite, got nan in row 2"),
    ("0,0\n0.5,0.01\nnan,0.02", "field table s must be finite, got nan in row 3"),
    ("0,0\n0.5,nan\n1,0.02", "field table dV/E_F must be finite, got nan in row 2"),
    ("0,0\n0.5,0.01\n1,inf", "field table dV/E_F must be finite, got inf in row 3"),
])
def test_perturb_non_finite_table_entry(tmp_path, capsys, rows, message):
    table = tmp_path / "dv.csv"
    table.write_text("s,delta_v\n" + rows + "\n")
    code, out, err = run_cli(capsys, "perturb", "--delta-v", str(table))
    assert code == 2
    assert out == ""
    assert message in err


def test_perturb_missing_file_is_io_failure(capsys):
    code, _, _ = run_cli(capsys, "perturb", "--delta-v", "/no/such/file.csv")
    assert code == 1


def test_unreadable_and_unwritable_files_print_io_failures(capsys):
    code, out, err = run_cli(capsys, "perturb", "--delta-v", "/no/such/file.csv")
    assert (code, out) == (1, "")
    assert err.startswith("fermigas: I/O failure: ") and "/no/such/file.csv" in err
    code, out, err = run_cli(capsys, "mu-curve", "--t-max", "0.4", "--steps", "3",
                             "--output", "/nonexistent-dir/x.csv")
    assert (code, out) == (1, "")
    assert err.startswith("fermigas: I/O failure: ") and "/nonexistent-dir/x.csv" in err


def test_input_files_that_are_not_utf8_are_malformed(tmp_path, capsys, monkeypatch):
    table = tmp_path / "table.bin"
    table.write_bytes(bytes(range(256)) * 4)
    code, out, err = run_cli(capsys, "perturb", "--delta-v", str(table))
    assert (code, out) == (2, "")
    assert err.startswith(f"fermigas: error: {table}: not a UTF-8 CSV table: ")
    table.write_text("s,dv\n" + "0" * 200_000 + ",0\n")  # past the csv module's field limit
    code, out, err = run_cli(capsys, "perturb", "--delta-v", str(table))
    assert (code, out) == (2, "")
    assert err.startswith(f"fermigas: error: {table}: not a UTF-8 CSV table: field larger")
    cfg = tmp_path / "utf16.conf"
    cfg.write_bytes(b"\xff\xfe" + "t-max=0.5\n".encode("utf-16-le"))
    monkeypatch.setenv("FERMIGAS_CONFIG", str(cfg))
    code, out, err = run_cli(capsys, "mu-curve")
    assert (code, out) == (2, "")
    assert err.startswith(f"fermigas: error: {cfg}: not UTF-8 text: ")


def test_bose_compare_report(capsys):
    code, out, _ = run_cli(capsys, "bose-compare", "--preset", "li6-top",
                           "--u-bose", "0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kf_a_eff"] == 1.0
    assert doc["r_bose_sigma"] == pytest.approx(
        fg.bose_radius(fg.BoseParams(100_000, math.sqrt(8.0), u_bose=0.5)))


def test_oracle_report(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "2000", "--t", "0.3",
                           "--shells", "10,20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gap_adjusted_over_e_fermi"] < 0.005
    assert doc["central_density_ratio_shell_10"] == pytest.approx(1.0647, abs=1e-3)


@pytest.mark.parametrize("shells, bad", [("10.7,10", "10.7"), ("0.5", "0.5"), ("-3", "-3"),
                                         ("10,20,10", "10")])
def test_oracle_shells_are_distinct_nonnegative_integers(capsys, shells, bad):
    code, out, err = run_cli(capsys, "oracle", "--n", "2000", "--shells", shells)
    assert (code, out) == (2, "")
    assert f"got {bad!r} in {shells!r}" in err


def test_oracle_at_zero_temperature(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--t", "0", "--n", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["mu_exact_hbar_omega"] == 3.5
    code, out, err = run_cli(capsys, "oracle", "--t", "0")
    assert (code, out) == (2, "")
    assert "N = 10000 leaves a partially filled level at T = 0" in err


def test_oracle_at_a_subnormal_temperature_prints_no_warning():
    proc = subprocess.run([sys.executable, "-m", "fermigas", "oracle", "--n", "1000",
                           "--t", "1e-320"],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("fermigas: numerical failure: occupation residual")
    assert "Warning" not in proc.stderr and proc.stderr.count("\n") == 1


def test_oracle_at_readme_particle_number(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "100000")
    assert code == 0
    assert out.startswith("key,value\nn_particles,100000\n")


def test_validity_report_output(capsys):
    code, out, _ = run_cli(capsys, "validity", "--n", "1000",
                           "--radii", "0,0.5,1.1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["margin"] is None  # infinite at the trap center
    assert doc["rows"][2]["margin"] == 0.0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fermigas", "mu-curve", "--t-max", "0.2",
         "--steps", "3"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,m")


def test_import_loads_no_scipy():
    probe = ("import sys, fermigas; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imported_modules(*args):
    """The modules a child interpreter imports, from its -X importtime report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_import_loads_no_numpy():
    modules = _imported_modules("-c", "import fermigas")
    assert "fermigas" in modules
    assert "numpy" not in modules


def test_half_integer_fd_of_a_float_loads_no_numpy():
    modules = _imported_modules("-c", "import fermigas; fermigas.fd(1.5, 0.3)")
    # a submodule imported by name is not reported, but what fdint imports is
    assert "fermigas.errors" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("call", ["fermigas.fd(1.5, 1)",
                                  "fermigas.fd_orders((1.5, 2.0), Fraction(3, 10))"])
def test_fd_of_a_number_scalar_loads_no_numpy(call):
    # an int or another number that is no float takes the float path
    modules = _imported_modules("-c", f"import fermigas; from fractions import Fraction; {call}")
    assert "fermigas.errors" in modules
    assert "numpy" not in modules


def test_fermi_factor_of_a_float_loads_no_numpy():
    modules = _imported_modules(
        "-c", "import fermigas; fermigas.phase_space_occupancy(0.5, 0.5, 0.2, 0.9)")
    assert "fermigas.thermo" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", [["scales", "--preset", "li6-top"],
                                  ["bose-compare", "--preset", "li6-top"],
                                  ["mu-curve"], ["heat-curve"], ["msd-curve"],
                                  ["profile"], ["profile", "--momentum"],
                                  ["validity"], ["validity", "--format", "json"],
                                  ["perturb", "--delta-v", "TABLE"],
                                  ["perturb", "--delta-v", "TABLE", "--format", "json"],
                                  ["oracle"]] + [
    ["oracle", "--n", n, "--lambda", lam, "--t", t] for n in ("1000", "30000")
    for lam in ("0.5", "1.0", repr(math.sqrt(8.0))) for t in ("0.02", "0.2")])
def test_key_value_and_thermo_commands_load_no_numpy(argv, tmp_path):
    table = write_dv_table(tmp_path / "dv.csv")
    modules = _imported_modules("-m", "fermigas", *[table if a == "TABLE" else a for a in argv])
    assert "fermigas.cli" in modules
    assert "numpy" not in modules
    # nor what only fdint's constant tables used, nor the frozen-record
    # machinery of dataclasses, which imports inspect, nor the numeric tower:
    # the number checks refuse text by a type test
    assert not modules & {"fractions", "decimal", "dataclasses", "inspect", "numbers"}
    # csv is imported only where the perturb table is read
    assert ("csv" in modules) == (argv[0] == "perturb")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_validity_loads_no_exact_sum_module(fmt):
    # the margins are closed forms in scales; the exact level sums, the
    # equation of state and the FD kernel stay unloaded
    probe = ("import json, sys\n"
             "from fermigas.cli import main\n"
             f"code = main(['validity', '--format', '{fmt}'])\n"
             "sys.stderr.write(json.dumps([code, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stderr)
    assert code == 0 and proc.stdout
    assert "fermigas.scales" in modules and "fermigas.cli" in modules
    assert not set(modules) & {"fermigas.oracle", "fermigas.thermo", "fermigas.fdint"}
    assert fg.oracle.validity_table is fg.scales.validity_table


def test_array_commands_still_load_numpy():
    # the probe itself: a command that needs arrays shows numpy in the report;
    # below T = 0.1 hbar omega_r oracle takes the level sum
    assert "numpy" in _imported_modules("-m", "fermigas", "oracle", "--n", "1000", "--t", "0.001")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_validity_rows_are_the_report_arrays(capsys, fmt):
    radii = [0.0, 1e-3, 0.25, 0.45, 0.5, 0.7, 0.95, 1.0, 1.05, 1.2]
    code, out, _ = run_cli(capsys, "validity", "--n", "123457", "--lambda", "2.5",
                           "--radii", ",".join(map(repr, radii)), "--format", fmt)
    assert code == 0
    rep = fg.validity_report(123457, 2.5, radii)
    if fmt == "json":
        doc = json.loads(out)
        rows = [[r["s"], r["margin"], r["cell_scale"]] for r in doc["rows"]]
        shell, inv_kf = doc["shell_thickness_sigma"], doc["inv_k_fermi_sigma"]
        rows = [[math.inf if x is None and j == 1 else math.nan if x is None else x
                 for j, x in enumerate(row)] for row in rows]
    else:
        lines = out.splitlines()
        shell, inv_kf = (float(line.split(" = ")[1]) for line in lines[:2])
        assert lines[2] == "s,margin,cell_scale"
        rows = [[float(x) for x in line.split(",")] for line in lines[3:]]
    columns = np.array(rows).T
    for got, want in zip(columns, (rep.radii, rep.margin, rep.cell_scale)):
        np.testing.assert_array_equal(got, want)
    assert (shell, inv_kf) == (rep.shell_thickness_sigma, rep.inv_k_fermi_sigma)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_perturb_rows_are_the_response_arrays(tmp_path, capsys, fmt):
    table = write_dv_table(tmp_path / "dv.csv")
    code, out, _ = run_cli(capsys, "perturb", "--delta-v", table, "--format", fmt)
    assert code == 0
    s, v = np.loadtxt(table, delimiter=",", skiprows=1, unpack=True)
    resp = fg.density_response(fg.PerturbationField.from_table(s, v))
    if fmt == "json":
        doc = json.loads(out)
        de, rows = doc["delta_e_fermi"], doc["samples"]
    else:
        lines = out.splitlines()
        de = float(lines[0].split(" = ")[1])
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    assert de == resp.delta_e_fermi
    np.testing.assert_array_equal(np.array(rows), np.stack([resp.s_grid, resp.delta_n], 1))


PUBLIC_NAMES = [
    "BoseParams", "CharacteristicScales", "ContinuumComparison", "DiscreteSpectrum",
    "DomainError", "FermiGasError", "NumericsError", "PRESETS", "PauliPseudopotential",
    "PerturbationField", "ResponseResult", "SUPPORTED_ORDERS", "ThermoState", "TrapSpec",
    "UniversalCurve", "ValidityReport", "bose", "bose_chemical_potential", "bose_profile",
    "bose_radius", "breakdown_shell_distance", "build_spectrum", "classical_mu",
    "closed_shell_count", "continuum_comparison", "continuum_reliable", "counting_check",
    "curves", "density", "density_response", "derive_scales", "effective_radius", "errors",
    "exact_central_density", "exact_mu", "fd", "fd_derivative", "fd_orders", "fdint",
    "fermi_energy_shift", "from_scaled", "heat_capacity", "internal_energy",
    "mean_field_correction", "mean_square_size", "momentum_density", "msd_curve",
    "normalization", "oracle", "pauli_pseudopotential", "perturb", "phase_space_occupancy",
    "profile_curves", "profiles", "scales", "semiclassical_central_density", "solve_mu",
    "sommerfeld_mu", "thermo", "thermo_curve", "thermo_state", "to_scaled",
    "validity_report", "zero_t_density",
]


def test_public_names_resolve_lazily():
    assert len(PUBLIC_NAMES) == 64
    assert sorted(fg.__all__) == PUBLIC_NAMES
    names = ("bose", "curves", "errors", "fdint", "oracle", "perturb", "profiles",
             "scales", "thermo")
    submodules = [getattr(fg, name) for name in names]
    assert submodules == [sys.modules[f"fermigas.{name}"] for name in names]
    for name in PUBLIC_NAMES:
        value = getattr(fg, name)
        # a submodule itself, or the object that one of them defines
        assert value in submodules or any(getattr(m, name, None) is value for m in submodules)
    assert set(PUBLIC_NAMES) <= set(dir(fg))
    assert fg.thermo.solve_mu is fg.solve_mu


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fermigas import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["fd"] is fg.fdint.fd


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fg.no_such_name
    assert not hasattr(fg, "numpy")
    with pytest.raises(ImportError):
        exec("from fermigas import no_such_name", {})


def test_t_grid_is_numpy_linspace_bit_for_bit():
    # the cli workload draws --t-max in [1, 2.5] and --steps in [100, 300]
    rng = np.random.default_rng(12)
    cases = [(0.0, 2.0, 200), (0.0, 50.0, 300), (0.0, 0.05, 200), (0.3, 1.7, 7),
             (0.1, 3.3, 173), (0.0, 1.0, 2), (1e-300, 1e300, 1000)]
    cases += [(0.0, float(t), int(n)) for t, n in zip(rng.uniform(1.0, 2.5, 500),
                                                      rng.integers(100, 301, 500))]
    cases += [(float(a), float(a + d), int(n)) for a, d, n in
              zip(rng.uniform(0.0, 1.0, 300), rng.exponential(2.0, 300) + 1e-6,
                  rng.integers(2, 500, 300))]
    for t_min, t_max, steps in cases:
        grid = _t_grid({"t_min": t_min, "t_max": t_max, "steps": steps})
        expected = np.linspace(t_min, t_max, steps).tolist()
        assert all(type(t) is float for t in grid)
        assert grid == expected, (t_min, t_max, steps)
    # the profile grids: [0, 1] or [0, s_max] at t = 0, else [0, s_max] or
    # [0, sqrt(max(m, 0) + 25 t)]
    cases = [(0.0, 300, None), (0.0, 57, 1.5), (0.25, 300, None), (0.5, 300, 1.5),
             (1.0, 2, None), (1e-12, 300, None), (5.0, 1000, None)]
    cases += [(float(t), int(n), None if x < 0.5 else float(x)) for t, n, x in
              zip(rng.uniform(0.0, 2.0, 40), rng.integers(2, 400, 40), rng.uniform(0.0, 3.0, 40))]
    for t, n, s_max in cases:
        (curve,) = fg.profile_curves([t], n, s_max)
        if s_max is None:
            warm = t > fg.thermo._TINY_T
            s_max = math.sqrt(max(fg.solve_mu(t), 0.0) + 25.0 * t) if warm else 1.0
        grid = [s for s, _ in curve.samples]
        assert all(type(s) is float for s in grid)
        assert grid == np.linspace(0.0, s_max, n).tolist(), (t, n, s_max)


def test_validity_default_radii_are_the_numpy_expression():
    radii = build_parser().parse_args(["validity"]).radii
    assert all(type(s) is float for s in radii)
    assert radii == [round(x, 3) for x in np.linspace(0.0, 1.2, 25)]


def test_oracle_at_low_temperature_prints_no_warning():
    # e^((eps - mu)/T) overflows for the levels far above mu at t = 1e-4
    proc = subprocess.run([sys.executable, "-m", "fermigas", "oracle", "--n", "969",
                           "--t", "0.0001"], capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
