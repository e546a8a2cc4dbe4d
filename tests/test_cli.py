import json
import math
import time

import numpy as np
import pytest

import segrent as sg
from segrent import cli

from conftest import werner_state


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------------ state files

def test_state_file_round_trip(tmp_path, ghz3):
    path = tmp_path / "ghz.json"
    cli.write_state_file(str(path), ghz3)
    loaded, digest = cli.read_state_file(str(path))
    assert isinstance(loaded, sg.BoxTensor)
    assert np.array_equal(loaded.amps, ghz3.amps)
    assert len(digest) == 64


def test_state_file_round_trip_mixed(tmp_path):
    rho = werner_state(0.8)
    path = tmp_path / "werner.json"
    cli.write_state_file(str(path), rho)
    loaded, _ = cli.read_state_file(str(path))
    assert isinstance(loaded, sg.DensityMatrix)
    assert np.max(np.abs(loaded.mat - rho.mat)) <= 1e-15


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("index_base"), "index_base"),
    (lambda d: d.update(layout="column-major"), "layout"),
    (lambda d: d.update(index_base=1), "index_base"),
    (lambda d: d.update(amps=d["amps"][:-1]), "amps"),
    (lambda d: d["amps"].__setitem__(0, [1.0]), "amps[0]"),
    (lambda d: d.update(rho=[[[1.0, 0.0]]]), "exactly one"),
    (lambda d: d.update(dims=[2, "x"]), "dims"),
])
def test_state_file_schema_errors(bell, mutate, fragment):
    doc = cli.state_file_dict(bell)
    mutate(doc)
    with pytest.raises(sg.StateFileError) as err:
        cli.parse_state_file(doc)
    assert fragment in str(err.value)


# -------------------------------------------------------------------- commands

def test_gen_state_ghz(capsys):
    doc = run_json(capsys, "gen-state", "--name", "ghz", "--dims", "2,2,2")
    assert doc["dims"] == [2, 2, 2]
    assert doc["amps"][0][0] == pytest.approx(0.70710678, abs=1e-8)
    assert doc["amps"][7][0] == pytest.approx(0.70710678, abs=1e-8)
    assert doc["layout"] == "row-major" and doc["index_base"] == 0


def test_gen_state_writes_file(tmp_path, capsys):
    out = tmp_path / "bell.json"
    doc = run_json(capsys, "gen-state", "--name", "bell", "--dims", "2,2",
                   "--out", str(out))
    assert json.loads(out.read_text()) == doc


def test_measure_round_trips_library_value(tmp_path, capsys, bell):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    report = run_json(capsys, "measure", "--in", str(path), "--which", "F")
    assert report["results"]["value"] == sg.measure_F(bell).value
    assert report["results"]["which"] == "F"
    assert report["input"]["kind"] == "pure"
    report_e = run_json(capsys, "measure", "--in", str(path), "--which", "E",
                        "--norm", "4.0")
    assert report_e["results"]["value"] == pytest.approx(2.0, abs=1e-12)


def test_gen_state_then_measure_round_trip(tmp_path, capsys, w3):
    path = tmp_path / "w.json"
    run_json(capsys, "gen-state", "--name", "w", "--dims", "2,2,2",
             "--out", str(path))
    report = run_json(capsys, "measure", "--in", str(path), "--which", "E")
    assert report["results"]["value"] == sg.measure_E(w3).value
    report_f = run_json(capsys, "measure", "--in", str(path))
    assert report_f["results"]["value"] == sg.measure_F(w3).value


def test_measure_breakdown_keys(tmp_path, capsys, ghz3):
    path = tmp_path / "ghz.json"
    cli.write_state_file(str(path), ghz3)
    report = run_json(capsys, "measure", "--in", str(path), "--which", "F",
                      "--breakdown")
    assert set(report["results"]["per_class"]) == {"0", "1", "0,1"}


def test_separable_product_state(tmp_path, capsys):
    st = sg.random_state("product", (2, 2, 2), seed=8)
    path = tmp_path / "prod.json"
    cli.write_state_file(str(path), st)
    report = run_json(capsys, "separable", "--in", str(path), "--tol", "1e-10")
    assert report["results"]["segre"]["is_member"] is True
    assert report["results"]["segre"]["residual"] <= 1e-12
    assert report["results"]["t_variety"]["is_member"] is True


def test_separable_bell_witness(tmp_path, capsys, bell):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    report = run_json(capsys, "separable", "--in", str(path))
    seg = report["results"]["segre"]
    assert seg["is_member"] is False
    assert seg["residual"] == pytest.approx(0.5, abs=1e-12)
    assert seg["worst"]["pair"] == [[0, 0], [1, 1]]
    assert "swap_set" in report["results"]["t_variety"]["worst"]


def test_generators_command(capsys):
    report = run_json(capsys, "generators", "--dims", "2,2")
    assert report["results"]["count"] == 4
    assert report["results"]["per_slot"] == {"0": 2, "1": 2}
    assert len(report["results"]["specs"]) == 4


def test_roof_command_on_werner(tmp_path, capsys):
    path = tmp_path / "werner08.json"
    cli.write_state_file(str(path), werner_state(0.8))
    report = run_json(capsys, "roof", "--in", str(path), "--restarts", "6",
                      "--ensemble", "4", "--seed", "7")
    assert abs(report["results"]["value"] - 0.7) <= 2e-2
    assert math.fsum(report["results"]["weights"]) == pytest.approx(1.0, abs=1e-9)
    assert len(report["results"]["restart_bests"]) == 6


def test_roof_command_accepts_pure_file(tmp_path, capsys, bell):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    report = run_json(capsys, "roof", "--in", str(path), "--restarts", "1")
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_roof_command_refuses_unnormalized_pure_file(tmp_path, capsys):
    path = tmp_path / "bell-unnormalized.json"
    cli.write_state_file(str(path), sg.BoxTensor((2, 2), [1.0, 0.0, 0.0, 1.0]))
    code, out, err = run_cli(capsys, "roof", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "unit-norm" in err
    assert err == run_cli(capsys, "measure", "--in", str(path))[2]


def test_embed_command(capsys):
    report = run_json(capsys, "embed", "--dims", "2,3,2", "--seed", "3")
    results = report["results"]
    assert results["segre_residual"] <= 1e-12
    assert set(results["split_deviation"]) == {"1", "2"}
    assert all(v <= 1e-12 for v in results["split_deviation"].values())


def test_embed_amps_match_random_product_state(capsys):
    report = run_json(capsys, "embed", "--dims", "2,3,2", "--seed", "3")
    want = sg.random_state("product", (2, 3, 2), seed=3).amps
    assert report["results"]["amps"] == cli._as_pairs(want)


def test_embed_single_split(capsys):
    report = run_json(capsys, "embed", "--dims", "2,2", "--seed", "0",
                      "--split", "1")
    assert set(report["results"]["split_deviation"]) == {"1"}


# ------------------------------------------------------------------- exit codes

def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "measure", "--in", "/no/such/file.json")
    assert code == 2
    assert "segrent:" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "measure", "--in", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_dims_length_mismatch_is_input_error(tmp_path, capsys, bell):
    doc = cli.state_file_dict(bell)
    doc["dims"] = [2, 3]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "measure", "--in", str(path))
    assert code == 2
    assert "6" in err      # names the required length for the declared dims


@pytest.mark.parametrize("command", ["measure", "separable"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
def test_non_finite_amplitude_is_input_error(tmp_path, capsys, bell, command, token):
    doc = json.dumps(cli.state_file_dict(bell)).replace("0.0", token, 1)
    path = tmp_path / "nonfinite.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("tol", ["nan", "-0.5", "inf", "-1e-10"])
def test_separable_rejects_bad_tolerance(tmp_path, capsys, bell, tol):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    code, out, err = run_cli(capsys, "separable", "--in", str(path), "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be a finite number >= 0" in err


def test_measure_rejects_negative_exponent_norm(tmp_path, capsys, bell):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    code, out, err = run_cli(capsys, "measure", "--in", str(path), "--norm", "-1e3")
    assert code == 2
    assert out == ""
    assert "normalization must be positive and finite" in err


def test_generators_refused_by_count_up_front(capsys):
    for qubits, count in ((12, "50307072"), (9, "587520")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "generators", "--dims", ",".join(["2"] * qubits))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert count in err


def test_separable_refused_by_scan_count_up_front(tmp_path, capsys):
    path = tmp_path / "q13.json"
    cli.write_state_file(str(path), sg.random_state("haar-pure", (2,) * 13, seed=0))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "separable", "--in", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "minors" in err


def test_roof_refused_by_sweep_size_up_front(tmp_path, capsys):
    path = tmp_path / "q5-mixed.json"
    cli.write_state_file(str(path), sg.random_state("mixed", (2,) * 5, seed=5))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "roof", "--in", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "K=36 and rank 32" in err


@pytest.mark.parametrize("rho,argv,fragment", [
    (werner_state(0.5), ("--restarts", "100000000"), "100000000 restarts of 2000"),
    (sg.random_state("mixed", (2,) * 4, seed=4), (), "K=20 and rank 16 with 8 restarts"),
])
def test_roof_refused_by_search_size_up_front(tmp_path, capsys, rho, argv, fragment):
    path = tmp_path / "mixed.json"
    cli.write_state_file(str(path), rho)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "roof", "--in", str(path), *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert fragment in err


def test_roof_seed_reduced_mod_2_64(tmp_path, capsys):
    path = tmp_path / "werner.json"
    cli.write_state_file(str(path), werner_state(0.5))
    argv = ("roof", "--in", str(path), "--restarts", "2", "--ensemble", "4", "--seed")
    negative = run_json(capsys, *argv, "-1")
    assert negative["results"] == run_json(capsys, *argv, str(2 ** 64 - 1))["results"]


def test_embed_refused_by_scan_count_up_front(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "embed", "--dims", ",".join(["2"] * 22))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "minors" in err


@pytest.mark.parametrize("command,where", [("measure", "amps[1]"), ("roof", "rho[0][1]")])
def test_integer_too_large_for_a_float_is_input_error(tmp_path, capsys, bell, command,
                                                      where):
    doc = cli.state_file_dict(bell if command == "measure" else bell.density())
    entries = doc["amps"] if command == "measure" else doc["rho"][0]
    entries[1] = [10 ** 400, 0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert code == 2
    assert out == ""
    assert f"{where}: number too large for a float" in err


def test_integer_with_too_many_digits_is_input_error(tmp_path, capsys, bell):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(cli.state_file_dict(bell)).replace("0.0", "1" * 5000, 1))
    code, out, err = run_cli(capsys, "measure", "--in", str(path))
    assert code == 2
    assert out == ""


def test_mixed_file_rejected_by_measure(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    cli.write_state_file(str(path), werner_state(0.5))
    code, _, err = run_cli(capsys, "measure", "--in", str(path))
    assert code == 2
    assert "pure" in err


def test_unknown_command_is_input_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_internal_failure_maps_to_one(tmp_path, capsys, monkeypatch, bell):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    def boom(_path):
        raise RuntimeError("induced")
    monkeypatch.setattr(cli, "read_state_file", boom)
    code, _, err = run_cli(capsys, "measure", "--in", str(path))
    assert code == 1
    assert "internal error" in err


# ---------------------------------------------------------------- determinism

def test_reports_are_reproducible(tmp_path, capsys):
    path = tmp_path / "werner.json"
    cli.write_state_file(str(path), werner_state(0.8))
    argv = ("roof", "--in", str(path), "--restarts", "3", "--ensemble", "4",
            "--seed", "11")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
