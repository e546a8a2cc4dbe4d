import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import segrent as sg
from segrent import cli, convex_roof, segre_ideal

import oracles
from conftest import dropped_tail_state, werner_state


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


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (5,), (2,) * 6,
                                  (3,) * 4, (2, 3, 4, 5)])
def test_generators_report_bytes(capsys, dims):
    # the whole report, byte for byte, as the json module writes it from the oracle's specs
    pairs = oracles.brute_segre_pairs(dims)
    dims_arg = ",".join(map(str, dims))
    per_slot = {}
    for j, _, _ in pairs:
        per_slot[str(j)] = per_slot.get(str(j), 0) + 1
    expected = {
        "tool": {"name": "segrent", "version": sg.__version__},
        "command": "generators",
        "argv": ["generators", "--dims", dims_arg],
        "input": None,
        "config": {"dims": list(dims)},
        "results": {"dims": list(dims), "count": len(pairs), "per_slot": per_slot,
                    "specs": [{"slot": j, "pair": [list(k), list(l)]} for j, k, l in pairs]},
    }
    code, out, err = run_cli(capsys, "generators", "--dims", dims_arg)
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_generators_report_memory(monkeypatch):
    # 8 qubits: 130,048 specs and a 45.6 MB report, written as it is made
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

        def flush(self):
            pass

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main(["generators", "--dims", "2,2,2,2,2,2,2,2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 45_647_460
    assert peak < 16e6


def test_roof_command_on_werner(tmp_path, capsys):
    path = tmp_path / "werner08.json"
    cli.write_state_file(str(path), werner_state(0.8))
    report = run_json(capsys, "roof", "--in", str(path), "--restarts", "6",
                      "--ensemble", "4", "--seed", "7")
    res = report["results"]
    assert abs(res["value"] - 0.7) <= 2e-2
    assert math.fsum(res["weights"]) == pytest.approx(1.0, abs=1e-9)
    # the first restart meets the lower bound, so the gap rule skips the other five
    assert len(res["restart_bests"]) == len(res["restart_stops"]) == 1
    assert any("search stopped after 1 of 6 restarts" in n for n in res["notes"])
    assert res["lower"] <= res["value"]
    assert res["gap"] == res["value"] - res["lower"]


def test_roof_command_runs_every_restart_while_gap_is_open(tmp_path, capsys):
    path = tmp_path / "mixed23.json"
    cli.write_state_file(str(path), sg.random_state("mixed", (2, 3), seed=4, rank=2))
    report = run_json(capsys, "roof", "--in", str(path), "--restarts", "6", "--iters", "100")
    res = report["results"]
    assert len(res["restart_bests"]) == len(res["restart_stops"]) == 6
    assert res["gap"] > convex_roof.GAP_TOL
    assert res["lower"] <= res["value"]
    assert not any("search stopped" in n for n in res["notes"])


def test_roof_command_accepts_pure_file(tmp_path, capsys, bell):
    path = tmp_path / "bell.json"
    cli.write_state_file(str(path), bell)
    report = run_json(capsys, "roof", "--in", str(path), "--restarts", "1")
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_roof_command_accepts_many_dropped_eigenvalues(tmp_path, capsys):
    psi, rho = dropped_tail_state(7, 9e-13)
    path = tmp_path / "dropped-tail.json"
    cli.write_state_file(str(path), rho)
    report = run_json(capsys, "roof", "--in", str(path))
    assert report["results"]["value"] == pytest.approx(sg.measure_F(psi).value, abs=1e-10)


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


def test_embed_refuses_one_party(capsys):
    # one factor is the state itself and there is no split to check
    code, out, err = run_cli(capsys, "embed", "--dims", "3")
    assert (code, out) == (2, "")
    assert "embed needs at least two parties, got dims (3,)" in err


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


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"dims": [2, 2], "layout": "row-major", "index_base": 0, "amps": '
    + "[" * 50_000 + "]" * 50_000 + "}",
], ids=["brackets", "nested-amps"])
def test_deeply_nested_state_file_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "measure", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "not valid JSON" in err


@pytest.mark.parametrize("mutate,where", [
    (lambda d: d["amps"].__setitem__(0, [True, False]), "amps[0]"),
    (lambda d: d["rho"][0].__setitem__(0, [True, False]), "rho[0][0]"),
    (lambda d: d.update(index_base=False), "index_base"),
])
def test_boolean_is_not_a_number(tmp_path, capsys, mutate, where):
    # each file reads as the valid basis product state if true and false count as 1 and 0
    state = sg.named_state("basis-product", (2, 2))
    doc = cli.state_file_dict(state.density() if "rho" in where else state)
    mutate(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    command = "roof" if "rho" in where else "measure"
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert (code, out) == (2, "")
    assert where in err


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


def test_measure_norm_overflow_is_input_error(tmp_path, capsys, ghz3):
    path = tmp_path / "ghz.json"
    cli.write_state_file(str(path), ghz3)
    code, out, err = run_cli(capsys, "measure", "--in", str(path), "--norm", "1.7e308")
    assert (code, out) == (2, "")
    assert "overflows" in err


def test_generators_single_party_returns_at_once(capsys):
    start = time.perf_counter()
    report = run_json(capsys, "generators", "--dims", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (report["results"]["count"], report["results"]["specs"]) == (0, [])


@pytest.mark.parametrize("argv", [("embed", "--dims", "4000000"),
                                  ("embed", "--dims", "1048577"),
                                  ("gen-state", "--name", "basis-product",
                                   "--dims", ",".join(["2"] * 21))])
def test_states_from_dims_refused_above_amplitude_cap(capsys, argv):
    # embed refuses one party at any size before the cap is reached
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert ("embed needs at least two parties" if argv[0] == "embed"
            else f"> {cli.AMPLITUDE_CAP} amplitudes") in err


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


def test_separable_counts_both_scans_before_either_runs(tmp_path, capsys, monkeypatch,
                                                      ghz3):
    # on (2, 2, 2) the t-variety scan has 14 minors and the Segre scan 18
    monkeypatch.setattr(segre_ideal, "RESIDUAL_SCAN_CAP", 14)
    calls = []
    kernel = segre_ideal.minors
    monkeypatch.setattr(segre_ideal, "minors", lambda *a: calls.append(1) or kernel(*a))
    path = tmp_path / "ghz.json"
    cli.write_state_file(str(path), ghz3)
    code, out, err = run_cli(capsys, "separable", "--in", str(path))
    assert (code, out, calls) == (2, "", [])
    assert "18 > 14 minors" in err
    sg.t_variety_residual(ghz3)       # its own count is within the cap
    assert calls


def test_roof_refused_by_dimension_up_front(tmp_path, capsys, monkeypatch):
    path = tmp_path / "q12.json"
    cli.write_state_file(str(path), sg.random_state("haar-pure", (2,) * 12, seed=12))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "roof", "--in", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "4096 > 2048" in err
    monkeypatch.setattr(convex_roof, "ROOF_DIM_CAP", 3)
    monkeypatch.setattr(convex_roof, "_kept_eigs", None)     # not reached
    with pytest.raises(sg.DimensionError, match="4 > 3"):
        sg.roof_F(werner_state(0.5))


def test_measure_refused_by_work_up_front(tmp_path, capsys):
    path = tmp_path / "q15.json"
    cli.write_state_file(str(path), sg.random_state("haar-pure", (2,) * 15, seed=15))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "measure", "--in", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "41485139968 > 17179869184" in err


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
    # 212 counted units an iteration, but each counts at least _SWEEP_FLOOR = 256 for its
    # fixed cost, so these 7.8e6 iterations of about 0.6 ms each are refused
    (sg.random_state("mixed", (2, 2), seed=1, rank=2),
     ("--ensemble", "2", "--restarts", "100000", "--iters", "78"),
     "K=2 and rank 2 with 100000 restarts of 78 iterations would count 1996800000 >"),
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_ends_quietly(unbuffered):
    # a 1.7 MB report, far more than a pipe holds, so the writer meets the closed end
    env = dict(os.environ, PYTHONPATH=str(Path(sg.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "segrent", "generators", "--dims",
                             "2,2,2,2,2,2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert head == b'{\n  "argv"'
    assert err == b""


def test_closed_pipe_without_file_descriptor(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["generators", "--dims", "2,2"]) == cli.EXIT_PIPE
    assert capsys.readouterr().err == ""


def test_write_through_stdout_gets_the_report_in_large_writes(monkeypatch):
    # stdout as PYTHONUNBUFFERED makes it: a text layer that writes through to a raw stream
    class CountingRaw(io.RawIOBase):
        def __init__(self):
            self.writes, self.data = 0, bytearray()

        def writable(self):
            return True

        def write(self, b):
            self.writes += 1
            self.data += b
            return len(b)

    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert cli.main(["gen-state", "--name", "w", "--dims", "2,2,2,2,2,2,2,2,2,2"]) == 0
    assert len(raw.data) == 35_125
    # one write per JSON token would be thousands
    assert raw.writes <= len(raw.data) // 4096 + 2


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_failed_report_prints_nothing(tmp_path, ghz3, unbuffered):
    # json.dump meets a NaN part way through the report; what it wrote is not printed
    path = tmp_path / "ghz.json"
    cli.write_state_file(str(path), ghz3)
    child = ("import dataclasses, sys\n"
             "from segrent import cli\n"
             "real = cli.measure_F\n"
             "cli.measure_F = lambda state, cfg: dataclasses.replace(real(state, cfg),\n"
             "                                                        value=float('nan'))\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sg.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run([sys.executable, "-c", child, "measure", "--in", str(path)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_INTERNAL
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("segrent: internal error:"), lines


def test_failed_report_on_stdout_without_file_descriptor(tmp_path, monkeypatch, capsys, ghz3):
    class Sink:     # no fileno, no reconfigure
        def write(self, text):
            pass

        def flush(self):
            pass

    path = tmp_path / "ghz.json"
    cli.write_state_file(str(path), ghz3)
    real = cli.measure_F
    monkeypatch.setattr(cli, "measure_F", lambda state, cfg: dataclasses.replace(
        real(state, cfg), value=float("nan")))
    monkeypatch.setattr(sys, "stdout", Sink())
    assert cli.main(["measure", "--in", str(path)]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("segrent: internal error:")


# ---------------------------------------------------------------- determinism

def test_reports_are_reproducible(tmp_path, capsys):
    path = tmp_path / "werner.json"
    cli.write_state_file(str(path), werner_state(0.8))
    argv = ("roof", "--in", str(path), "--restarts", "3", "--ensemble", "4",
            "--seed", "11")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
