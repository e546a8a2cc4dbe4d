"""Tests of the benchmark itself: checker, span accounting, computed counts.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import checker as ck
import run
import tracer
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------- checker

def _state_input(name, dims, amps, **meta):
    return wl.Input(name=name, dims=tuple(dims), path=f"{name}.json", sha256="",
                    amps=np.asarray(amps, dtype=complex), meta=meta)


def _measure_report(which, value, norm):
    return json.dumps({"command": "measure", "results": {
        "which": which, "value": value, "normalization": norm,
        "sum_of_squares": value ** 2 / norm, "notes": []}}).encode()


@pytest.fixture
def bell_checker():
    amps = wl.named("bell", (2, 2))
    return ck.Checker({"bell": _state_input("bell", (2, 2), amps)})


MEASURE_F = wl.Command("bell/F", ("measure", "--in", "bell.json", "--which", "F"),
                       "measure", {"input": "bell"})


def test_checker_accepts_correct_report(bell_checker):
    out = bell_checker.check(MEASURE_F, 0, _measure_report("F", 1.0, 2.0), False)
    assert out.ok, out.reason


def test_checker_flags_nan_report(bell_checker):
    report = _measure_report("F", 1.0, 2.0).replace(b"1.0,", b"NaN,", 1)
    assert b"NaN" in report
    out = bell_checker.check(MEASURE_F, 0, report, False)
    assert not out.ok and "strict JSON" in out.reason


def test_checker_flags_invalid_json(bell_checker):
    out = bell_checker.check(MEASURE_F, 0, b'{"command": "measure", ', False)
    assert not out.ok and "not valid JSON" in out.reason


def test_checker_flags_wrong_value(bell_checker):
    out = bell_checker.check(MEASURE_F, 0, _measure_report("F", 1.0 + 1e-6, 2.0), False)
    assert not out.ok and "reference" in out.reason


def test_checker_flags_wrong_exit_code(bell_checker):
    out = bell_checker.check(MEASURE_F, 1, _measure_report("F", 1.0, 2.0), False)
    assert not out.ok and "exit code 1" in out.reason
    invalid = wl.Command("bad", ("measure", "--in", "nan.json"), "exit2")
    assert bell_checker.check(invalid, 2, b"", False).ok
    out = bell_checker.check(invalid, 0, _measure_report("F", math.nan, 2.0), False)
    assert not out.ok and "exit code 0" in out.reason


def test_checker_flags_timeout(bell_checker):
    out = bell_checker.check(MEASURE_F, 0, _measure_report("F", 1.0, 2.0), True)
    assert not out.ok and out.reason == "timed out"


def test_checker_product_state_gate():
    amps = wl.product(np.random.default_rng(3), (2, 3, 2))
    c = ck.Checker({"p": _state_input("p", (2, 3, 2), amps, product=True)})
    cmd = wl.Command("p/F", ("measure", "--in", "p.json"), "measure", {"input": "p"})
    assert c.check(cmd, 0, _measure_report("F", 1e-15, 2.0), False).ok
    assert not c.check(cmd, 0, _measure_report("F", 5e-11, 2.0), False).ok


# ------------------------------------------------------------- references

def _brute_pairs(dims, swap):
    """Every unordered pair {k, l} with its generator under exchange ``swap``."""
    idx = list(itertools.product(*[range(n) for n in dims]))
    for a, k in enumerate(idx):
        for l in idx[a + 1:]:
            ks, ls = list(k), list(l)
            for j in swap:
                ks[j], ls[j] = l[j], k[j]
            yield k, l, tuple(ks), tuple(ls)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2)])
def test_references_match_brute_generator_sums(dims):
    rng = np.random.default_rng(5)
    amps = wl.haar(rng, math.prod(dims))
    t = amps.reshape(dims)
    ref = ck.pure_reference(amps, dims)
    for j in range(len(dims)):
        vals = [abs(t[k] * t[l] - t[ks] * t[ls]) for k, l, ks, ls in _brute_pairs(dims, [j])]
        assert ref.slot_terms[j] == pytest.approx(sum(v * v for v in vals), rel=1e-12)
    for s in ck.canonical_classes(len(dims)):
        vals = [abs(t[k] * t[l] - t[ks] * t[ls]) for k, l, ks, ls in _brute_pairs(dims, s)]
        assert ref.class_terms[s] == pytest.approx(sum(v * v for v in vals), rel=1e-12)
        assert ck.max_minor(ck.flattening(amps, dims, s)) == pytest.approx(max(vals),
                                                                           rel=1e-14)


def test_bipartite_reference_is_concurrence():
    amps = wl.haar(np.random.default_rng(9), 6)
    rho_a = amps.reshape(2, 3) @ amps.reshape(2, 3).conj().T
    concurrence = math.sqrt(2 * (1 - np.trace(rho_a @ rho_a).real))
    ref = ck.pure_reference(amps, (2, 3))
    assert ref.e == pytest.approx(concurrence, rel=1e-12)
    assert ref.f == pytest.approx(concurrence, rel=1e-12)


# ------------------------------------------------------------------ counts

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2, 2)])
def test_slot_generator_count_matches_brute(dims):
    idx = list(itertools.product(*[range(n) for n in dims]))
    brute = sum(1 for j in range(len(dims))
                for a, k in enumerate(idx) for l in idx[a + 1:]
                if k[j] != l[j] and any(k[i] != l[i] for i in range(len(dims)) if i != j))
    assert ck.slot_generator_count(dims) == brute


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_canonical_classes_are_one_per_complement_pair(m):
    subsets = {frozenset(s) for r in range(1, m) for s in itertools.combinations(range(m), r)}
    pairs = {frozenset((s, frozenset(range(m)) - s)) for s in subsets}
    classes = ck.canonical_classes(m)
    assert len(classes) == len(pairs) == 2 ** (m - 1) - 1
    assert {frozenset((frozenset(c), frozenset(range(m)) - frozenset(c)))
            for c in classes} == pairs


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2)])
def test_class_pair_count_matches_brute(dims):
    brute = sum(1 for s in ck.canonical_classes(len(dims)) for _ in _brute_pairs(dims, s))
    assert ck.class_pair_count(dims) == brute


# ------------------------------------------------------------- span math

def test_self_times_on_synthetic_tree():
    spans = [
        [0, "root", None, 0, 100, None],
        [1, "a", 0, 10, 40, None],
        [2, "a.child", 1, 20, 30, None],
        [3, "b", 0, 50, 90, None],
        [4, "b.child", 3, 60, 70, None],
        [5, "b.child2", 3, 65, 80, None],       # overlaps its sibling: union counts once
    ]
    own = tracer.self_times(spans)
    assert [round(own[i] * 1e9) for i in range(6)] == [30, 20, 10, 20, 10, 15]
    by_id = {s[0]: s for s in spans}
    assert tracer.has_ancestor(by_id, spans[2], "root")
    assert not tracer.has_ancestor(by_id, spans[2], "b")


def test_layer_metrics_add_up_to_wall_time():
    spans = [
        [0, tracer.ROOT, None, 0, 800_000_000, None],
        [1, "cli.read_state_file", 0, 0, 100_000_000, None],
        [2, "convex_roof.roof_F", 0, 100_000_000, 700_000_000, None],
        [3, "measures.measure_F", 2, 600_000_000, 690_000_000, None],
        [4, "segre_ideal.class_generator_sums", 3, 610_000_000, 680_000_000,
         {"dims": [2, 2]}],
        [5, tracer.DUMP, 0, 700_000_000, 750_000_000, None],
    ]
    cmd = wl.Command("x", ("roof", "--in", "x.json"), "roof")
    child = run.ChildRun(1.0, 1.0, 0, 0, False, b"{}", b"")
    info = {"value": 0.5, "ensemble": 4, "sweeps": 10, "restarts": 2, "restart_hits": 1}
    p = run.Pass(0, True, 1.0, [run.CommandResult(cmd, child, ck.Outcome(True, info=info),
                                                  spans)])
    m, _ = run.layer_metrics(p)
    assert m["cli.startup_s"] == pytest.approx(0.2)
    assert m["convex_roof.polish_s"] == pytest.approx(0.02)        # measure_F under roof
    assert m["segre_ideal.scan_s"] == pytest.approx(0.07)
    assert m["measures.calls"] == 0
    assert m["segre_ideal.minors"] == ck.class_pair_count((2, 2))
    assert m["convex_roof.candidates"] == 10 * 2 * 16 + 2 + 1
    assert m["convex_roof.restart_hit_ratio"] == 0.5
    layer_sum = sum(m[k] for k in ("cli.startup_s", "cli.parse_s", "cli.serialize_s",
                                   "cli.self_s", "convex_roof.search_s",
                                   "convex_roof.polish_s", "segre_ideal.scan_s"))
    assert layer_sum == pytest.approx(1.0)


# ------------------------------------------------------- contract, child

def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    a = wl.build("many-small", 4, str(tmp_path), "a")
    b = wl.build("many-small", 4, str(tmp_path), "b")
    c = wl.build("many-small", 5, str(tmp_path), "c")
    digests = lambda w: {k: v.sha256 for k, v in w.inputs.items()}
    assert digests(a) == digests(b) != digests(c)


def test_known_defects_are_probes_not_workload_commands(tmp_path):
    w = wl.build("many-small", 4, str(tmp_path), "in")
    assert [c.name for c in w.probes] == list(wl.KNOWN_DEFECTS)
    assert all(c.check == "exit2" for c in w.probes)
    assert not {c.name for c in w.commands} & set(wl.KNOWN_DEFECTS)
    assert sum(c.check == "exit2" for c in w.commands) == 4
    for other in ("pure-scan", "roof-search"):
        assert wl.build(other, 4, str(tmp_path), other).probes == []


def test_traced_child_keeps_the_report_byte_identical(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = ["measure", "--in", str(tmp_path / "ghz.json"), "--which", "F"]
    (tmp_path / "ghz.json").write_text(json.dumps(wl.pure_doc((2, 2, 2),
                                                              wl.named("ghz", (2, 2, 2)))))
    plain = subprocess.run([sys.executable, "-m", "segrent", *argv], env=env,
                           capture_output=True, timeout=60)
    spans_out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "tracer.py"),
                             str(spans_out), "c0", "--", *argv], env=env,
                            capture_output=True, timeout=60)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    spans = json.loads(spans_out.read_text())["spans"]
    names = [s[1] for s in spans]
    assert names[0] == tracer.ROOT and spans[0][2] is None
    assert {"cli.read_state_file", "measures.measure_F",
            "segre_ideal.class_generator_sums", tracer.DUMP} <= set(names)
