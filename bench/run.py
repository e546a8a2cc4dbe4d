"""End-to-end and per-layer benchmark of the segrent command line.

    python3 bench/run.py --workload pure-scan --seed 1 --seconds 30 --trace 0

Drives the real CLI (``python -m segrent``) from the source tree of the
checkout it lives in, as a closed loop with one client: each command starts
only after the previous one has exited. A workload is a fixed command list
over inputs written from ``--seed`` (see workloads.py). Every output is
checked (see checker.py).

With ``--trace 0`` the list is run untraced, pass after pass, for about
``--seconds`` seconds and the end-to-end metrics are reported. With
``--trace 1`` untraced and traced passes alternate (traced children run
tracer.py instead of ``python -m segrent``) and the per-layer metrics are
reported, including the tracing overhead.

Known-defect probes of the workload (workloads.KNOWN_DEFECTS) run once after
set-up, outside the timed passes. Their outcome is printed and recorded; they
are not part of attempted, failed or correct.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the run record: machine, thread
settings, input digests and every command's raw timing and exit code. The
same record is written under .bench_run/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checker as ck
import tracer
import workloads as wl

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = ".bench_run"
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 60.0
HARD_DEADLINE_S = 170.0        # the whole run must end well within 180 s
# One BLAS/OMP thread per command: on the 2-core machine the benchmark was tuned
# on, a second OpenBLAS thread only spins, and it made timings slower and less
# steady under load from other processes.
CHILD_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> unit of the metrics printed on the last line; mirrored in BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.parse_s": "s", "cli.serialize_s": "s",
    "cli.report_bytes": "bytes", "cli.self_s": "s",
    "tensor_core.build_s": "s",
    "segre_ideal.scan_s": "s", "segre_ideal.scan_calls": "count",
    "segre_ideal.minors": "count", "segre_ideal.minors_per_s": "1/s",
    "segre_ideal.residual_self_s": "s", "segre_ideal.enumerate_s": "s",
    "segre_ideal.specs": "count",
    "measures.self_s": "s", "measures.calls": "count",
    "convex_roof.search_s": "s", "convex_roof.polish_s": "s",
    "convex_roof.iterations": "count", "convex_roof.candidates": "count",
    "convex_roof.candidates_per_s": "1/s", "convex_roof.restart_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}
# Reported in the table and the record only. The kind times and roof figures
# are absent on some workloads; cmd_p50_s falls between clusters of command
# latencies on the shorter lists, so it is too unsteady to gate on.
KIND_TIMES = ("measure", "separable", "generators", "roof")
EXTRA_UNITS = {"cmd_p50_s": "s", "fail_frac": "ratio", "roof_excess": "abs",
               "roof_bound_sum": "abs", **{f"{k}_s": "s" for k in KIND_TIMES}}

# span name -> per-layer self-time metric (measures under roof_F are polish)
SELF_METRIC = {
    tracer.ROOT: "cli.self_s",
    "cli.read_state_file": "cli.parse_s",
    tracer.DUMP: "cli.serialize_s",
    "tensor_core.named_state": "tensor_core.build_s",
    "tensor_core.segre_embed": "tensor_core.build_s",
    "segre_ideal.slot_generator_sums": "segre_ideal.scan_s",
    "segre_ideal.class_generator_sums": "segre_ideal.scan_s",
    "segre_ideal.segre_residual": "segre_ideal.residual_self_s",
    "segre_ideal.t_variety_residual": "segre_ideal.residual_self_s",
    "segre_ideal.enumerate_segre_generators": "segre_ideal.enumerate_s",
    "measures.measure_E": "measures.self_s",
    "measures.measure_F": "measures.self_s",
    "convex_roof.roof_F": "convex_roof.search_s",
    "convex_roof.ensemble_from_isometry": "convex_roof.polish_s",
    "convex_roof.eigen_ensemble": "convex_roof.polish_s",
}
ROOF_SPAN = "convex_roof.roof_F"


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, failed set-up)."""


# --------------------------------------------------------------- children

@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float                   # user + system time of the child
    code: int
    rss_kb: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    launcher_hwm_kb: int | None = None     # floor under rss_kb (see launcher.py)


class Launcher:
    """Client of launcher.py, which spawns and measures every command."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
                                     cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out_base: str, timeout: float) -> ChildRun:
        request = {"argv": argv, "stdout": out_base + ".stdout",
                   "stderr": out_base + ".stderr", "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the command launcher exited")
        reply = json.loads(line)
        with open(request["stdout"], "rb") as fh:
            stdout = fh.read()
        with open(request["stderr"], "rb") as fh:
            stderr = fh.read()
        return ChildRun(reply["wall_s"], reply["cpu_s"], reply["code"], reply["rss_kb"],
                        reply["timed_out"], stdout, stderr, reply["launcher_hwm_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class CommandResult:
    cmd: wl.Command
    run: ChildRun
    outcome: ck.Outcome
    spans: list | None = None


@dataclass
class Pass:
    index: int
    traced: bool
    wall_s: float
    results: list[CommandResult] = field(default_factory=list)
    complete: bool = True


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload_name, self.seed, self.seconds, self.trace = \
            workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.threads = min(len(os.sched_getaffinity(0)), CHILD_THREADS)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in THREAD_VARS:
            self.env[var] = str(self.threads)
        self.work = f"{WORK}/{workload}"
        self.out_dir = os.path.join(ROOT, self.work, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.workload: wl.Workload | None = None
        self.checker: ck.Checker | None = None
        self.launcher = Launcher(self.env)

    def close(self) -> None:
        self.launcher.close()

    def remaining(self) -> float:
        return HARD_DEADLINE_S - (time.perf_counter() - self.started)

    def command(self, cmd: wl.Command, traced: bool, tag: str) -> CommandResult:
        base = os.path.join(self.out_dir, f"{tag}-{cmd.name.replace('/', '_')}")
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                    base + ".spans", cmd.name, "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "segrent", *cmd.argv]
        run = self.launcher.run(argv, base, min(COMMAND_TIMEOUT_S, self.remaining()))
        spans = None
        if traced and os.path.exists(base + ".spans"):
            with open(base + ".spans", encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            os.remove(base + ".spans")
        return CommandResult(cmd, run, ck.Outcome(True), spans)

    # ------------------------------------------------------------- set-up

    def setup(self) -> list[float]:
        """Write the seeded inputs and run one warm-up command, repeatedly."""
        times, digests = [], None
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = wl.build(self.workload_name, self.seed, ROOT, f"{self.work}/inputs")
            res = self.command(workload.warmup, False, f"setup{i}")
            times.append(time.perf_counter() - t0)
            found = {k: v.sha256 for k, v in workload.inputs.items()}
            if digests is not None and found != digests:
                raise BenchError("inputs differ between set-up repetitions")
            digests = found
            self.workload = workload
            if self.checker is None:
                self.checker = ck.Checker(workload.inputs)
            outcome = self.checker.check(workload.warmup, res.run.code, res.run.stdout,
                                         res.run.timed_out)
            if not outcome.ok:
                raise BenchError(f"warm-up `segrent {' '.join(workload.warmup.argv)}` "
                                 f"failed: {outcome.reason}; stderr: "
                                 f"{res.run.stderr.decode(errors='replace').strip()}")
        self.checker.prepare(self.workload.commands)
        return times

    def probe(self) -> list[CommandResult]:
        """Run and check each known-defect probe once, untimed."""
        out = []
        for cmd in self.workload.probes:
            res = self.command(cmd, False, "probe")
            res.outcome = self.checker.check(cmd, res.run.code, res.run.stdout,
                                             res.run.timed_out)
            out.append(res)
        return out

    # ------------------------------------------------------------- passes

    def run_pass(self, index: int, traced: bool) -> Pass:
        p = Pass(index, traced, 0.0)
        t0 = time.perf_counter()
        for cmd in self.workload.commands:
            if self.remaining() <= 0:
                p.complete = False
                break
            p.results.append(self.command(cmd, traced, f"p{index}"))
        p.wall_s = time.perf_counter() - t0
        for res in p.results:
            res.outcome = self.checker.check(res.cmd, res.run.code, res.run.stdout,
                                             res.run.timed_out)
        return p

    def passes(self) -> list[Pass]:
        """Passes until the next one would overrun --seconds (at least one).

        Traced runs alternate untraced and traced passes, swapping which goes
        first, so the overhead estimate is not biased by order.
        """
        out, t0, group_no = [], time.perf_counter(), 0
        while True:
            g0 = time.perf_counter()
            order = ([False, True] if group_no % 2 == 0 else [True, False]) \
                if self.trace else [False]
            for traced in order:
                out.append(self.run_pass(len(out), traced))
            group_no += 1
            took = time.perf_counter() - g0
            if (time.perf_counter() - t0 + took > self.seconds
                    or not out[-1].complete or self.remaining() < 1.5 * took):
                return out


# ---------------------------------------------------------------- metrics

def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def pass_extras(p: Pass) -> dict:
    """Kind times and roof quality of one pass (see EXTRA_UNITS)."""
    out = {}
    for kind in KIND_TIMES:
        walls = [r.run.wall_s for r in p.results if r.cmd.kind == kind]
        if walls:
            out[f"{kind}_s"] = math.fsum(walls)
    roofs = [r.outcome.info for r in p.results
             if r.cmd.kind == "roof" and r.outcome.ok]
    if roofs:
        out["roof_bound_sum"] = math.fsum(i["value"] for i in roofs)
        excess = [i["excess"] for i in roofs if "excess" in i]
        if excess:
            out["roof_excess"] = max(excess)
    return out


def layer_metrics(p: Pass) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and per-span-name self times."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    by_name: dict[str, float] = {}
    hits = restarts = 0
    for res in p.results:
        if not res.spans:
            continue
        spans = res.spans
        by_id = {s[0]: s for s in spans}
        own = tracer.self_times(spans)
        root = next(s for s in spans if s[1] == tracer.ROOT)
        startup = res.run.wall_s - (root[4] - root[3]) / 1e9
        if abs(startup + math.fsum(own.values()) - res.run.wall_s) > 1e-6:
            raise BenchError(f"self times of {res.cmd.name} do not add up to its wall time")
        m["cli.startup_s"] += startup
        m["cli.report_bytes"] += len(res.run.stdout)
        for s in spans:
            name = s[1]
            by_name[name] = by_name.get(name, 0.0) + own[s[0]]
            metric = SELF_METRIC.get(name)
            under_roof = tracer.has_ancestor(by_id, s, ROOF_SPAN)
            if name.startswith("measures.measure_"):
                if under_roof:
                    metric = "convex_roof.polish_s"
                else:
                    m["measures.calls"] += 1
            if metric:
                m[metric] += own[s[0]]
            annot = s[5] or {}
            if name in tracer.SCANS:
                m["segre_ideal.scan_calls"] += 1
                count = (ck.slot_generator_count if "slot" in name else ck.class_pair_count)
                m["segre_ideal.minors"] += count(annot["dims"])
            m["segre_ideal.specs"] += annot.get("specs", 0)
        info = res.outcome.info
        if res.cmd.kind == "roof" and res.outcome.ok:
            m["convex_roof.iterations"] += info["sweeps"]
            if info["restarts"]:
                m["convex_roof.candidates"] += (info["sweeps"] * 2 * info["ensemble"] ** 2
                                                + info["restarts"] + 1)
            hits += info["restart_hits"]
            restarts += info["restarts"]
    m["segre_ideal.minors_per_s"] = _ratio(m["segre_ideal.minors"], m["segre_ideal.scan_s"])
    m["convex_roof.candidates_per_s"] = _ratio(m["convex_roof.candidates"],
                                               m["convex_roof.search_s"])
    m["convex_roof.restart_hit_ratio"] = _ratio(hits, restarts)
    return m, by_name


def summarize(bench: Bench, setup_times: list[float], passes: list[Pass]) -> dict:
    complete = [p for p in passes if p.complete]
    plain = [p for p in complete if not p.traced]
    if not plain:
        raise BenchError("no complete pass within the time limit")
    results = [r for p in passes for r in p.results]
    attempted = len(results)
    failed = sum(not r.outcome.ok for r in results)
    metrics = {
        "setup_s": _median(setup_times),
        "wall_s": _median(p.wall_s for p in plain),
        "cmd_p50_s": _median(r.run.wall_s for p in plain for r in p.results),
        "peak_rss_mb": max(r.run.rss_kb for p in plain for r in p.results) / 1024.0,
    }
    extras = [pass_extras(p) for p in plain]
    for key in sorted({k for e in extras for k in e}):
        metrics[key] = _median(e[key] for e in extras if key in e)
    metrics["fail_frac"] = failed / attempted
    by_name = {}
    if bench.trace:
        traced = [p for p in complete if p.traced]
        layers = [layer_metrics(p) for p in traced]
        for key in PER_LAYER:
            if key != "trace.overhead_s":
                metrics[key] = _median(lm[key] for lm, _ in layers)
        by_name = {k: _median(bn.get(k, 0.0) for _, bn in layers)
                   for k in sorted({k for _, bn in layers for k in bn})}
        metrics["trace.overhead_s"] = (_median(p.wall_s for p in traced)
                                       - metrics["wall_s"])
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "self_s_by_span": by_name}


# ----------------------------------------------------------------- record

def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.decode().strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "segrent")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_record(bench: Bench, setup_times, probes, passes, summary) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "workload": bench.workload_name, "seed": bench.seed, "seconds": bench.seconds,
        "trace": int(bench.trace),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                    "platform": platform.platform(), "python": sys.version.split()[0],
                    "numpy": np.__version__, "blas": blas},
        "child_env": {var: bench.env[var] for var in THREAD_VARS},
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "inputs": {k: {"path": v.path, "sha256": v.sha256}
                   for k, v in bench.workload.inputs.items()},
        "setup_s": setup_times,
        "known_defect_probes": [{"name": r.cmd.name, "argv": list(r.cmd.argv),
                                 "defect": wl.KNOWN_DEFECTS[r.cmd.name],
                                 "exit": r.run.code, "ok": r.outcome.ok,
                                 "reason": r.outcome.reason} for r in probes],
        "passes": [{"index": p.index, "traced": p.traced, "wall_s": p.wall_s,
                    "complete": p.complete, "extras": pass_extras(p),
                    "commands": [{"name": r.cmd.name, "argv": list(r.cmd.argv),
                                  "wall_s": r.run.wall_s, "cpu_s": r.run.cpu_s,
                                  "exit": r.run.code,
                                  "rss_kb": r.run.rss_kb,
                                  "launcher_hwm_kb": r.run.launcher_hwm_kb,
                                  "ok": r.outcome.ok,
                                  "reason": r.outcome.reason} for r in p.results]}
                   for p in passes],
        "summary": summary,
    }


# ------------------------------------------------------------------- main

def _unit(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER.get(name) or EXTRA_UNITS[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "segrent", "cli.py")):
        print(f"bench: no segrent source tree under {ROOT}/src", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        setup_times = bench.setup()
        probes = bench.probe()
        passes = bench.passes()
        summary = summarize(bench, setup_times, passes)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    metrics = summary["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{sum(not p.traced for p in passes)} untraced, "
          f"{sum(p.traced for p in passes)} traced  threads {bench.threads}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {_unit(name)}")
    for res in (r for p in passes for r in p.results if not r.outcome.ok):
        print(f"  FAILED {res.cmd.name}: {res.outcome.reason}")
    for res in probes:
        state = "now passes" if res.outcome.ok else f"still fails: {res.outcome.reason}"
        print(f"  KNOWN DEFECT {res.cmd.name} {state} "
              f"[{wl.KNOWN_DEFECTS[res.cmd.name]}]")
    record = run_record(bench, setup_times, probes, passes, summary)
    os.makedirs(os.path.join(ROOT, WORK, "records"), exist_ok=True)
    path = os.path.join(WORK, "records",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record {path}")
    print(json.dumps(record, separators=(",", ":")))
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k], "unit": names[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
