"""Seeded inputs and fixed command lists for the three benchmark workloads.

Inputs are drawn with numpy from the workload seed and written in the
documented state-file format (0-based, row-major, [re, im] pairs). Nothing
here imports segrent, so the inputs do not depend on the code under test.

Each workload is a fixed list of CLI commands over those inputs:

- pure-scan: measure F, measure E --breakdown and separable on 9-qubit and
  3^6 states (Haar-random, exact product, near-product). The generator pair
  scan dominates; product and near-product states are 3 of the 5 inputs, so
  a bound-based pruning has inputs on both sides.
- roof-search: roof on Werner states (closed form known), a 3-qubit rank-3
  and a 2x3 rank-2 state and one pure projector. The convex-roof search
  dominates, with ensemble sizes K=4 and K>=6.
- many-small: ~45 short commands (gen-state, measure, separable, embed,
  generators and invalid inputs that must exit 2). Interpreter start-up,
  parsing and report serialization dominate.

A workload may also name known-defect probes: commands whose correct outcome
is known not to hold yet (see ``KNOWN_DEFECTS``). They are run and checked
once per run, outside the timed passes, and reported apart from the workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("pure-scan", "roof-search", "many-small")

# Werner family p |psi-><psi-| + (1 - p) I/4; closed form max(0, (3p - 1)/2)
WERNER_PS = (0.3, 0.5, 0.8)
NEAR_PRODUCT_EPS = 1e-3

# probe name -> the defect it shows; kept out of the timed, gated command list
_NAN_ACCEPTED = "a NaN amplitude is accepted: exit 0 with value NaN (ROADMAP item 2)"
KNOWN_DEFECTS = {"invalid/nan-measure": _NAN_ACCEPTED,
                 "invalid/nan-separable": _NAN_ACCEPTED}


@dataclass
class Input:
    """One generated input file: its array, relative path and sha256."""

    name: str
    dims: tuple[int, ...]
    path: str
    sha256: str
    amps: np.ndarray | None = None     # pure states
    rho: np.ndarray | None = None      # density matrices
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its checker needs to know."""

    name: str                      # unique within the workload
    argv: tuple[str, ...]          # arguments after `python -m segrent`
    check: str                     # checker key, see checker.Checker.check
    ref: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    inputs: dict[str, Input]
    commands: list[Command]
    warmup: Command
    probes: list[Command]


# ------------------------------------------------------------------ states

def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def product(rng: np.random.Generator, dims) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for n in dims:
        out = np.kron(out, haar(rng, n))
    return out


def near_product(rng: np.random.Generator, dims) -> np.ndarray:
    z = product(rng, dims) + NEAR_PRODUCT_EPS * haar(rng, math.prod(dims))
    return z / np.linalg.norm(z)


def mixed(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(rank))
    rho = sum(w * np.outer(psi, psi.conj())
              for w, psi in zip(weights, (haar(rng, d) for _ in weights)))
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def werner(p: float) -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) / 4.0 * np.eye(4)


def named(name: str, dims) -> np.ndarray:
    """bell / ghz / w / basis-product, built independently of segrent."""
    total = math.prod(dims)
    amps = np.zeros(total, dtype=complex)
    if name == "basis-product":
        amps[0] = 1.0
    elif name == "bell":
        n = dims[0]
        amps[[i * n + i for i in range(n)]] = 1.0 / math.sqrt(n)
    elif name == "ghz":
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    elif name == "w":
        m = len(dims)
        amps[[1 << (m - 1 - j) for j in range(m)]] = 1.0 / math.sqrt(m)
    else:
        raise ValueError(f"unknown named state {name!r}")
    return amps


# ------------------------------------------------------------------- files

def _pairs(vec) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec).reshape(-1)]


def pure_doc(dims, amps) -> dict:
    return {"dims": list(dims), "layout": "row-major", "index_base": 0,
            "amps": _pairs(amps)}


def mixed_doc(dims, rho) -> dict:
    return {"dims": list(dims), "layout": "row-major", "index_base": 0,
            "rho": [_pairs(row) for row in rho]}


class _Writer:
    """Writes input files under one directory and indexes them by name."""

    def __init__(self, root: str, rel_dir: str):
        self.root, self.rel_dir = root, rel_dir
        os.makedirs(os.path.join(root, rel_dir), exist_ok=True)
        self.inputs: dict[str, Input] = {}

    def _write(self, name: str, data: bytes, **kw) -> Input:
        rel = f"{self.rel_dir}/{name}.json"
        with open(os.path.join(self.root, rel), "wb") as fh:
            fh.write(data)
        item = Input(name=name, path=rel, sha256=hashlib.sha256(data).hexdigest(), **kw)
        self.inputs[name] = item
        return item

    def pure(self, name: str, dims, amps, **meta) -> Input:
        data = json.dumps(pure_doc(dims, amps)).encode()
        return self._write(name, data, dims=tuple(dims), amps=amps, meta=meta)

    def mixed(self, name: str, dims, rho, **meta) -> Input:
        data = json.dumps(mixed_doc(dims, rho)).encode()
        return self._write(name, data, dims=tuple(dims), rho=rho, meta=meta)

    def raw(self, name: str, text: str, **meta) -> Input:
        return self._write(name, text.encode(), dims=(), meta=meta)


# --------------------------------------------------------------- workloads

def _pure_scan(w: _Writer, rng) -> tuple[list[Command], Command, list[Command]]:
    q9, t6 = (2,) * 9, (3,) * 6
    states = [
        w.pure("q9-haar", q9, haar(rng, 512)),
        w.pure("q9-product", q9, product(rng, q9), product=True),
        w.pure("q9-near", q9, near_product(rng, q9)),
        w.pure("t6-haar", t6, haar(rng, 729)),
        w.pure("t6-near", t6, near_product(rng, t6)),
    ]
    cmds = []
    for s in states:
        ref = {"input": s.name}
        cmds += [
            Command(f"{s.name}/measure-F", ("measure", "--in", s.path, "--which", "F"),
                    "measure", ref),
            Command(f"{s.name}/measure-E", ("measure", "--in", s.path, "--which", "E",
                                            "--breakdown"), "measure", ref),
            Command(f"{s.name}/separable", ("separable", "--in", s.path),
                    "separable", ref),
        ]
    return cmds, cmds[1], []


def _roof_search(w: _Writer, rng) -> tuple[list[Command], Command, list[Command]]:
    cmds = []
    for p in WERNER_PS:
        s = w.mixed(f"werner-{p}", (2, 2), werner(p), werner_p=p)
        cmds.append(Command(f"{s.name}/K4", ("roof", "--in", s.path, "--ensemble", "4",
                                              "--restarts", "8", "--seed", "7"),
                            "roof", {"input": s.name}))
    s = w.inputs["werner-0.5"]
    cmds.append(Command(f"{s.name}/K8", ("roof", "--in", s.path, "--restarts", "1"),
                        "roof", {"input": s.name}))
    # Sweep caps keep each pass short enough to repeat within one run and make
    # the work the same for every seed: the single K=6 restart never stops
    # before its cap, and uncapped the 2x3 state's 8 restarts take 3k-10k
    # sweeps depending on the seed.
    s = w.mixed("q3-rank3", (2, 2, 2), mixed(rng, 8, 3))
    cmds.append(Command(f"{s.name}/K6", ("roof", "--in", s.path, "--restarts", "1",
                                         "--iters", "1000"), "roof", {"input": s.name}))
    s = w.mixed("d23-rank2", (2, 3), mixed(rng, 6, 2))
    cmds.append(Command(s.name, ("roof", "--in", s.path, "--iters", "400"), "roof",
                        {"input": s.name}))
    psi = haar(rng, 8)
    s = w.mixed("q3-projector", (2, 2, 2), np.outer(psi, psi.conj()), pure_amps=psi)
    cmds.append(Command(s.name, ("roof", "--in", s.path), "roof", {"input": s.name}))
    return cmds, cmds[-1], []


_GEN_STATES = (("bell", (2, 2)), ("bell", (3, 3)), ("ghz", (2, 2, 2)),
               ("ghz", (2, 2, 2, 2)), ("w", (2, 2, 2)), ("w", (2, 2, 2, 2, 2)),
               ("basis-product", (2, 3, 2)), ("basis-product", (2, 2)))
_NAMED_FILES = (("bell", (2, 2)), ("bell", (3, 3)), ("ghz", (2, 2, 2)),
                ("w", (2, 2, 2)), ("ghz", (2, 2, 2, 2)), ("w", (2, 2, 2, 2, 2)))
_HAAR_DIMS = ((2, 3), (2, 2, 2), (3, 3, 2), (2, 2, 2, 2, 2))
_GENERATOR_DIMS = ((2, 2, 2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 5))
_EMBED = (((2, 3, 2), None), ((2, 2, 2, 2), 2), ((3, 3), None), ((2, 2, 3), 1))


def _dims_text(dims) -> str:
    return ",".join(str(n) for n in dims)


def _many_small(w: _Writer, rng) -> tuple[list[Command], Command, list[Command]]:
    cmds = []
    for name, dims in _GEN_STATES:
        cmds.append(Command(f"gen-state/{name}-{_dims_text(dims)}",
                            ("gen-state", "--name", name, "--dims", _dims_text(dims)),
                            "gen-state", {"name": name, "dims": list(dims)}))
    pure_files = [w.pure(f"{name}-{'x'.join(map(str, dims))}", dims, named(name, dims))
                  for name, dims in _NAMED_FILES]
    pure_files += [w.pure(f"haar-{'x'.join(map(str, dims))}", dims,
                          haar(rng, math.prod(dims))) for dims in _HAAR_DIMS]
    for i, s in enumerate(pure_files):
        ref = {"input": s.name}
        cmds.append(Command(f"{s.name}/measure-F", ("measure", "--in", s.path),
                            "measure", ref))
        if i % 3 == 0:
            cmds.append(Command(f"{s.name}/measure-E",
                                ("measure", "--in", s.path, "--which", "E",
                                 "--breakdown"), "measure", ref))
        cmds.append(Command(f"{s.name}/separable", ("separable", "--in", s.path),
                            "separable", ref))
    embed_seed = int(rng.integers(0, 1 << 31))
    for dims, split in _EMBED:
        argv = ("embed", "--dims", _dims_text(dims), "--seed", str(embed_seed))
        if split is not None:
            argv += ("--split", str(split))
        cmds.append(Command(f"embed/{_dims_text(dims)}", argv, "embed",
                            {"dims": list(dims), "split": split}))
    for dims in _GENERATOR_DIMS:
        cmds.append(Command(f"generators/{_dims_text(dims)}",
                            ("generators", "--dims", _dims_text(dims)), "generators",
                            {"dims": list(dims)}))
    # invalid inputs: the correct outcome is exit 2 with no report
    amps = haar(rng, 4)
    bad = [
        ("malformed", "measure",
         w.raw("bad-malformed", '{"dims": [2, 2], "layout": "row-major", "amps": [[')),
        ("wrong-count", "measure",
         w.raw("bad-count", json.dumps(pure_doc((2, 2), amps[:3])))),
        ("unnormalized", "measure",
         w.raw("bad-unnormalized", json.dumps(pure_doc((2, 2), 1.5 * amps)))),
        ("mixed-to-separable", "separable",
         w.raw("bad-mixed", json.dumps(mixed_doc((2, 2), mixed(rng, 4, 2))))),
    ]
    nan_doc = pure_doc((2, 2), amps)
    nan_doc["amps"][0][0] = math.nan            # json writes the bare token NaN
    nan_file = w.raw("bad-nan", json.dumps(nan_doc))
    bad += [("nan-measure", "measure", nan_file), ("nan-separable", "separable", nan_file)]
    probes = []
    for label, kind, item in bad:
        cmd = Command(f"invalid/{label}", (kind, "--in", item.path), "exit2")
        (probes if cmd.name in KNOWN_DEFECTS else cmds).append(cmd)
    return cmds, cmds[0], probes


_MAKERS = {"pure-scan": _pure_scan, "roof-search": _roof_search,
             "many-small": _many_small}


def build(workload: str, seed: int, root: str, rel_dir: str) -> Workload:
    """Write the workload's inputs for ``seed`` under root/rel_dir."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    rng = np.random.default_rng([seed % (1 << 64), WORKLOADS.index(workload)])
    writer = _Writer(root, rel_dir)
    commands, warmup, probes = _MAKERS[workload](writer, rng)
    return Workload(workload, writer.inputs, commands, warmup, probes)
