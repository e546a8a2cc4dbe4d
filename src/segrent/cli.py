"""Command-line front end: JSON state files in, JSON reports out.

State files are 0-based and row-major (last party index fastest) and must
say so explicitly via the "layout" and "index_base" fields. Amplitudes
and matrix entries are [re, im] pairs to keep the files unambiguous.
Reports go to stdout with sorted keys, diagnostics to stderr. Exit codes:
0 success, 2 bad input, 1 internal failure, 141 (128 + SIGPIPE) when the
reader of stdout goes away early, as with ``| head``; nothing is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .convex_roof import RoofConfig, check_roof_dims, roof_F
from .errors import ConfigError, DimensionError, SegrentError, StateFileError
from .measures import MeasureConfig, measure_E, measure_F
from .segre_ideal import (
    MinorSpec,
    _slot_pairs,
    check_partition_commutativity,
    check_residual_scans,
    check_segre_scan,
    enumerate_segre_generators,     # not called here; bench/tracer.py wraps it by this name
    segre_residual,
    slot_generator_counts,
    t_variety_residual,
)
from .tensor_core import (
    NAMED_STATES,
    BoxTensor,
    DensityMatrix,
    Dims,
    named_state,
    product_factors,
    segre_embed,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_PIPE = 128 + 13        # as a shell reports a process ended by SIGPIPE
AMPLITUDE_CAP = 1 << 20     # largest state that gen-state builds from --dims
_SPECS = "\0specs"          # stands in a generators report for its spec list


# ---------------------------------------------------------------- state files

def _as_pairs(values: np.ndarray) -> list:
    """``values`` as nested lists of its shape whose entries are [re, im] pairs."""
    return np.stack((values.real, values.imag), -1).tolist()


def state_file_dict(obj) -> dict:
    """JSON document for a BoxTensor or DensityMatrix."""
    pure = isinstance(obj, BoxTensor)
    return {"dims": list(obj.dims.sizes), "layout": "row-major", "index_base": 0,
            "amps" if pure else "rho": _as_pairs(obj.amps if pure else obj.mat)}


def _entries(value, shape: tuple[int, ...], where: str):
    """``value`` as nested lists of ``shape`` whose entries are [re, im] number pairs."""
    if shape:
        if not isinstance(value, list) or len(value) != shape[0]:
            raise StateFileError(f"{where} must be a list of {shape[0]} entries")
        return [_entries(v, shape[1:], f"{where}[{i}]") for i, v in enumerate(value)]
    if (not isinstance(value, list) or len(value) != 2
            or not all(type(x) in (int, float) for x in value)):    # bool is not a number
        raise StateFileError(f"{where}: expected a [re, im] number pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise StateFileError(f"{where}: number too large for a float") from None


def parse_state_file(doc: dict, where: str = "state file"):
    """Validate a parsed JSON document and build the state it describes."""
    if not isinstance(doc, dict):
        raise StateFileError(f"{where}: top level must be a JSON object")
    for field in ("dims", "layout", "index_base"):
        if field not in doc:
            raise StateFileError(f"{where}: missing required field {field!r}")
    if doc["layout"] != "row-major":
        raise StateFileError(f"{where}: field 'layout' must be \"row-major\"")
    if type(doc["index_base"]) not in (int, float) or doc["index_base"] != 0:
        raise StateFileError(f"{where}: field 'index_base' must be 0")
    dims_raw = doc["dims"]
    if (not isinstance(dims_raw, list) or not dims_raw
            or not all(type(n) is int for n in dims_raw)):
        raise StateFileError(f"{where}: field 'dims' must be a list of integers")
    dims = Dims(tuple(dims_raw))
    has_amps, has_rho = "amps" in doc, "rho" in doc
    if has_amps == has_rho:
        raise StateFileError(f"{where}: exactly one of 'amps' or 'rho' is required")
    d = dims.total
    if has_amps:
        return BoxTensor(dims, _entries(doc["amps"], (d,), f"{where}: amps"))
    return DensityMatrix(dims, _entries(doc["rho"], (d, d), f"{where}: rho"))


def read_state_file(path: str):
    """Load a state file; returns (state, sha256 hex digest of the bytes)."""
    def reject_constant(token: str):
        raise StateFileError(f"{path}: non-finite number {token} is not allowed")

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=reject_constant)
    except StateFileError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge integer, deep nesting
        raise StateFileError(f"{path}: not valid JSON ({exc})") from exc
    return parse_state_file(doc, where=path), hashlib.sha256(raw).hexdigest()


def write_state_file(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_file_dict(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


# ------------------------------------------------------------------- reports

def _input_info(path: str, digest: str, state) -> dict:
    return {
        "path": path,
        "sha256": digest,
        "dims": list(state.dims.sizes),
        "kind": "pure" if isinstance(state, BoxTensor) else "mixed",
    }


def _envelope(command: str, argv, results: dict, input_info=None,
              config=None) -> dict:
    return {
        "tool": {"name": "segrent", "version": __version__},
        "command": command,
        "argv": list(argv),
        "input": input_info,
        "config": config or {},
        "results": results,
    }


def _class_key(key) -> str:
    if isinstance(key, int):
        return str(key)
    return ",".join(str(j) for j in key.swap_set)


def _witness_dict(worst):
    if worst is None:
        return None
    if isinstance(worst, MinorSpec):
        return {"slot": worst.slot, "pair": [list(t) for t in worst.pair]}
    perm_class, pair = worst
    return {"swap_set": list(perm_class.swap_set),
            "pair": [list(t) for t in pair]}


def _membership_dict(report) -> dict:
    return {
        "residual": report.residual,
        "is_member": report.is_member,
        "worst": _witness_dict(report.worst),
    }


def _require_pure(state, path: str) -> BoxTensor:
    if not isinstance(state, BoxTensor):
        raise StateFileError(f"{path}: this command needs a pure state ('amps')")
    return state


# ------------------------------------------------------------------ commands

def _cmd_measure(args, argv) -> dict:
    state, digest = read_state_file(args.infile)
    state = _require_pure(state, args.infile)
    cfg = MeasureConfig(normalization=args.norm, include_breakdown=args.breakdown)
    report = (measure_E if args.which == "E" else measure_F)(state, cfg)
    results = {
        "which": args.which,
        "value": report.value,
        "sum_of_squares": report.sum_of_squares,
        "normalization": report.normalization,
        "notes": list(report.notes),
    }
    if report.per_class is not None:
        results["per_class"] = {_class_key(k): v for k, v in report.per_class.items()}
    config = {"which": args.which, "normalization": report.normalization,
              "breakdown": args.breakdown}
    return _envelope("measure", argv, results, _input_info(args.infile, digest, state),
                     config)


def _cmd_separable(args, argv) -> dict:
    state, digest = read_state_file(args.infile)
    state = _require_pure(state, args.infile)
    if not 0.0 <= args.tol < np.inf:
        raise ConfigError(f"tol must be a finite number >= 0, got {args.tol!r}")
    check_residual_scans(state.dims)
    results = {
        "tolerance": args.tol,
        "segre": _membership_dict(segre_residual(state, args.tol)),
        "t_variety": _membership_dict(t_variety_residual(state, args.tol)),
    }
    return _envelope("separable", argv, results,
                     _input_info(args.infile, digest, state), {"tolerance": args.tol})


def _cmd_generators(args, argv) -> dict:
    dims = Dims(args.dims)
    per_slot = slot_generator_counts(dims)
    results = {
        "dims": list(dims.sizes),
        "count": sum(per_slot),
        "per_slot": {str(j): n for j, n in enumerate(per_slot) if n},   # none for one party
        "specs": _SPECS if dims.m > 1 else [],
    }
    report = _Report(_envelope("generators", argv, results, None, {"dims": list(dims.sizes)}))
    report.raw = {json.dumps(_SPECS): _spec_text(dims)}
    return report


class _Report(dict):
    """A report; its ``raw`` maps the JSON text of each placeholder in it to the chunks of
    text that the writer puts in its place."""


def _spec_text(dims: Dims):
    """Chunks of the spec list as ``json.dump(indent=2)`` writes it in a generators report,
    from one snippet per flat index, so no spec is built as an object."""
    snippet = [json.dumps(k, indent=2).replace("\n", "\n" + " " * 10)  # a pair member's depth
               for k in np.stack(np.unravel_index(np.arange(dims.total), dims.sizes), -1).tolist()]
    head = "[\n      "
    for j, a, b in _slot_pairs(dims):
        yield head + ",\n      ".join(
            f'{{\n        "pair": [\n          {snippet[x]},\n          {snippet[y]}\n'
            f'        ],\n        "slot": {j}\n      }}' for x, y in zip(a.tolist(), b.tolist()))
        head = ",\n      "
    yield "\n    ]"


def _cmd_roof(args, argv) -> dict:
    state, digest = read_state_file(args.infile)
    check_roof_dims(state.dims)     # before density() builds and diagonalizes a d x d matrix
    rho = state.density() if isinstance(state, BoxTensor) else state
    cfg = RoofConfig(ensemble_size=args.ensemble, restarts=args.restarts,
                     max_iters=args.iters, seed=args.seed)
    estimate = roof_F(rho, cfg)
    results = {
        "value": estimate.value,
        "lower": estimate.lower,
        "gap": estimate.value - estimate.lower,
        "weights": list(estimate.decomposition.weights),
        "restart_bests": list(estimate.restart_bests),
        "restart_stops": list(estimate.restart_stops),
        "trace_length": len(estimate.trace),
        "notes": list(estimate.notes),
    }
    config = {"ensemble_size": args.ensemble, "restarts": args.restarts,
              "iters": args.iters, "seed": args.seed}
    return _envelope("roof", argv, results, _input_info(args.infile, digest, state),
                     config)


def _cmd_embed(args, argv) -> dict:
    dims = Dims(args.dims)
    if dims.m < 2:             # one factor would be the state itself, with no splits
        raise DimensionError(f"embed needs at least two parties, got dims {dims.sizes}")
    check_segre_scan(dims)     # before the state is built once plus twice per split
    factors = product_factors(dims, args.seed)
    state = segre_embed(factors)
    splits = [args.split] if args.split is not None else list(range(1, dims.m))
    deviations = {str(l): check_partition_commutativity(factors, l) for l in splits}
    results = {
        "dims": list(dims.sizes),
        "factors": [_as_pairs(f) for f in factors],
        "amps": _as_pairs(state.amps),
        "segre_residual": segre_residual(state).residual,
        "split_deviation": deviations,
    }
    return _envelope("embed", argv, results, None,
                     {"dims": list(dims.sizes), "seed": args.seed,
                      "split": args.split})


def _cmd_gen_state(args, argv) -> dict:
    dims = Dims(args.dims)
    if dims.total > AMPLITUDE_CAP:
        raise DimensionError(f"refusing to build a state of {dims.total} > {AMPLITUDE_CAP} "
                             f"amplitudes for dims {dims.sizes}")
    state = named_state(args.name, dims)
    doc = state_file_dict(state)
    if args.out:
        write_state_file(args.out, state)
    return doc


# ------------------------------------------------------------------- parsing

def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segrent",
        description="Product-variety separability tests and entanglement "
                    "measures for multipartite states.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate a pure-state measure")
    p.add_argument("--in", dest="infile", required=True, help="state file (pure)")
    p.add_argument("--which", choices=("E", "F"), default="F")
    p.add_argument("--norm", type=float, default=None,
                   help="override the normalization constant")
    p.add_argument("--breakdown", action="store_true",
                   help="include per-class partial sums")
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("separable", help="variety-membership residuals")
    p.add_argument("--in", dest="infile", required=True, help="state file (pure)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_separable)

    p = sub.add_parser("generators", help="list the slot generators for dims")
    p.add_argument("--dims", type=_dims_arg, required=True)
    p.set_defaults(handler=_cmd_generators)

    p = sub.add_parser("roof", help="convex-roof estimate for a mixed state")
    p.add_argument("--in", dest="infile", required=True,
                   help="state file (pure or mixed)")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--ensemble", type=int, default=None, help="ensemble size K")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_roof)

    p = sub.add_parser("embed", help="embed seeded random factors, check splits")
    p.add_argument("--dims", type=_dims_arg, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=int, default=None,
                   help="single split position (default: all)")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("gen-state", help="emit a named state as a state file")
    p.add_argument("--name", required=True, choices=NAMED_STATES)
    p.add_argument("--dims", type=_dims_arg, required=True)
    p.add_argument("--out", default=None, help="also write the file here")
    p.set_defaults(handler=_cmd_gen_state)
    # argparse reads "-1e-10" as an option name; make "-<digit>" a value
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


class _Spliced:
    """Writes what it is given to ``out``, but the chunks of ``raw[text]`` for a key ``text``."""

    def __init__(self, out, raw: dict):
        self.out, self.raw = out, raw

    def write(self, text: str) -> None:
        for part in self.raw.pop(text, (text,)):
            self.out.write(part)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    report = None
    try:
        report = args.handler(args, argv)
        with contextlib.suppress(AttributeError):     # a stand-in for stdout may lack it
            # so stdout writes about 8 KiB at a time, also under PYTHONUNBUFFERED
            sys.stdout.reconfigure(line_buffering=False, write_through=False)
        raw = getattr(report, "raw", None)
        # inputs are checked finite, so a NaN here is an internal error
        json.dump(report, _Spliced(sys.stdout, raw) if raw else sys.stdout,
                  sort_keys=True, indent=2, allow_nan=False)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_PIPE
    except (SegrentError, OSError) as exc:
        print(f"segrent: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except Exception as exc:
        print(f"segrent: internal error: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    else:
        return EXIT_OK
    if report is not None:
        # what stdout holds of a failed report goes nowhere and its shutdown flush cannot
        # raise again; a stdout without a file descriptor (a test's capture) keeps it
        with contextlib.suppress(AttributeError, OSError, ValueError), \
                open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
