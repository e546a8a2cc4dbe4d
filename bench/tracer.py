"""Traced CLI child and the self-time accounting of its spans.

Run as a script, this is a drop-in for ``python -m segrent``:

    python bench/tracer.py SPANS_OUT CMD_ID -- <segrent arguments>

It imports the package, replaces module attributes with timing wrappers
(``cli.read_state_file``, the library entry points as bound in ``cli``,
``measures``, ``convex_roof`` and ``segre_ideal``, and ``cli.json``'s
``dump``), runs ``segrent.cli.main`` under a root span and, when it exits,
writes the spans to SPANS_OUT. Nothing in the package changes on disk.

Imported as a module it only provides the accounting: a span's self time is
its length minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# (module, attribute) pairs to wrap. Every binding of the same function shares
# one wrapper, so a call is recorded once whichever namespace it goes through.
WRAPPED = (
    ("cli", "read_state_file"),
    ("cli", "measure_E"), ("cli", "measure_F"), ("cli", "roof_F"),
    ("cli", "segre_residual"), ("cli", "t_variety_residual"),
    ("cli", "enumerate_segre_generators"), ("cli", "check_partition_commutativity"),
    ("cli", "named_state"), ("cli", "segre_embed"),
    ("measures", "slot_generator_sums"), ("measures", "class_generator_sums"),
    ("segre_ideal", "slot_generator_sums"), ("segre_ideal", "class_generator_sums"),
    ("segre_ideal", "segre_embed"),
    ("convex_roof", "measure_F"), ("convex_roof", "ensemble_from_isometry"),
    ("convex_roof", "eigen_ensemble"),
)
ROOT = "cli.main"
DUMP = "cli.json.dump"
SCANS = ("segre_ideal.slot_generator_sums", "segre_ideal.class_generator_sums")


# ------------------------------------------------------------ child side

class Recorder:
    """Spans as [id, name, parent id, start ns, end ns, annotation]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, annotate=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, name, parent, 0, 0, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            self._stack.pop()
        if annotate is not None:
            span[5] = annotate(args, result)
        return result

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)
        return wrapper


def _scan_dims(args, result):
    return {"dims": list(args[0].dims.sizes)}


def _spec_count(args, result):
    return {"specs": len(result)}


def install(recorder: Recorder, package) -> None:
    """Swap the wrapped attributes of the imported package for wrappers."""
    wrappers: dict[int, object] = {}
    for mod_name, attr in WRAPPED:
        module = getattr(package, mod_name)
        fn = getattr(module, attr)
        if id(fn) not in wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            annotate = (_scan_dims if name in SCANS else
                        _spec_count if attr == "enumerate_segre_generators" else None)
            wrappers[id(fn)] = recorder.wrap(name, fn, annotate)
        setattr(module, attr, wrappers[id(fn)])
    real_json = package.cli.json
    proxy = types.SimpleNamespace(**{k: getattr(real_json, k) for k in dir(real_json)
                                     if not k.startswith("__")})
    proxy.dump = recorder.wrap(DUMP, real_json.dump)
    package.cli.json = proxy


def _child_main(argv: list[str]) -> int:
    spans_out, cmd_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT CMD_ID -- ARGS...")
    import segrent
    import segrent.cli  # noqa: F401  (bind the submodules on the package)

    recorder = Recorder()
    install(recorder, segrent)
    try:
        code = recorder.call(ROOT, segrent.cli.main, (cli_argv,), {})
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"cmd": cmd_id, "spans": recorder.spans}, fh)
    return code


# ----------------------------------------------------------- parent side

def self_times(spans) -> dict[int, float]:
    """Self time in seconds of each span: length minus its children's union."""
    children: dict[int, list] = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append((s[3], s[4]))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered, cursor = 0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start - covered) / 1e9
    return out


def has_ancestor(spans_by_id: dict, span, name: str) -> bool:
    parent = span[2]
    while parent is not None:
        up = spans_by_id[parent]
        if up[1] == name:
            return True
        parent = up[2]
    return False


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
