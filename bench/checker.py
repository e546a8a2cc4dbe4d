"""Output checks for every benchmark command, with references computed here.

The references use only numpy and the definitions, never segrent:

- E^2 = sum_j (1 - Tr rho_j^2) and F^2 = 2 sum_S (1 - Tr rho_S^2) over the
  canonical classes S (nonempty subsets of the first m-1 slots). Each term
  is 2 sum_{i<j} s_i^2 s_j^2 over the singular values of the flattening,
  which stays accurate near product states where 1 - sum s^4 does not.
- Residuals are the largest 2x2 minor of the slot (or class) flattenings.
- Generator counts come from closed formulas, checked against brute
  enumeration in the benchmark's tests.

A command fails when it exits with the wrong code, prints anything but
strict JSON (NaN and Infinity are rejected), times out, or fails a value
check.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

import workloads as wl

VALUE_ABS_TOL = 1e-10      # measure values and residuals against references
VALUE_REL_TOL = 1e-9
PRODUCT_TOL = 1e-12        # product states: measures and residuals at most this
ROOF_LOWER_SLACK = 1e-9    # Werner: closed form - slack <= value
ROOF_UPPER_SLACK = 2e-2    # Werner: value <= closed form + slack
EIGEN_SLACK = 1e-9         # any roof: value <= eigen-ensemble average + slack
PROJECTOR_TOL = 1e-10      # pure projector: roof value equals F
EMBED_TOL = 1e-12
DOMINANCE_SLACK = 1e-13    # t_variety >= segre up to rounding, as in the unit tests
RANK_FLOOR = 1e-12         # eigenvalues kept for the eigen-ensemble bound
RESTART_HIT_TOL = 1e-6     # a restart ending this close to the best is a hit


# ------------------------------------------------------------------ counts

def canonical_classes(m: int) -> list[tuple[int, ...]]:
    """Nonempty subsets of {0..m-2}: one per complement pair of slot sets."""
    return [s for r in range(1, m) for s in itertools.combinations(range(m - 1), r)]


def slot_generator_counts(dims) -> list[int]:
    """Per slot j: C(N_j, 2) * D_j * (D_j - 1) with D_j = prod(dims) / N_j."""
    total = math.prod(dims)
    return [math.comb(n, 2) * (total // n) * (total // n - 1) for n in dims]


def slot_generator_count(dims) -> int:
    return sum(slot_generator_counts(dims))


def class_pair_count(dims) -> int:
    """C(d, 2) * (2^(m-1) - 1): every index pair for every canonical class."""
    return math.comb(math.prod(dims), 2) * (2 ** (len(dims) - 1) - 1)


# -------------------------------------------------------------- references

def flattening(amps: np.ndarray, dims, rows) -> np.ndarray:
    """Matrix with the slots in ``rows`` as row index, the rest as column."""
    rows = list(rows)
    rest = [j for j in range(len(dims)) if j not in rows]
    t = np.asarray(amps).reshape(dims).transpose(rows + rest)
    return t.reshape(math.prod(dims[j] for j in rows), -1)


def minor_square_sum(mat: np.ndarray) -> float:
    """Sum over generator pairs of |2x2 minor|^2 = 2 sum_{i<j} s_i^2 s_j^2."""
    x = np.linalg.svd(mat, compute_uv=False) ** 2
    tail = np.cumsum(x[::-1])[::-1]
    return float(2.0 * np.dot(x[:-1], tail[1:]))


def max_minor(mat: np.ndarray) -> float:
    """Largest |M[r1,c1] M[r2,c2] - M[r2,c1] M[r1,c2]| over all 2x2 minors."""
    r1, r2 = np.triu_indices(mat.shape[0], 1)
    best = 0.0
    for lo in range(0, r1.size, 64):               # row pairs in blocks
        a, b = mat[r1[lo:lo + 64]], mat[r2[lo:lo + 64]]
        minors = a[:, :, None] * b[:, None, :] - b[:, :, None] * a[:, None, :]
        best = max(best, float(np.max(np.abs(minors))))
    return best


@dataclass
class PureRef:
    slot_terms: list[float]            # per slot: sum |g|^2 = 1 - Tr rho_j^2
    class_terms: dict[tuple, float]    # per canonical class
    segre: float                       # max slot minor
    t_variety: float                   # max class minor

    @property
    def e(self) -> float:
        return math.sqrt(math.fsum(self.slot_terms))

    @property
    def f(self) -> float:
        return math.sqrt(2.0 * math.fsum(self.class_terms.values()))


def pure_reference(amps: np.ndarray, dims) -> PureRef:
    m = len(dims)
    slots = [flattening(amps, dims, [j]) for j in range(m)]
    classes = {s: flattening(amps, dims, s) for s in canonical_classes(m)}
    return PureRef(
        slot_terms=[minor_square_sum(x) for x in slots],
        class_terms={s: minor_square_sum(x) for s, x in classes.items()},
        segre=max(max_minor(x) for x in slots),
        t_variety=max(max_minor(x) for x in classes.values()))


def f_value(amps: np.ndarray, dims) -> float:
    terms = [minor_square_sum(flattening(amps, dims, s)) for s in canonical_classes(len(dims))]
    return math.sqrt(2.0 * math.fsum(terms))


def eigen_ensemble_value(rho: np.ndarray, dims) -> float:
    lam, vecs = np.linalg.eigh(rho)
    kept = lam > RANK_FLOOR
    return math.fsum(float(l) * f_value(vecs[:, i], dims)
                     for l, i in zip(lam[kept], np.flatnonzero(kept)))


def werner_closed_form(p: float) -> float:
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def generator_value(amps: np.ndarray, dims, swap, pair) -> float:
    """|a[k] a[l] - a[k'] a[l']| with k, l exchanged on the slots in swap."""
    t = np.asarray(amps).reshape(dims)
    k, l = (tuple(int(i) for i in x) for x in pair)
    ks, ls = list(k), list(l)
    for j in swap:
        ks[j], ls[j] = l[j], k[j]
    return float(abs(t[k] * t[l] - t[tuple(ks)] * t[tuple(ls)]))


# ------------------------------------------------------------------ checks

class CheckFailure(Exception):
    pass


def _reject_constant(token: str):
    raise CheckFailure(f"report is not strict JSON: contains {token}")


def strict_json(data: bytes):
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"report is not valid JSON ({exc})") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _close(value, ref: float, what: str) -> None:
    _require(isinstance(value, (int, float)) and
             abs(value - ref) <= VALUE_ABS_TOL + VALUE_REL_TOL * abs(ref),
             f"{what} = {value!r}, reference {ref!r}")


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    info: dict = field(default_factory=dict)


class Checker:
    """Checks command outputs; caches the references per input."""

    def __init__(self, inputs: dict[str, wl.Input]):
        self.inputs = inputs
        self._pure: dict[str, PureRef] = {}
        self._eigen: dict[str, float] = {}

    def pure_ref(self, name: str) -> PureRef:
        if name not in self._pure:
            item = self.inputs[name]
            self._pure[name] = pure_reference(item.amps, item.dims)
        return self._pure[name]

    def eigen_value(self, name: str) -> float:
        if name not in self._eigen:
            item = self.inputs[name]
            self._eigen[name] = eigen_ensemble_value(item.rho, item.dims)
        return self._eigen[name]

    def prepare(self, commands) -> None:
        """Compute every reference up front so passes are not slowed."""
        for cmd in commands:
            if cmd.check in ("measure", "separable"):
                self.pure_ref(cmd.ref["input"])
            elif cmd.check == "roof":
                self.eigen_value(cmd.ref["input"])

    def check(self, cmd: wl.Command, code: int, stdout: bytes,
              timed_out: bool) -> Outcome:
        if timed_out:
            return Outcome(False, "timed out")
        expected = 2 if cmd.check == "exit2" else 0
        if code != expected:
            return Outcome(False, f"exit code {code}, expected {expected}")
        try:
            if cmd.check == "exit2":
                _require(not stdout.strip(), "input error printed a report")
                return Outcome(True)
            doc = strict_json(stdout)
            _require(isinstance(doc, dict), "report is not a JSON object")
            if cmd.check != "gen-state":
                _require(doc.get("command") == cmd.kind,
                         f"report command {doc.get('command')!r}")
            info = getattr(self, "_check_" + cmd.check.replace("-", "_"))(cmd, doc)
        except CheckFailure as exc:
            return Outcome(False, str(exc))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return Outcome(False, f"malformed report ({type(exc).__name__}: {exc})")
        return Outcome(True, info=info or {})

    # one method per checker key ------------------------------------------

    def _check_measure(self, cmd, doc):
        item = self.inputs[cmd.ref["input"]]
        ref = self.pure_ref(item.name)
        res = doc["results"]
        which = res["which"]
        value = res["value"]
        if which == "E":
            _close(value, ref.e, "E")
            _require(res["normalization"] == 1.0, "E normalization is not 1")
            expected = {str(j): t for j, t in enumerate(ref.slot_terms)}
        else:
            _close(value, ref.f, "F")
            _require(res["normalization"] == 2.0, "F normalization is not 2")
            expected = {",".join(map(str, s)): t for s, t in ref.class_terms.items()}
        if item.meta.get("product"):
            _require(value <= PRODUCT_TOL, f"product state gives {which} = {value!r}")
        if "--breakdown" in cmd.argv:
            per_class = res["per_class"]
            _require(set(per_class) == set(expected), "breakdown keys differ")
            for key, term in expected.items():
                _close(per_class[key], term, f"per_class[{key}]")
        return {}

    def _check_separable(self, cmd, doc):
        item = self.inputs[cmd.ref["input"]]
        ref = self.pure_ref(item.name)
        res = doc["results"]
        tol = res["tolerance"]
        seg, tv = res["segre"], res["t_variety"]
        _close(seg["residual"], ref.segre, "segre residual")
        _close(tv["residual"], ref.t_variety, "t_variety residual")
        # the two scans evaluate a shared generator with different roundings
        _require(tv["residual"] >= seg["residual"] - DOMINANCE_SLACK,
                 "t_variety residual < segre residual")
        if item.meta.get("product"):
            _require(tv["residual"] <= PRODUCT_TOL, "product state has a residual")
        for rep in (seg, tv):
            _require(rep["is_member"] == (rep["residual"] <= tol), "is_member disagrees")
            worst = rep["worst"]
            if worst is not None:
                swap = worst["swap_set"] if "swap_set" in worst else [worst["slot"]]
                g = generator_value(item.amps, item.dims, swap, worst["pair"])
                _close(g, rep["residual"], "witness generator")
        return {}

    def _check_roof(self, cmd, doc):
        item = self.inputs[cmd.ref["input"]]
        res = doc["results"]
        value = res["value"]
        _require(isinstance(value, float), f"roof value {value!r}")
        info = {"value": value}
        _require(value <= self.eigen_value(item.name) + EIGEN_SLACK,
                 f"roof {value!r} exceeds the eigen-ensemble average")
        if "werner_p" in item.meta:
            closed = werner_closed_form(item.meta["werner_p"])
            _require(closed - ROOF_LOWER_SLACK <= value <= closed + ROOF_UPPER_SLACK,
                     f"Werner roof {value!r}, closed form {closed!r}")
            info["excess"] = value - closed
        if "pure_amps" in item.meta:
            f = f_value(item.meta["pure_amps"], item.dims)
            _require(abs(value - f) <= PROJECTOR_TOL, f"projector roof {value!r}, F {f!r}")
        match = re.search(r"K=(\d+)", " ".join(res["notes"]))
        _require(match is not None, "roof notes do not state K")
        restart_bests = res["restart_bests"]
        info.update(ensemble=int(match.group(1)), sweeps=res["trace_length"] - 1,
                    restarts=len(restart_bests),
                    restart_hits=sum(abs(b - value) <= RESTART_HIT_TOL
                                     for b in restart_bests))
        return info

    def _check_generators(self, cmd, doc):
        dims = cmd.ref["dims"]
        res = doc["results"]
        per_slot = slot_generator_counts(dims)
        count = sum(per_slot)
        _require(res["count"] == count, f"count {res['count']}, formula {count}")
        _require(len(res["specs"]) == count, "spec list length differs from count")
        _require(res["per_slot"] == {str(j): c for j, c in enumerate(per_slot)},
                 "per_slot counts differ from formula")
        return {"specs": count}

    def _check_embed(self, cmd, doc):
        res = doc["results"]
        dims = cmd.ref["dims"]
        splits = [cmd.ref["split"]] if cmd.ref["split"] is not None else range(1, len(dims))
        dev = res["split_deviation"]
        _require(set(dev) == {str(s) for s in splits}, "split set differs")
        _require(all(v <= EMBED_TOL for v in dev.values()), f"split deviation {dev}")
        factors = [np.array([complex(*z) for z in f]) for f in res["factors"]]
        direct = factors[0]
        for f in factors[1:]:
            direct = np.kron(direct, f)
        amps = np.array([complex(*z) for z in res["amps"]])
        _require(float(np.max(np.abs(amps - direct))) <= EMBED_TOL, "amps differ from kron")
        _require(res["segre_residual"] <= EMBED_TOL, "embedded state has a residual")
        return {}

    def _check_gen_state(self, cmd, doc):
        dims = cmd.ref["dims"]
        _require(doc["dims"] == dims, f"dims {doc['dims']!r}")
        amps = np.array([complex(*z) for z in doc["amps"]])
        expected = wl.named(cmd.ref["name"], dims)
        _require(amps.shape == expected.shape and
                 float(np.max(np.abs(amps - expected))) <= 1e-15, "amplitudes differ")
        return {}
