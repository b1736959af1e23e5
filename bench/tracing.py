"""Spans and counters around heyde's public functions, from outside the package.

`Tracer.install()` wraps each function listed in SPANNED and COUNTED and
rebinds the wrapper wherever a heyde module namespace (or class) holds the
original, e.g. `engine.char_fn` as well as `distributions.char_fn`;
`uninstall()` puts every original back.  Spans record name, start, end,
parent span and op id in flat arrays; self time is a span's duration minus
the time covered by its children.  Functions that take about a microsecond
are counted only, because a span on each call would swamp the trace.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# metric prefix -> functions (module, qualified name) that feed it
SPANNED = {
    "cyclotomic.mul": [("heyde.cyclotomic", "CycloElement.__mul__")],
    "cyclotomic.from_terms": [("heyde.cyclotomic", "from_terms")],
    "cyclotomic.real_sign": [("heyde.cyclotomic", "CycloElement.real_sign")],
    "distributions.Distribution": [("heyde.distributions", "Distribution.__init__")],
    "distributions.char_fn": [("heyde.distributions", "char_fn")],
    "distributions.shift": [("heyde.distributions", "shift")],
    "distributions.has_haar_factor": [("heyde.distributions", "has_haar_factor")],
    "distributions.convolve": [("heyde.distributions", "convolve")],
    "distributions.invert_char_table": [("heyde.distributions", "invert_char_table")],
    "lemmas.squared_modulus_table": [("heyde.lemmas", "squared_modulus_table")],
    "lemmas.verify_difference_lemma": [("heyde.lemmas", "verify_difference_lemma")],
    "lemmas.verify_fixed_point_lemma": [("heyde.lemmas", "verify_fixed_point_lemma")],
    "fixtures.random_instance": [("heyde.fixtures", "random_instance")],
    "fixtures.enumerate_distributions": [("heyde.fixtures", "enumerate_distributions")],
    "sweep.check_instance": [("heyde.sweep", "check_instance")],
    "engine.is_conditionally_symmetric": [("heyde.engine", "is_conditionally_symmetric")],
    "engine.satisfies_heyde_equation": [("heyde.engine", "satisfies_heyde_equation")],
    "engine.reduce_to_subgroup": [("heyde.engine", "reduce_to_subgroup")],
    "engine.decompose": [("heyde.engine", "decompose")],
    "engine.classify_corollary": [("heyde.engine", "classify_corollary")],
    "serialize.read": [
        ("heyde.serialize", name)
        for name in (
            "spec_from_obj",
            "element_from_obj",
            "subgroup_from_obj",
            "endo_from_obj",
            "distribution_from_obj",
            "instance_from_obj",
            "sweep_config_from_obj",
        )
    ],
    "serialize.write": [
        ("heyde.serialize", name)
        for name in (
            "dumps_canonical",
            "instance_to_obj",
            "decomposition_to_obj",
            "sweep_report_to_obj",
            "difference_report_to_obj",
            "fixed_point_report_to_obj",
        )
    ],
    "cli.main": [("heyde.cli", "main")],
}

COUNTED = {
    "groups.element_ops.calls": [
        ("heyde.groups", f"GroupSpec.{name}") for name in ("add", "neg", "sub", "pair_exponent")
    ],
    "morphisms.apply.calls": [("heyde.morphisms", "Endomorphism.apply")],
    "rng.next_u64.calls": [("heyde.rng", "DeterministicStream.next_u64")],
}

# Inclusive time of these spans is also summed per group size N.
PER_RUNG = ("engine.satisfies_heyde_equation", "engine.decompose", "engine.is_conditionally_symmetric")
LADDER_N = (9, 45, 135, 315)


class Tracer:
    def __init__(self, keep_spans: bool):
        self.keep = keep_spans
        self.names = list(SPANNED)
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = {name: [0] for name in COUNTED}
        self.total_by_n = {(name, n): 0.0 for name in PER_RUNG for n in LADDER_N}
        # equation span: multiplies, N(N-1), char_fn calls, 2N -- symmetric verdicts only
        self.equation = [0, 0, 0, 0]
        self.op = -1
        self._stack: list[list] = []
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, nid: int) -> None:
        idx = -1
        if self.keep:
            idx = len(self._span_name)
            self._span_name.append(nid)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_op.append(self.op)
        self._stack.append([perf_counter(), 0.0, nid, idx])

    def _exit(self) -> float:
        end = perf_counter()
        start, child, nid, idx = self._stack.pop()
        duration = end - start
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if idx >= 0:
            self._span_start[idx] = start
            self._span_end[idx] = end
        return duration

    def _span(self, nid: int, fn):
        name = self.names[nid]
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    self._enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item

            return gen_wrapper

        if name == "engine.satisfies_heyde_equation":
            mul = self.names.index("cyclotomic.mul")
            char = self.names.index("distributions.char_fn")

            @functools.wraps(fn)
            def equation_wrapper(inst, *args, **kwargs):
                muls, chars = self.calls[mul], self.calls[char]
                self._enter(nid)
                try:
                    result = fn(inst, *args, **kwargs)
                finally:
                    duration = self._exit()
                    n = inst.spec.size
                    if (name, n) in self.total_by_n:
                        self.total_by_n[(name, n)] += duration
                if result:
                    eq = self.equation
                    eq[0] += self.calls[mul] - muls
                    eq[1] += n * (n - 1)
                    eq[2] += self.calls[char] - chars
                    eq[3] += 2 * n
                return result

            return equation_wrapper

        if name in PER_RUNG:

            @functools.wraps(fn)
            def rung_wrapper(inst, *args, **kwargs):
                self._enter(nid)
                try:
                    return fn(inst, *args, **kwargs)
                finally:
                    duration = self._exit()
                    key = (name, inst.spec.size)
                    if key in self.total_by_n:
                        self.total_by_n[key] += duration

            return rung_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    @staticmethod
    def _counted(cell: list, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, module_name: str, qualname: str, make) -> None:
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapped = make(original)
            # aliases such as __rmul__ = __mul__ share the wrapper
            for name, value in list(cls.__dict__.items()):
                if value is original:
                    self._patches.append((cls, name, value))
                    setattr(cls, name, wrapped)
            return
        original = getattr(module, qualname)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "heyde" and not mod_name.startswith("heyde."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapped)

    def install(self) -> None:
        for nid, name in enumerate(self.names):
            for module_name, qualname in SPANNED[name]:
                self._rebind(module_name, qualname, functools.partial(self._span, nid))
        for name, targets in COUNTED.items():
            for module_name, qualname in targets:
                self._rebind(module_name, qualname, functools.partial(self._counted, self.counts[name]))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.calls"] = self.calls[nid]
        for name, cell in self.counts.items():
            out[name] = cell[0]
        for (name, n), total in self.total_by_n.items():
            out[f"{name}.total_s.N{n}"] = total
        muls, pairs, chars, points = self.equation
        out["engine.equation.mul_per_pair"] = muls / pairs if pairs else 0.0
        out["engine.equation.char_fn_per_point"] = chars / points if points else 0.0
        return out

    def equation_bases(self) -> dict[str, int]:
        muls, pairs, chars, points = self.equation
        return {"multiplies": muls, "N(N-1)": pairs, "char_fn_calls": chars, "2N": points}

    def write(self, path: Path) -> None:
        """Spans as five flat little-endian arrays plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self._span_name,
            "start": self._span_start,
            "end": self._span_end,
            "parent": self._span_parent,
            "op": self._span_op,
        }
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in columns.values():
                column.tofile(handle)
        index = {
            "spans": len(self._span_name),
            "columns": [[key, column.typecode] for key, column in columns.items()],
            "names": self.names,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1), encoding="utf-8")
