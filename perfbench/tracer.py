"""Spans and call counts recorded from outside the trapver package.

`Tracer.install` replaces every public function of the trapver modules
with a wrapper, in every module namespace that binds it: `protocol`
imports `fwht_inplace`, `tensor` and others by name from `simulator`, and
`cli` imports `run_scheme` by name, so patching only the defining module
would miss most calls.  Hot, cheap calls get a wrapper that only counts.

Spans are kept in memory as four flat lists (name id, start, end, parent
index) and written out once, by `Tracer.dump`.  Self time is derived from
them afterwards by `aggregate`.  No wrapper draws from a random generator
or changes an argument, so a traced run computes exactly what an untraced
one does.
"""
from __future__ import annotations

import functools
import inspect
import json
import time

MODULES = ("graphs", "simulator", "protocol", "bounds", "ftcalc", "cli")

# Called per vertex, per edge or per outcome string: a span each would
# cost more than the call itself.
COUNT_ONLY = frozenset(
    {
        "graphs.k_to_radians",
        "graphs.radians_to_k",
        "graphs.GraphSpec.neighbors",
        "simulator.prepare_qubit",
        "simulator.apply_pauli",
        "simulator.apply_noise",
        "simulator.bits_to_string",
        "simulator.string_to_bits",
    }
)

# Methods are not module functions; these are wrapped on their class.
METHODS = (("graphs", "GraphSpec", "neighbors"),)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.max_state_qubits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, qual: str, fn):
        if qual == "protocol.run_round":
            def name_of(args, kwargs):
                noise = kwargs.get("noise", args[4] if len(args) > 4 else None)
                dense = noise is not None and not noise.is_noiseless()
                return qual + (".dense" if dense else ".fast")
        elif qual == "cli.main":
            def name_of(args, kwargs):
                argv = kwargs.get("argv", args[0] if args else None)
                return f"{qual}.{argv[0]}" if argv else qual
        elif qual == "simulator.fwht_inplace":
            def name_of(args, kwargs):
                a = args[0]
                k = a.size.bit_length() - 1
                self._count(f"{qual}.log2_{k}.calls")
                self._count(f"{qual}.log2_{k}.ops", a.size * k)
                self._count(f"{qual}.log2_{k}.bytes_computed", 4 * k * a.nbytes)
                return f"{qual}.log2_{k}"
        else:
            def name_of(args, kwargs):
                return qual

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(qual + ".calls")
            out = self.span(name_of(args, kwargs), fn, *args, **kwargs)
            if qual == "simulator.tensor":
                self.max_state_qubits = max(self.max_state_qubits, out.n)
            return out

        return wrapper

    def _count_wrapper(self, qual: str, fn):
        key = qual + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- installation -----------------------------------------------------
    def install(self) -> dict[str, int]:
        """Wrap every public trapver function wherever it is bound.

        Returns, per qualified name, how many namespaces were patched.
        """
        import importlib

        mods = {m: importlib.import_module(f"trapver.{m}") for m in MODULES}
        patched: dict[str, int] = {}
        for home, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                qual = f"{home}.{attr}"
                wrapped = (
                    self._count_wrapper(qual, fn)
                    if qual in COUNT_ONLY
                    else self._span_wrapper(qual, fn)
                )
                for other in mods.values():
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, name, wrapped)
                            patched[qual] = patched.get(qual, 0) + 1
        for home, cls_name, meth in METHODS:
            cls = getattr(mods[home], cls_name)
            qual = f"{home}.{cls_name}.{meth}"
            self._patch(cls, meth, self._count_wrapper(qual, getattr(cls, meth)))
            patched[qual] = 1
        return patched

    def _patch(self, target, name: str, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        """Put every original function back; recorded spans are kept."""
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    # -- output -----------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": [self.name_id, self.start, self.end, self.parent],
            "counts": self.counts,
            "max_state_qubits": self.max_state_qubits,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)


def aggregate(doc: dict) -> dict[str, float]:
    """Per-name busy and self seconds from a dumped trace, plus its counts.

    A span's busy time is its duration; its self time is that duration
    minus the durations of its direct children.  Calls here are
    synchronous, so children nest inside their parent and never overlap.
    """
    names = doc["names"]
    name_id, start, end, parent = doc["spans"]
    child_time = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out: dict[str, float] = dict(doc["counts"])
    for i, nid in enumerate(name_id):
        dur = end[i] - start[i]
        name = names[nid]
        out[name + ".busy_s"] = out.get(name + ".busy_s", 0.0) + dur
        out[name + ".self_s"] = (
            out.get(name + ".self_s", 0.0) + dur - child_time[i]
        )
    out["simulator.max_state_qubits"] = doc["max_state_qubits"]
    return out
