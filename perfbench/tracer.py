"""Outside-in tracer for the fedchain benchmark.

The tracer wraps public functions of the library from the outside: nothing
under `src/` knows it exists. A function is replaced at *every* name it is
bound to, because `chain` and `experiments` import `local_train`,
`evaluate`, `aggregate`, `kl_weights`, `local_loss` and `Simulator` by name;
patching only `fed.local_train` would silently miss the chain's calls.
Methods are patched on their class, which every importer shares.

Spans (name, start, end, parent, cell) are kept in memory and written out
when the run ends. Counts are kept per cell at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

# (owner path, attribute, span name). The owner path is a module name, or
# "module:Class" for a method.
SPANNED = (
    ("fedchain.netsim", "build_topology", "netsim.build_topology"),
    ("fedchain.netsim:Simulator", "run_until_idle", "netsim.run_until_idle"),
    ("fedchain.pools", "bootstrap_history", "pools.bootstrap_history"),
    ("fedchain.pools", "estimate_latency", "pools.estimate_latency"),
    ("fedchain.pools", "announce_heads", "pools.announce_heads"),
    ("fedchain.pools", "assign_pools", "pools.assign_pools"),
    ("fedchain.sharedring:RingSession", "__init__", "sharedring.RingSession.init"),
    ("fedchain.sharedring:RingSession", "start", "sharedring.RingSession.start"),
    ("fedchain.fixedpoint", "encode", "fixedpoint.encode"),
    ("fedchain.fixedpoint", "decode", "fixedpoint.decode"),
    ("fedchain.fixedpoint", "generate_noise", "fixedpoint.generate_noise"),
    ("fedchain.fed", "local_train", "fed.local_train"),
    ("fedchain.fed", "evaluate", "fed.evaluate"),
    ("fedchain.fed", "local_loss", "fed.local_loss"),
    ("fedchain.fed", "aggregate", "fed.aggregate"),
    ("fedchain.fed", "kl_weights", "fed.kl_weights"),
    ("fedchain.verify", "commit", "verify.commit"),
    ("fedchain.verify", "prove", "verify.prove"),
    ("fedchain.verify", "verify", "verify.verify"),
    ("fedchain.verify", "derive_challenge", "verify.derive_challenge"),
    ("fedchain.chain", "run_round", "chain.run_round"),
    ("fedchain.chain", "validate_chain", "chain.validate_chain"),
    ("fedchain.data", "make_blobs", "data.make_blobs"),
    ("fedchain.data", "partition_noniid", "data.partition_noniid"),
    ("fedchain.experiments", "build_round_setup", "experiments.build_round_setup"),
    ("fedchain.experiments", "run_sweep_cell", "experiments.run_sweep_cell"),
    # The benchmark's own export-then-reload of the ledger.
    ("workloads", "ledger_roundtrip", "chain.ledger_roundtrip"),
)


def _resolve(modules: dict[str, Any], owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    obj = modules[module_name]
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Span and count recorder; `install` patches, `uninstall` restores.

    `cell` is the id stamped on every span and count; the caller sets it
    before each unit of work (-1 for work outside any cell)."""

    def __init__(self, modules: dict[str, Any]) -> None:
        self.modules = modules
        self.cell = -1
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            return
        for owner, attr, name in SPANNED:
            target = _resolve(self.modules, owner)
            original = vars(target)[attr]
            wrapped = self._spanned(self._counted(name, original), name, original)
            self._rebind(target, attr, original, wrapped)
        sim_cls = _resolve(self.modules, "fedchain.netsim:Simulator")
        send = vars(sim_cls)["send"]
        self._rebind(sim_cls, "send", send, self._counted_send(send))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, target: Any, attr: str, original: Any, wrapped: Any) -> None:
        if isinstance(target, type):
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapped)
            return
        for module in self.modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapped)

    # -- recording --------------------------------------------------------

    def _spanned(self, fn: Callable, name: str, original: Callable) -> Callable:
        idx = self._name_index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (idx, start, end, parent, self.cell)

        return wrapper

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _counted(self, name: str, fn: Callable) -> Callable:
        """Add the counts measured at this boundary, if any."""
        counts = self.counts
        if name == "netsim.run_until_idle":
            def run_until_idle(sim, *args, **kwargs):
                before = sim.stats["delivered"]
                result = fn(sim, *args, **kwargs)
                counts[self.cell]["netsim.events"] += sim.stats["delivered"] - before
                return result
            return run_until_idle
        if name == "pools.bootstrap_history":
            def bootstrap_history(*args, **kwargs):
                history = fn(*args, **kwargs)
                counts[self.cell]["pools.history_pairs"] += len(history)
                return history
            return bootstrap_history
        if name == "fed.local_train":
            def local_train(model, dataset, *args, **kwargs):
                counts[self.cell]["fed.samples_trained"] += len(dataset)
                return fn(model, dataset, *args, **kwargs)
            return local_train
        if name == "verify.verify":
            def verify(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[self.cell]["verify.accepted"] += int(result.accepted)
                return result
            return verify
        return fn

    def _counted_send(self, send: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(send)
        def wrapper(sim, *args, **kwargs):
            event = send(sim, *args, **kwargs)
            c = counts[self.cell]
            c["netsim.sent"] += 1
            c["netsim.sent_size_units"] += event.size_units
            if event.kind.startswith("ring"):
                c["sharedring.ring_messages"] += 1
            return event

        return wrapper

    # -- summaries --------------------------------------------------------

    def finished_spans(self) -> Iterable[tuple[int, float, float, int, int]]:
        return (s for s in self.spans if s is not None)

    def totals(self, cells: set[int]) -> dict[str, dict[str, float]]:
        """Per span name over the given cells: calls, inclusive seconds and
        self seconds (duration minus the traced child spans inside it)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.finished_spans():
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names
        }
        for pos, s in enumerate(self.spans):
            if s is None or s[4] not in cells:
                continue
            entry = out[self.names[s[0]]]
            duration = s[2] - s[1]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time.get(pos, 0.0)
        return out

    def calls_per_cell(self, name: str) -> Counter:
        idx = self._name_index(name)
        return Counter(s[4] for s in self.finished_spans() if s[0] == idx)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,cell\n")
            for s in self.finished_spans():
                fh.write(f"{self.names[s[0]]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]}\n")
