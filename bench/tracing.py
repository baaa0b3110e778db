"""Per-layer spans recorded from outside the library.

`Tracer.install` wraps the public functions of each sigmarket module.  Several
modules bind imported names at import time (`cli` binds `construct_epbe` and
`verify_pbe`, `outer` binds `brute_force_equilibria`, and so on), so a
function is replaced under every module attribute that refers to it; a
wrapper installed in one module only would read zero calls.  Methods are
replaced on their class.  `uninstall` puts every original back.

A span's busy time is its wall time (a span nested in one of the same name
adds calls but no busy time); its self time is busy time minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) pairs it covers
SPANS = {
    "market.inverse": [("sigmarket.market", "CostFamily.inverse")],
    "subgame.mimic_frontier": [("sigmarket.subgame", "mimic_frontier")],
    "subgame.construct_epbe": [("sigmarket.subgame", "construct_epbe")],
    "refinement.verify_pbe": [("sigmarket.refinement", "verify_pbe")],
    "refinement.verify_extended_d1": [("sigmarket.refinement", "verify_extended_d1")],
    "refinement.check_minimality": [("sigmarket.refinement", "check_minimality")],
    "refinement.brute_force": [("sigmarket.refinement", "brute_force_equilibria")],
    "outer.solve": [
        ("sigmarket.outer", name)
        for name in (
            "riley_rpbe",
            "monopoly_rpbe",
            "credit_monopoly_rpbe",
            "semipooling_family",
            "mild_fee_set",
            "is_fierce",
            "welfare",
        )
    ],
    "outer.deviation_audit": [("sigmarket.outer", "deviation_audit")],
}
REQUEST = "cli.request"  # root span around each operation, opened by run.py


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # work counters read off return values
        self._stack: list[list] = []  # [name, start, child time]
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.calls[name] += 1
        self.self_time[name] += span - child
        if all(frame[0] != name for frame in self._stack):
            self.busy[name] += span
        if self._stack:
            self._stack[-1][2] += span

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _observe(self, name: str, result) -> None:
        if name == "subgame.construct_epbe":
            self.counts["separating"] += result.construction_tag == "separating"
        elif name == "refinement.brute_force":
            self.counts["oracle_kept"] += len(result)
        elif name == "refinement.verify_pbe" and self.inside("refinement.brute_force"):
            self.counts["oracle_verified"] += 1
        elif name == "outer.deviation_audit":
            self.counts["deviations"] += len(result.entries)
            self.counts["replays"] += sum(e.mode == "pessimistic" for e in result.entries)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self._observe(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "sigmarket"]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                holders = [owner] if path else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
