"""In-memory spans around calls into polyembed's public functions.

Spans are recorded only by wrappers that this file installs for the length
of one traced pass: each public function named in ``TRACED`` is rebound, in
every polyembed module that refers to it, to a wrapper that records its
start, end and parent span, then restored. No library code is edited. The
geometry predicates are not wrapped, because they run hundreds of thousands
of times per solve and a wrapper would cost more than the call; they are
timed per call by probes instead (see ``run.py``).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Public functions wrapped during a traced pass, by layer (= module name).
TRACED = {
    "model": (
        "make_instance",
        "serialize_instance",
        "deserialize_instance",
        "serialize_embedding",
        "deserialize_embedding",
        "serialize_report",
    ),
    "reduction": (
        "validate_3p",
        "build_instance",
        "serialize_meta",
        "deserialize_meta",
        "extract_partition",
        "serialize_partition",
    ),
    "solver": ("decide_embedding", "build_visibility_graph"),
    "verifier": ("verify_embedding",),
}
# Modules whose globals are searched for references to the traced functions.
SCOPES = ("polyembed", "polyembed.cli") + tuple(f"polyembed.{m}" for m in TRACED)

# Spans are lists: [name, start, end, parent index or -1, pass id, attrs].
NAME, START, END, PARENT, PASS, ATTRS = range(6)


def _note(name: str, args, result) -> dict | None:
    """Cheap facts about a call, taken after its span has ended."""
    if name == "solver.decide_embedding":
        return {"points": len(args[0].points), "status": result.status.value}
    if name == "verifier.verify_embedding":
        return {"valid": result.valid, "violations": len(result.violations)}
    if name == "solver.build_visibility_graph":
        # Counted in summarize(), after the pass, so the count is not
        # charged to the enclosing decide_embedding span.
        return {"matrix": result.matrix}
    return None


class Tracer:
    """Collects spans for one benchmark run; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        rec[ATTRS] = _note(name, args, result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced public function to a span-recording wrapper."""
        scopes = [importlib.import_module(m) for m in SCOPES]
        swapped = []
        try:
            for layer, names in TRACED.items():
                home = importlib.import_module(f"polyembed.{layer}")
                for fname in names:
                    fn = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", fn)
                    for mod in scopes:
                        if getattr(mod, fname, None) is fn:
                            swapped.append((mod, fname, fn))
                            setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, fn in reversed(swapped):
                setattr(mod, fname, fn)

    def summarize(self, pass_id: int) -> dict[str, float]:
        """Per-layer figures for one pass, from its spans' self times.

        A span's self time is its duration minus that of its direct
        children; the calls are sequential, so children never overlap.
        Visibility matrices held for counting are dropped here.
        """
        idx = [i for i, s in enumerate(self.spans) if s[PASS] == pass_id]
        child = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        out: dict[str, float] = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            dur = s[END] - s[START]
            self_s[s[NAME]] += dur - child[i]
            total_s[s[NAME]] += dur
            attrs = s[ATTRS] or {}
            if s[NAME] == "solver.decide_embedding":
                out[f"solver.decide_s.n{attrs['points']}"] += dur
            elif s[NAME] == "verifier.verify_embedding":
                out["verifier.verify_valid_s" if attrs["valid"] else "verifier.verify_invalid_s"] += dur
                out["verifier.violations"] += attrs["violations"]
            elif s[NAME] == "solver.build_visibility_graph":
                matrix = attrs.pop("matrix")
                out["solver.visible_pairs"] += (sum(map(sum, matrix)) - len(matrix)) // 2
        out["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
        for name in ("reduction.build_instance", "model.make_instance",
                     "model.serialize_instance", "model.deserialize_instance",
                     "reduction.extract_partition"):
            if name in self_s:
                out[f"{name}_s"] = self_s[name]
        if "solver.decide_embedding" in total_s:
            out["solver.decide_s"] = total_s["solver.decide_embedding"]
            out["solver.visibility_s"] = total_s["solver.build_visibility_graph"]
            # decide minus its visibility and verify children: the search,
            # clean-sightline scan included.
            out["solver.search_s"] = self_s["solver.decide_embedding"]
        return dict(out)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        rows = [dict(zip(keys, s[:ATTRS]), **(s[ATTRS] or {})) for s in self.spans]
        path.write_text(json.dumps({"spans": rows}, indent=0) + "\n", encoding="utf-8")
