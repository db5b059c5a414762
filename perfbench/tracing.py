"""Span recording around the library's public functions, from outside it.

``install`` replaces every binding of each traced function (module globals,
names imported into other modules and the package ``__init__``, and values
of module-level dispatch dicts) with a wrapper that records one span per
call.  Spans live in flat arrays while the run is going and are written out
once, when it ends.  A layer's self time is its spans' total duration minus
the time covered by their direct child spans and by speed readings
taken while they were open.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# (layer name, module, attribute).  The six rule functions share one layer.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("profiles.parse_profile", "profiles", "parse_profile"),
    ("profiles.serialize_profile", "profiles", "serialize_profile"),
    ("core.Election", "core", "Election"),
    ("core.pairwise_tally", "core", "pairwise_tally"),
    ("core.condorcet_winner", "core", "condorcet_winner"),
    ("scores.score_table", "scores", "score_table"),
    ("scores.maximin_score", "scores", "maximin_score"),
    ("scores.insertion_score", "scores", "insertion_score"),
    ("scores.replacement_score", "scores", "replacement_score"),
    ("scores.deletion_score", "scores", "deletion_score"),
    ("scores.dodgson_score", "scores", "dodgson_score"),
    ("rules.winners", "rules", "plurality_winners"),
    ("rules.winners", "rules", "condorcet_rule"),
    ("rules.winners", "rules", "dodgson_winners"),
    ("rules.winners", "rules", "young_winners"),
    ("rules.winners", "rules", "maximin_winners"),
    ("rules.winners", "rules", "replacement_winners"),
    ("distances.election_distance", "distances", "election_distance"),
    ("oracle.dr_winners_oracle", "oracle", "dr_winners_oracle"),
    ("oracle.dr_score_oracle", "oracle", "dr_score_oracle"),
    ("reduction.parse_dimacs", "reduction", "parse_dimacs"),
    ("reduction.restrict", "reduction", "restrict"),
    ("reduction.build_election", "reduction", "build_election"),
    ("reduction.vc_exact", "reduction", "vc_exact"),
    ("reduction.verify_reduction", "reduction", "verify_reduction"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

class Recorder:
    """Spans as parallel arrays; ``enabled`` gates recording at run time."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.current = -1
        self.layer = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.excluded: dict[int, int] = {}

    def wrap(self, fn, layer_index: int):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(self.start)
            parent = self.current
            self.layer.append(layer_index)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0)
            self.current = span
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.current = parent

        traced.__wrapped__ = fn
        return traced

    def exclude(self, seconds: float) -> None:
        """Take time spent outside the program out of the innermost open span."""
        if self.enabled and self.current >= 0:
            span = self.current
            self.excluded[span] = self.excluded.get(span, 0) + int(seconds * 1e9)

    def summary(self, factors: list[float]) -> dict[str, dict[str, float]]:
        """Per layer: span count and self time in seconds, each span's time
        multiplied by the speed factor of the op it belongs to."""
        total = len(self.start)
        child_ns = [0] * total
        for span in range(total):
            parent = self.parent[span]
            if parent >= 0:
                child_ns[parent] += self.end[span] - self.start[span]
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        for span in range(total):
            layer = self.layer[span]
            calls[layer] += 1
            own = self.end[span] - self.start[span] - child_ns[span] - self.excluded.get(span, 0)
            self_ns[layer] += own * factors[self.op[span]]
        return {
            name: {"calls": calls[i], "self_s": self_ns[i] / 1e9}
            for i, name in enumerate(LAYERS)
        }

    def write(self, path: Path) -> None:
        """Gzipped CSV, one row per span: id, layer, parent id (-1 for none),
        op id, and start and end in ns after the first span's start."""
        origin = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("span,layer,parent,op,start_ns,end_ns\n")
            for span in range(len(self.start)):
                out.write(
                    f"{span},{LAYERS[self.layer[span]]},{self.parent[span]},{self.op[span]},"
                    f"{self.start[span] - origin},{self.end[span] - origin}\n"
                )


def _votedist_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "votedist" or name.startswith("votedist.")
    ]


def _originals() -> dict[int, tuple[object, int]]:
    """id(original) -> (original, layer index) for every traced target.

    Holding the originals keeps their ids unique while the dict lives."""
    out = {}
    for layer, module, attr in TARGETS:
        fn = getattr(sys.modules[f"votedist.{module}"], attr)
        out[id(fn)] = (fn, LAYERS.index(layer))
    return out


def install(recorder: Recorder) -> None:
    """Replace every binding of each target with its traced wrapper.

    ``core.Election`` is traced through its ``__init__``, which runs the
    dataclass validation, so every construction is covered whatever name
    the class is reached by.
    """
    import votedist.cli  # noqa: F401  (the package loads every other module)

    targets = _originals()
    election = sys.modules["votedist.core"].Election
    del targets[id(election)]
    election.__init__ = recorder.wrap(election.__init__, LAYERS.index("core.Election"))
    wrappers = {key: recorder.wrap(fn, layer) for key, (fn, layer) in targets.items()}

    for module in _votedist_modules():
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, name, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]

    leftover = [
        f"{module.__name__}.{name}"
        for module in _votedist_modules()
        for name, value in vars(module).items()
        if id(value) in targets
    ]
    if leftover:
        raise RuntimeError(f"untraced bindings left: {leftover}")
