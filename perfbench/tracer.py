"""Span tracer that wraps calypso's public functions from outside the package.

Installing a ``Tracer`` replaces every reference that a ``calypso`` module
holds to a traced function (``sirs_step`` is bound in both ``calypso.sim``
and ``calypso.eakf``; ``simulate`` in ``sim``, ``analysis``, ``calib``,
``synth`` and ``cli``), and every traced method on its class, so a call is
recorded whichever import site it goes through.  Nothing under ``src/``
is edited.  Spans are kept in memory as parallel lists (name, start, end,
parent, stage, note) and written out once, when the benchmark ends.
"""

from __future__ import annotations

import csv
import sys
import time
from pathlib import Path


def _evaluations(args, kwargs, result):
    return result.evaluations


def _eakf_member_weeks(args, kwargs, result):
    return result.ensemble.size * result.trajectory.n_steps


def _forecast_member_weeks(args, kwargs, result):
    h = args[1] if len(args) > 1 else kwargs["h"]
    return args[0].ensemble.size * h


# (module, attribute path, note).  A note maps (args, kwargs, result) to a
# number kept on the span: the work the call did, as the call itself saw it.
TARGETS = (
    ("calypso.autodiff", "Tape.backward", lambda a, k, r: len(a[0])),
    ("calypso.sim", "sirs_step", None),
    ("calypso.sim", "simulate", None),
    ("calypso.synth", "generate", None),
    ("calypso.calib", "train_joint", None),
    ("calypso.calib", "infer_params", None),
    ("calypso.calib", "forecast", None),
    ("calypso.calib", "load_checkpoint", None),
    ("calypso.calib", "save_checkpoint", None),
    ("calypso.adapter", "train_adapter", None),
    ("calypso.adapter", "refine", None),
    ("calypso.adapter", "load_checkpoint", None),
    ("calypso.adapter", "save_checkpoint", None),
    ("calypso.eakf", "run_eakf", _eakf_member_weeks),
    ("calypso.eakf", "eakf_step", None),
    ("calypso.eakf", "EakfResult.forecast", _forecast_member_weeks),
    ("calypso.analysis", "FittedModel.run", None),
    ("calypso.analysis", "regional_beta_reduction", lambda a, k, r: 1),
    ("calypso.analysis", "sensitivity_scan", lambda a, k, r: len(r.region_ids)),
    ("calypso.analysis", "outbreak_ranking", lambda a, k, r: len(r.ranking)),
    ("calypso.analysis", "unit_greedy", _evaluations),
    ("calypso.analysis", "brute_force_allocation", _evaluations),
    ("calypso.io", "load_graph", None),
    ("calypso.io", "load_dataset", None),
    ("calypso.io", "load_ground_truth_params", None),
    ("calypso.io", "read_series", None),
    ("calypso.io", "write_inputs", None),
    ("calypso.io", "write_ground_truth", None),
    ("calypso.io", "write_trajectory", None),
    ("calypso.io", "write_trajectory_summary", None),
    ("calypso.io", "write_params", None),
    ("calypso.io", "write_eakf_summary", None),
    ("calypso.io", "write_series", None),
    ("calypso.io", "write_level_series", None),
    ("calypso.cli", "main", None),
    ("calypso.cli", "_write_json", None),
    ("calypso.cli", "_write_rows", None),
)


class Tracer:
    """Records nested spans around the ``TARGETS`` while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stages: list[str] = []
        self.notes: list[float | None] = []
        self.stage = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name: str, fn, note):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stages, notes, stack = self.parents, self.stages, self.notes, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            stages.append(self.stage)
            ends.append(0.0)
            notes.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> "Tracer":
        """Wrap every target at every calypso import site."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "calypso" or n.startswith("calypso."))]
        for module_name, attr, note in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self._wrap(f"{module_name.removeprefix('calypso.')}.{attr}", original, note)
            if path:  # a method: patching the class covers every caller
                self._patch(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- derived views ----------------------------------------------------

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def children(self) -> list[list[int]]:
        """Child span indices per span, in start order."""
        kids: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the part of its interval its children cover."""
        kids = self.children()
        out = []
        for i in range(len(self.names)):
            covered, reach = 0.0, self.starts[i]
            for c in kids[i]:
                lo, hi = max(self.starts[c], reach), self.ends[c]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.duration(i) - covered)
        return out

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "stage", "note"])
            for i in range(len(self.names)):
                note = self.notes[i]
                w.writerow([i, self.names[i], repr(self.starts[i]), repr(self.ends[i]),
                            self.parents[i], self.stages[i], "" if note is None else note])
        return path
