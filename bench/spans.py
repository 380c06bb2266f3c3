"""Spans around the calls into each qrank layer, recorded from outside the
engine by patching the layer functions' names in every qrank module.

Self time is a span's duration minus the time covered by its child spans.
Spans are kept in memory in compact columns and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions wrapped.  The private _power_test is not
# wrapped: its cost shows as hereditary.hereditary_factorization self
# time plus the numfield and arith calls beneath it.
TARGETS = {
    "cli": ("run_task",),
    "serialize": ("json_to_presentation", "rank_report_to_json", "hereditary_to_json"),
    "groups": ("validate", "qacfa_rank", "rank_in_reduct", "subgroup_degree_spectrum"),
    "hereditary": ("has_root_of_unity_root", "hereditary_factorization", "oracle_factor_counts"),
    "numfield": (
        "factor_over_K",
        "factor_over_Q",
        "squarefree_decomposition",
        "norm_poly",
        "flatten",
        "minimal_polynomial",
        "pth_root_in_field",
        "in_minus4_fourth_powers",
    ),
    "_intfactor": ("zz_factor_squarefree", "gf_factor_count", "gf_factor_squarefree", "hensel_lift"),
    "poly": ("gcd", "pow_mod"),
    "arith": ("factor_integer", "rational_nth_root"),
}


def label(module: str) -> str:
    """Metric names start with a letter: _intfactor is reported as intfactor."""
    return module.lstrip("_")


NAMES = [f"{label(m)}.{f}" for m, fs in TARGETS.items() for f in fs]


class Tracer:
    def __init__(self):
        self.task = -1
        # one row per span: task, name index, start, end, parent row (-1 at top)
        self.cols = {"task": array("i"), "name": array("h"), "start": array("d"), "end": array("d"), "parent": array("i")}
        self._open: list[list] = []  # [row, start, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.found = Counter()  # calls that returned something other than None
        self.task_calls = Counter()  # calls made by the current task
        self.ok_calls = Counter()  # calls made by tasks that ended with status ok
        self.ok_tasks = 0

    def wrap(self, name: str, fn):
        index = NAMES.index(name)
        cols, open_ = self.cols, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(cols["start"])
            cols["task"].append(self.task)
            cols["name"].append(index)
            cols["parent"].append(open_[-1][0] if open_ else -1)
            cols["end"].append(0.0)
            start = perf_counter()
            cols["start"].append(start)
            frame = [row, start, 0.0]
            open_.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                cols["end"][row] = end
                if open_:
                    open_[-1][2] += end - start
                self.calls[name] += 1
                self.task_calls[name] += 1
                self.self_s[name] += end - start - frame[2]
            if result is not None:
                self.found[name] += 1
            return result

        return traced

    def begin_task(self, task: int) -> None:
        self.task = task
        self.task_calls = Counter()

    def end_task(self, ok: bool) -> None:
        if ok:
            self.ok_tasks += 1
            self.ok_calls.update(self.task_calls)

    def write(self, path: str) -> None:
        """One JSON object per span: task id, name, start, end, parent row."""
        c = self.cols
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(c["start"])):
                span = [c["task"][i], NAMES[c["name"][i]], c["start"][i], c["end"][i], c["parent"][i]]
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> list[tuple]:
    """Replace every binding of each target function in every loaded qrank
    module (`from .numfield import factor_over_K` binds a second name).
    Returns the patches, for restore()."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "qrank" or n.startswith("qrank.")]
    patches = []
    for module, functions in TARGETS.items():
        for function in functions:
            original = getattr(sys.modules[f"qrank.{module}"], function)
            traced = tracer.wrap(f"{label(module)}.{function}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
                        patches.append((m, attr, original))
    return patches


def restore(patches: list[tuple]) -> None:
    for m, attr, original in patches:
        setattr(m, attr, original)
