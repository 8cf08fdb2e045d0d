"""Instrumentation put around the program from outside.

The probe replaces public gipip functions by wrappers, in every gipip module
that holds a reference to them, and leaves the source untouched.  An
untraced run wraps only `run_attack`, `adam_step` and `lbfgs_step`, to find
where inversions start and to count optimizer steps (the program does not
report how many steps a stalled `dlg` inversion ran).  A traced run also
records a span around each call into the layers below, keeps the spans in
memory and derives per-layer metrics from them at the end.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# layer boundaries of a traced run: module attribute -> span name
TRACED = {
    "gipip.cli.main": "cli.main",
    "gipip.config.load_config": "config.load",
    "gipip.data.load_cifar10": "data.load",
    "gipip.data.save_image": "data.image_write",
    "gipip.flsim.simulate_round": "flsim.round",
    "gipip.flsim.model_fingerprint": "flsim.fingerprint",
    "gipip.nn.forward_classifier": "nn.classifier_forward",
    "gipip.nn.forward_autoencoder": "nn.autoencoder_forward",
    "gipip.losses.total_objective": "losses.objective",
    "gipip.losses.classifier_gradient": "losses.classifier_gradient",
    "gipip.losses.gradient_matching": "losses.matching",
    "gipip.losses.tv_loss": "losses.tv",
    "gipip.losses.as_loss": "losses.as",
    "gipip.metrics.evaluate_batch": "metrics.score",
    "gipip.metrics.optimal_assignment": "metrics.assignment",
}


@dataclass
class Inversion:
    """One call of run_attack, as seen from outside."""

    steps: int = 0
    stalled: bool = False           # an lbfgs_step returned stalled=True
    nids: list = field(default_factory=list)   # node id at each step (traced runs)


@dataclass
class Round:
    """One `gipip attack` call: its output, exit code and inversion phase."""

    out_dir: Path
    exit_code: int
    first_attack: float             # perf_counter when its first inversion started
    end: float                      # perf_counter when the call returned
    inversions: list
    spans: range                    # indices of its spans (traced runs)

    @property
    def steps(self) -> int:
        return sum(i.steps for i in self.inversions)

    @property
    def iters_per_s(self) -> float:
        return self.steps / (self.end - self.first_attack) if self.steps else 0.0


def rss_mb() -> float:
    """Current resident set size of this process, from /proc."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.inversions: list[Inversion] = []
        self.attack_depth = 0
        self.first_attack: float | None = None
        self.round_first: float | None = None
        self.rss_after_setup_mb = 0.0
        self.gc_ms = 0.0
        self._gc_start = 0.0
        self.prior_image_epochs = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        self._replace("gipip.attack.run_attack", self._wrap_attack)
        self._replace("gipip.attack.adam_step", self._wrap_step)
        self._replace("gipip.attack.lbfgs_step", self._wrap_step)
        if not self.trace:
            return
        from gipip.tensor import constant
        self._constant = constant
        for path, name in TRACED.items():
            self._replace(path, lambda fn, name=name: self._span(name, fn))
        self._replace("gipip.tensor.grad", self._wrap_grad)
        self._replace("gipip.prior.train_autoencoder", self._wrap_prior)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _replace(self, path: str, make_wrapper) -> None:
        """Swap a function for its wrapper wherever a gipip module names it."""
        module_name, attr = path.rsplit(".", 1)
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make_wrapper(original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "gipip":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    def _wrap_grad(self, fn):
        inner = self._span("tensor.inner_backward", fn)
        outer = self._span("tensor.outer_backward", fn)

        def grad(*args, **kwargs):
            create_graph = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
            return (inner if create_graph else outer)(*args, **kwargs)
        return grad

    def _wrap_prior(self, fn):
        traced = self._span("prior.train", fn)

        def train_autoencoder(aux_images, config, *args, **kwargs):
            self.prior_image_epochs += len(aux_images) * config.epochs
            return traced(aux_images, config, *args, **kwargs)
        return train_autoencoder

    def _on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self.attack_depth:
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1e3

    # -- inversions and steps ---------------------------------------------

    def _wrap_attack(self, fn):
        traced = self._span("attack.run_attack", fn) if self.trace else fn

        def run_attack(*args, **kwargs):
            now = time.perf_counter()
            if self.first_attack is None:
                self.first_attack = now
                self.rss_after_setup_mb = rss_mb()
            if self.round_first is None:
                self.round_first = now
            self.inversions.append(Inversion())
            self.attack_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self.attack_depth -= 1
        return run_attack

    def _wrap_step(self, fn):
        lbfgs = fn.__name__ == "lbfgs_step"
        traced = self._span(f"attack.{fn.__name__}", fn) if self.trace else fn

        def step(*args, **kwargs):
            if not self.attack_depth:   # prior training runs adam_step too
                return fn(*args, **kwargs)
            inv = self.inversions[-1]
            if self.trace:
                inv.nids.append(self._constant(0.0).nid)
            out = traced(*args, **kwargs)
            inv.steps += 1
            if lbfgs and out[4]:
                inv.stalled = True
            return out
        return step

    # -- rounds -----------------------------------------------------------

    def run_round(self, call, out_dir) -> Round:
        """Run one `gipip attack` call and return what the probe saw of it."""
        self.inversions = []
        self.round_first = None
        lo = len(self.spans)
        exit_code = call()
        end = time.perf_counter()
        return Round(out_dir, exit_code, self.round_first or end, end,
                     self.inversions, range(lo, len(self.spans)))

    # -- per-layer metrics ------------------------------------------------

    def span_cost_s(self, n: int = 20000) -> float:
        """Cost of one span, from wrapping a no-op function."""
        def noop():
            return None
        wrapped = self._span("calibration", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        del self.spans[-n:]
        return max(0.0, (t2 - t1) - (t1 - t0)) / n

    def layer_metrics(self, rounds: list[Round]) -> dict[str, float]:
        """Per-layer metrics of a traced run.

        Per-iteration figures cover the inversion phases of all rounds;
        set-up figures come from the first, cold round.
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        in_attack = [False] * n
        in_lbfgs = [False] * n
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_attack[i] = in_attack[parent]
                in_lbfgs[i] = in_lbfgs[parent]
            in_attack[i] = in_attack[i] or name == "attack.run_attack"
            in_lbfgs[i] = in_lbfgs[i] or name == "attack.lbfgs_step"

        def totals(idx):
            incl, own, count = {}, {}, {}
            for i in idx:
                name, start, end, _ = spans[i]
                incl[name] = incl.get(name, 0.0) + end - start
                own[name] = own.get(name, 0.0) + end - start - child[i]
                count[name] = count.get(name, 0) + 1
            return incl, own, count

        attack_spans = [i for i in range(n) if in_attack[i]]
        incl, own, count = totals(attack_spans)
        all_incl, all_own, all_count = totals(range(n))
        cold_incl, _, _ = totals(rounds[0].spans)
        inversions = [inv for r in rounds for inv in r.inversions]
        iters = max(1, sum(r.steps for r in rounds))
        phase_s = sum(r.end - r.first_attack for r in rounds)
        lbfgs_accepted = sum(inv.steps - inv.stalled for inv in inversions)
        lbfgs_evals = sum(1 for i in attack_spans
                          if in_lbfgs[i] and spans[i][0] == "losses.objective")
        node_steps = [b - a - 1 for inv in inversions for a, b in zip(inv.nids, inv.nids[1:])]
        prior_s = cold_incl.get("prior.train", 0.0)

        def per_iter_ms(table, name):
            return table.get(name, 0.0) * 1e3 / iters

        def per_call_ms(name):
            return all_incl.get(name, 0.0) * 1e3 / all_count[name] if all_count.get(name) else 0.0

        return {
            "tensor.nodes_per_iter": statistics.median(node_steps) if node_steps else 0.0,
            "tensor.inner_backward_ms": per_iter_ms(incl, "tensor.inner_backward"),
            "tensor.outer_backward_ms": per_iter_ms(incl, "tensor.outer_backward"),
            "tensor.gc_ms_per_iter": self.gc_ms / iters,
            "nn.classifier_forward_ms": per_iter_ms(incl, "nn.classifier_forward"),
            "nn.autoencoder_forward_ms": per_iter_ms(incl, "nn.autoencoder_forward"),
            "losses.objective_self_ms": per_iter_ms(own, "losses.objective"),
            "losses.matching_ms": per_iter_ms(incl, "losses.matching"),
            "losses.tv_ms": per_iter_ms(incl, "losses.tv"),
            "losses.as_ms": per_iter_ms(incl, "losses.as"),
            "losses.objective_calls_per_iter": count.get("losses.objective", 0) / iters,
            "attack.adam_step_ms": per_iter_ms(incl, "attack.adam_step"),
            "attack.lbfgs_self_ms": per_iter_ms(own, "attack.lbfgs_step"),
            "attack.evals_per_lbfgs_step": lbfgs_evals / lbfgs_accepted if lbfgs_accepted else 0.0,
            "attack.self_ms_per_iter": per_iter_ms(own, "attack.run_attack"),
            "prior.train_s": prior_s,
            "prior.ms_per_image_epoch": (prior_s * 1e3 / self.prior_image_epochs
                                         if self.prior_image_epochs else 0.0),
            "flsim.round_ms": cold_incl.get("flsim.round", 0.0) * 1e3,
            "flsim.fingerprint_ms": per_call_ms("flsim.fingerprint"),
            "metrics.score_ms_per_batch": per_call_ms("metrics.score"),
            "metrics.assignment_ms": per_call_ms("metrics.assignment"),
            "data.load_ms": cold_incl.get("data.load", 0.0) * 1e3,
            "data.image_write_ms": all_incl.get("data.image_write", 0.0) * 1e3 / len(inversions),
            "config.load_ms": cold_incl.get("config.load", 0.0) * 1e3,
            "cli.self_s": all_own.get("cli.main", 0.0) / len(rounds),
            "rss_after_setup_mb": self.rss_after_setup_mb,
            "trace.iters_per_s": statistics.median(r.iters_per_s for r in rounds),
            "trace.overhead_pct": 100.0 * len(attack_spans) * self.span_cost_s() / phase_s,
        }
