#!/usr/bin/env python3
"""The calypso benchmark: one closed-loop CLI workload per run.

    python3 perfbench/run.py --workload desk-fit --seed 1 --seconds 10 --trace 0

A run builds its inputs from ``--seed`` with ``calypso synth``, sets up
several times and reports the median set-up plus the median import time
of calypso (this process and a few fresh interpreters), then repeats the
workload's pipeline of ``calypso.cli.main([...])`` stages in this one
process, each stage starting after the previous one returns, until
``--seconds`` have passed (at least one pass).  Every written file is checked after every
pass.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured
untraced.  With ``--trace 1`` untraced and traced passes alternate; the
metrics are the per-layer metrics, from the traced passes' spans, plus
the stage throughputs of the untraced passes and the tracing overhead.
Spans are written to ``.perfbench/spans/``.

BLAS is pinned to one thread and ``CALYPSO_THREADS`` is removed, so the
analyses run serially: at 240 patches unpinned BLAS measured no faster,
and pinning removes scheduler noise on a small machine.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SECONDS = 2.0   # an untraced run sets up for at least this long, and at least
MIN_SETUPS = 3        # this many times; setup_s takes the median set-up
IMPORTS = 4           # fresh interpreters that time the import of calypso, besides this one
R2_FLOOR = 0.9        # fit_state_r2 must exceed this; 40 epochs gave 0.962-0.998 on seeds 1-20
ANALYSIS_STAGES = ("policy-region", "sensitivity", "outbreak", "policy-greedy", "brute-force")


@dataclass(frozen=True)
class Workload:
    """Input shape, set-up and the timed stages of one workload."""

    patches: int
    regions: int
    weeks: int
    stages: tuple[str, ...]
    calib_epochs: int = 40
    adapter_epochs: int = 20
    eakf_size: int = 100
    setup_calib_epochs: int = 0   # > 0: set-up trains the checkpoint the stages read
    greedy_budget: int = 5
    brute_budget: int = 2
    brute_candidates: int = 10
    horizon: int = 4


# Why these three: desk-fit is the paper's desk scale, where training cost
# is per-tape-node Python overhead and the EAKF is its per-member loop;
# county-fit runs the same fit code ten times larger, where arithmetic
# dominates; county-analysis runs no tape work at all, only the simulator
# on plain arrays and the analyses, so a tape-only change must leave it
# unchanged.
WORKLOADS = {
    "desk-fit": Workload(
        patches=24, regions=4, weeks=120,
        stages=("calibrate", "adapter", "forecast", "eakf"),
        calib_epochs=40, adapter_epochs=20,
    ),
    "county-fit": Workload(
        patches=240, regions=40, weeks=120,
        stages=("calibrate", "adapter", "eakf"),
        calib_epochs=40, adapter_epochs=10,
    ),
    "county-analysis": Workload(
        patches=240, regions=40, weeks=120,
        stages=ANALYSIS_STAGES,
        setup_calib_epochs=40,   # as county-fit trains; 30 epochs can fit below R^2 0.91
    ),
}


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, label: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")
            print(f"check failed: {label}: {reason}", file=sys.stderr)
        return reason is None


@dataclass
class Pass:
    traced: bool
    stage_s: dict[str, float]
    ref_s: list[float]   # reference-loop times, before the first stage and after each stage

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def wall_ref(self) -> float:
        """Pass wall time in units of the pass's median reference-loop time."""
        return self.wall_s / statistics.median(self.ref_s)


class Reference:
    """A fixed loop of simulator-like numpy work that never touches calypso.

    The machine this benchmark was written on drifts in speed by tens of
    percent over seconds to minutes, as other tenants come and go.  Timing
    this loop between stages measures the machine's speed during the pass,
    so the pass can also be reported in units of the loop
    (``pipeline_ref``): a change to calypso moves it, a change of machine
    speed moves it much less than it moves ``pipeline_s``.
    """

    # About 0.2 s a sample: with a quarter of that, the samples caught the
    # machine's sub-second swings and pipeline_ref spread half as wide again.
    def __init__(self, n: int = 240, steps: int = 6000):
        import numpy as np

        rng = np.random.default_rng(0)
        theta = rng.random((n, n))
        self.theta = theta / theta.sum(axis=1, keepdims=True)
        self.theta_t = self.theta.T.copy()
        self.pop = rng.uniform(2e3, 2e4, n)
        self.n_eff = self.theta_t @ self.pop
        self.beta = rng.uniform(0.4, 0.6, n)
        self.init = 0.01 * self.pop
        self.np, self.steps = np, steps

    def sample(self) -> float:
        """Seconds one run of the loop takes now."""
        np = self.np
        t0 = time.perf_counter()
        s, i, r = self.pop - self.init, self.init.copy(), np.zeros_like(self.pop)
        for _ in range(self.steps):
            lam = self.theta @ (self.beta * (self.theta_t @ i) / self.n_eff)
            new = np.minimum(s, lam * s)
            s, i, r = s - new + 0.1 * r, new + 0.7 * i, 0.3 * i + 0.9 * r
        return time.perf_counter() - t0


class Runner:
    """Drives one workload in one process and collects its numbers."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from calypso import cli

        self.cli = cli
        self.w, self.seed = workload, seed
        self.work = work
        self.data = work / "data"
        self.tally = Checks()
        self.reference = Reference()
        self.r2: list[float] = []
        self.tracer = None

    # -- one CLI stage ------------------------------------------------------

    def stage(self, stage_id: str, argv: list[str]) -> float:
        if self.tracer is not None:
            self.tracer.stage = stage_id
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing stage is a failed check, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        elapsed = time.perf_counter() - t0
        self.tally.add(f"{stage_id} exit", None if code == 0 else f"exit code {code}")
        return elapsed

    def _fit_check(self, stage_id: str, checkpoint: Path) -> None:
        try:
            r2, reason = checks.fit_r2(checkpoint, R2_FLOOR)
        except (OSError, KeyError, ValueError) as exc:
            r2, reason = 0.0, f"unreadable checkpoint: {exc}"
        if self.tally.add(f"{stage_id} fit_state_r2", reason):
            self.r2.append(r2)

    def _finite(self, stage_id: str, out: Path) -> None:
        self.tally.add(f"{stage_id} finite", _guard(checks.finite_outputs, out))

    # -- set-up ---------------------------------------------------------------

    def setup(self, stage_prefix: str) -> float:
        w, seed = self.w, str(self.seed)
        total = self.stage(f"{stage_prefix}:synth", [
            "synth", "--seed", seed, "--patches", str(w.patches), "--regions", str(w.regions),
            "--weeks", str(w.weeks), "--horizon", str(w.horizon), "--out", str(self.data)])
        if w.setup_calib_epochs:
            total += self.stage(f"{stage_prefix}:calibrate", [
                "calibrate", "--data", str(self.data), "--seed", seed,
                "--epochs", str(w.setup_calib_epochs), "--out", str(self.work / "setup-fit")])
        return total

    def check_setup(self) -> None:
        self._finite("setup:synth", self.data)
        self.pops = checks.populations(self.data)
        self.candidates = checks.candidates(self.data)
        with open(self.data / "patches.csv", encoding="utf-8") as fh:
            self.region = fh.readlines()[1].split(",")[1]
        if self.w.setup_calib_epochs:
            fit = self.work / "setup-fit"
            self._finite("setup:calibrate", fit)
            self._fit_check("setup:calibrate", fit / "checkpoint.json")

    # -- one pass of the timed stages ---------------------------------------

    def checkpoint(self, out: Path) -> Path:
        if self.w.setup_calib_epochs:
            return self.work / "setup-fit" / "checkpoint.json"
        return out / "calibrate" / "checkpoint.json"

    def argv(self, kind: str, out: Path) -> list[str]:
        w = self.w
        common = ["--data", str(self.data), "--seed", str(self.seed), "--out", str(out / kind)]
        ckpt = ["--checkpoint", str(self.checkpoint(out))]
        return {
            "calibrate": ["calibrate", *common, "--epochs", str(w.calib_epochs)],
            "adapter": ["adapter", *common, *ckpt, "--epochs", str(w.adapter_epochs)],
            "forecast": ["forecast", *common, *ckpt, "--adapter", str(out / "adapter" / "adapter.json")],
            "eakf": ["eakf", *common, "--size", str(w.eakf_size)],
            "policy-region": ["policy-region", *common, *ckpt, "--region", self.region],
            "sensitivity": ["sensitivity", *common, *ckpt],
            "outbreak": ["outbreak", *common, *ckpt],
            "policy-greedy": ["policy-greedy", *common, *ckpt, "--budget", str(w.greedy_budget)],
            "brute-force": ["policy-greedy", *common, *ckpt, "--brute-force",
                            "--budget", str(w.brute_budget),
                            "--candidates", ",".join(self.candidates[: w.brute_candidates])],
        }[kind]

    def evaluations(self, kind: str) -> int:
        """Scenarios one analysis stage scores: the count each check holds it to."""
        w, n_brute = self.w, min(self.w.brute_candidates, len(self.candidates))
        return {
            "policy-region": 1,
            "sensitivity": self.w.regions,
            "outbreak": w.patches,
            "policy-greedy": checks.greedy_evaluations(len(self.candidates), w.greedy_budget),
            "brute-force": math.comb(n_brute, w.brute_budget),
        }[kind]

    def scenarios(self) -> int:
        """Scenarios one pass scores over all its analysis stages."""
        return sum(self.evaluations(k) for k in self.w.stages if k in ANALYSIS_STAGES)

    def run_pass(self, pass_id: str, traced: bool) -> Pass:
        out = self.work / pass_id
        stage_s, ref_s = {}, [self.reference.sample()]
        for kind in self.w.stages:
            stage_s[kind] = self.stage(f"{pass_id}:{kind}", self.argv(kind, out))
            ref_s.append(self.reference.sample())
        self.check_pass(pass_id, out)
        shutil.rmtree(out, ignore_errors=True)
        return Pass(traced, stage_s, ref_s)

    def check_pass(self, pass_id: str, out: Path) -> None:
        for kind in self.w.stages:
            label = f"{pass_id}:{kind}"
            self._finite(label, out / kind)
            if kind == "calibrate":
                self._fit_check(label, out / kind / "checkpoint.json")
            if kind in ("forecast", "eakf"):
                traj = out / kind / f"{kind}_trajectory.csv"
                self.tally.add(f"{label} conservation", _guard(checks.conservation, traj, self.pops))
            if kind in ("policy-greedy", "brute-force"):
                self.tally.add(f"{label} evaluations", _guard(
                    checks.evaluations, out / kind / "policy_greedy.json", self.evaluations(kind)))
            if kind == "outbreak":
                rows = _guard(lambda p: len(p.read_text(encoding="utf-8").splitlines()) - 1,
                              out / kind / "outbreak_ranking.csv")
                self.tally.add(f"{label} evaluations", None if rows == self.evaluations(kind)
                                else f"{rows} ranked sources, expected {self.evaluations(kind)}")


def _guard(fn, *args):
    """Run a check; an unreadable or missing output is its failure reason."""
    try:
        return fn(*args)
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable output: {exc!r}"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def stage_metrics(runner: Runner, passes: list[Pass]) -> dict[str, float]:
    """Throughputs of the untraced passes, each the median over passes."""
    w = runner.w
    untraced = [p for p in passes if not p.traced]

    def rate(work: float, kinds) -> float:
        kinds = [k for k in kinds if k in w.stages]
        if not kinds:
            return 0.0
        return _median(work / sum(p.stage_s[k] for k in kinds) for p in untraced)

    scenarios = runner.scenarios()
    return {
        "pipeline_s": _median(p.wall_s for p in untraced),
        "pipeline_ref": _median(p.wall_ref for p in untraced),
        "reference_ms": 1e3 * _median(r for p in untraced for r in p.ref_s),
        "calibrate_epochs_per_s": rate(w.calib_epochs, ["calibrate"]),
        "adapter_epochs_per_s": rate(w.adapter_epochs, ["adapter"]),
        "eakf_member_weeks_per_s": rate(w.eakf_size * w.weeks, ["eakf"]),
        "scenarios_per_s": rate(scenarios, ANALYSIS_STAGES),
    }


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        spans_dir: Path | None = None, import_s: float = 0.0) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(name, workload, seed, seconds, trace, work, spans_dir, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, workload, seed, seconds, trace, work, spans_dir, import_s) -> dict:
    runner = Runner(workload, seed, work)
    tracer = Tracer() if trace else None

    setup_s = []
    setup_end = time.perf_counter() + SETUP_SECONDS
    while True:
        if tracer is not None:
            runner.tracer = tracer.install()
        try:
            setup_s.append(runner.setup(f"setup{len(setup_s)}"))
        finally:
            if tracer is not None:
                tracer.uninstall()
                runner.tracer = None
        if trace or (len(setup_s) >= MIN_SETUPS and time.perf_counter() >= setup_end):
            break
    runner.check_setup()

    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            runner.tracer = tracer.install()
        try:
            passes.append(runner.run_pass(f"p{len(passes)}", traced))
        finally:
            if traced:
                tracer.uninstall()
                runner.tracer = None
        if time.perf_counter() >= deadline and len(passes) >= (2 if trace else 1):
            break

    found = stage_metrics(runner, passes)
    failed = len(runner.tally.failures)
    attempted = runner.tally.attempted
    if trace:
        self_times = tracer.self_times()
        per_pass = [layers.pass_metrics(tracer, self_times, {f"p{i}:{k}" for k in workload.stages})
                    for i, p in enumerate(passes) if p.traced]
        for key in per_pass[0]:
            found[key] = _median(m[key] for m in per_pass)
        found.update(layers.setup_metrics(tracer, {s for s in tracer.stages if s.startswith("setup")}))
        found["trace.overhead_s"] = (_median(p.wall_s for p in passes if p.traced)
                                     - _median(p.wall_s for p in passes if not p.traced))
        found["failure_ratio"] = failed / attempted
        if spans_dir is not None:
            path = tracer.write(spans_dir / f"{name}-seed{seed}.csv")
            print(f"spans: {len(tracer)} written to {path}", file=sys.stderr)
    else:
        found["setup_s"] = import_s + _median(setup_s)
        found["fit_state_r2"] = _median(runner.r2)
        found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found["success_ratio"] = 1.0 - failed / attempted
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "found": found, "passes": passes, "scenarios": runner.scenarios()}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(name: str, result: dict, trace: bool, spec: dict) -> dict:
    """Print every measured number, then build the JSON result line."""
    found = result["found"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {name}: {len(result['passes'])} pass(es), {result['attempted']} checks, "
          f"{result['failed']} failed")
    for i, p in enumerate(result["passes"]):
        stages = " ".join(f"{k}={v:.3f}" for k, v in p.stage_s.items())
        print(f"# p{i} {'traced' if p.traced else 'untraced'} {p.wall_s:.3f} s "
              f"({p.wall_ref:.1f} ref): {stages}")
    for key in sorted(found):
        print(f"{name}  {key:44s} {found[key]:.6g} {units.get(key, '')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def prepare() -> bool:
    """Pin BLAS to one thread, unset CALYPSO_THREADS and import calypso from ``src/``.

    Must run before anything imports numpy.  False when the sources are absent.
    """
    if not (SRC / "calypso" / "__init__.py").is_file():
        print(f"perfbench: no calypso sources under {SRC}", file=sys.stderr)
        return False
    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.environ.pop("CALYPSO_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import calypso.cli  # noqa: F401  (import cost counts toward setup_s)

    return True


def fresh_imports(n: int) -> list[float]:
    """Seconds ``import calypso.cli`` takes in each of ``n`` fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import calypso.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(n)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    import_s = time.perf_counter() - _PROCESS_T0
    if not args.trace:
        import_s = _median([import_s, *fresh_imports(IMPORTS)])
    spec = load_spec()
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), spans_dir=WORK / "spans", import_s=import_s)
    line = report(args.workload, result, bool(args.trace), spec)
    print(json.dumps(line, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
