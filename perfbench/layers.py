"""Per-layer metrics derived from the spans of one traced pipeline pass.

Every metric is computed where the work happens: a count is read from
the spans or their notes, a time is a sum of span durations or self times
over the pass.  A layer the pass does not exercise reports 0.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

IO_READ = {
    "io.load_graph", "io.load_dataset", "io.load_ground_truth_params", "io.read_series",
    "calib.load_checkpoint", "adapter.load_checkpoint",
}
IO_WRITE = {
    "io.write_inputs", "io.write_ground_truth", "io.write_trajectory",
    "io.write_trajectory_summary", "io.write_params", "io.write_eakf_summary",
    "io.write_series", "io.write_level_series", "calib.save_checkpoint",
    "adapter.save_checkpoint", "cli._write_json", "cli._write_rows",
}
ANALYSES = {
    "greedy": "analysis.unit_greedy",
    "brute_force": "analysis.brute_force_allocation",
    "outbreak": "analysis.outbreak_ranking",
    "sensitivity": "analysis.sensitivity_scan",
    "region": "analysis.regional_beta_reduction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tr: Tracer, self_times: list[float], stages: set[str]) -> dict[str, float]:
    """Per-layer metrics over the spans whose stage id is in ``stages``."""
    by_name: dict[str, list[int]] = {}
    for i, stage in enumerate(tr.stages):
        if stage in stages:
            by_name.setdefault(tr.names[i], []).append(i)

    def spans(name: str, parent: str | None = None) -> list[int]:
        found = by_name.get(name, [])
        if parent is None:
            return found
        return [i for i in found if tr.parents[i] >= 0 and tr.names[tr.parents[i]] == parent]

    def busy(idx) -> float:
        return sum(tr.duration(i) for i in idx)

    def own(idx) -> float:
        return sum(self_times[i] for i in idx)

    def noted(idx) -> float:
        return sum(tr.notes[i] for i in idx)

    m: dict[str, float] = {}
    for label, trainer in (("calib", "calib.train_joint"), ("adapter", "adapter.train_adapter")):
        backward = spans("autodiff.Tape.backward", trainer)
        epochs = len(backward)
        # the adapter's node count moves by a few with the teacher-forcing draw
        m[f"autodiff.tape_nodes_per_epoch.{label}"] = (
            statistics.median(tr.notes[i] for i in backward) if backward else 0)
        m[f"autodiff.backward_ms_per_epoch.{label}"] = 1e3 * _ratio(busy(backward), epochs)
        m[f"{label}.record_ms_per_epoch"] = 1e3 * _ratio(own(spans(trainer)), epochs)
        if label == "calib":
            m["autodiff.backward_us_per_node.calib"] = 1e6 * _ratio(busy(backward), noted(backward))
            m["calib.sim_record_ms_per_epoch"] = 1e3 * _ratio(
                busy(spans("sim.sirs_step", trainer)), epochs)
    infer = spans("calib.infer_params")
    m["calib.infer_params_ms"] = 1e3 * _ratio(busy(infer), len(infer))
    refine = spans("adapter.refine")
    m["adapter.refine_ms"] = 1e3 * _ratio(busy(refine), len(refine))

    taped = set(spans("sim.sirs_step", "calib.train_joint"))
    plain = [i for i in spans("sim.sirs_step") if i not in taped]
    m["sim.sirs_step_calls"] = len(plain)
    m["sim.sirs_step_us"] = 1e6 * _ratio(busy(plain), len(plain))
    sims = spans("sim.simulate")
    m["sim.simulate_calls"] = len(sims)
    m["sim.simulate_ms"] = 1e3 * _ratio(busy(sims), len(sims))

    weeks = len(spans("eakf.eakf_step", "eakf.run_eakf"))
    propagate = spans("sim.sirs_step", "eakf.run_eakf")
    m["eakf.propagate_ms_per_week"] = 1e3 * _ratio(busy(propagate), weeks)
    m["eakf.sirs_step_calls_per_week"] = _ratio(len(propagate), weeks)
    m["eakf.assimilate_ms_per_week"] = 1e3 * _ratio(busy(spans("eakf.eakf_step", "eakf.run_eakf")), weeks)
    fc = spans("eakf.EakfResult.forecast")
    m["eakf.forecast_ms"] = 1e3 * _ratio(busy(fc), len(fc))

    evaluations = simulations = 0
    for label, name in ANALYSES.items():
        calls = spans(name)
        n = noted(calls)
        evaluations += n
        simulations += len(spans("analysis.FittedModel.run", name))
        if label != "region":
            m[f"analysis.ms_per_evaluation.{label}"] = 1e3 * _ratio(busy(calls), n)
    m["analysis.evaluations"] = evaluations
    m["analysis.simulations"] = simulations
    m["analysis.evaluations_per_simulation"] = _ratio(evaluations, simulations)

    io_names = IO_READ | IO_WRITE
    for key, names in (("io.read_s", IO_READ), ("io.write_s", IO_WRITE)):
        top = [i for n in names for i in spans(n)
               if tr.parents[i] < 0 or tr.names[tr.parents[i]] not in io_names]
        m[key] = busy(top)
    m["cli.self_s"] = own(spans("cli.main"))
    return m


def setup_metrics(tr: Tracer, stages: set[str]) -> dict[str, float]:
    gen = [i for i, (n, s) in enumerate(zip(tr.names, tr.stages)) if s in stages and n == "synth.generate"]
    return {"synth.generate_s": sum(tr.duration(i) for i in gen)}
