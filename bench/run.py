"""rotbell benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ghz_scan --seed 1 --seconds 20 --trace 0

Run from any directory inside a checkout that has ``src/rotbell``; rotbell
is imported from there, not from an installed copy.  With ``--trace 0``
the run measures the end-to-end metrics for about ``--seconds`` seconds;
with ``--trace 1`` it runs a fixed number of rounds under the span tracer,
replays them untraced, and reports per-layer metrics.  Human-readable
lines start with ``#``; the last line of stdout is the JSON result.  Full
results (and the spans, when traced) are written under ``.bench_out/``.

End-to-end metrics (``--trace 0``), for every workload:

* ``items_per_s``: items per second at the run's mix, each kind of item
  costed at its median time per item in the run.  An item is a scan point
  (ghz_scan), a state verdict (measured_states), a random-ensemble trial
  (stress) or a CLI command (cli).  The ascent's cost on random tensors
  is heavy-tailed, so a plain total over a few dozen states would follow
  the seed more than the code; the plain totals are in the summary.
* ``item_p50_ms``: median over the run's rounds of the round's time per
  item.  A round mixes kinds of item that differ several-fold in cost, so
  a median over single items would sit on the edge between two kinds.
* ``setup_s``: median of several fresh-interpreter set-ups: import rotbell,
  generate the inputs, run one untimed warm-up item.  For cli, the cold
  ``import rotbell`` in a subprocess.
* ``peak_rss_mb``: peak RSS of this process; for cli, of the largest child.

Failures are reported as ``failed`` out of ``attempted``; ``failed_frac``
and the workload-specific figures (scan_points_per_s, verdicts_per_s,
verdict_p50_ms, trials_per_s, cli_cmd_p50_ms, cli_seq_s) are printed in
the ``#`` summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CPUS = len(os.sched_getaffinity(0))

SETUP_PROBES = 5
# Traced runs do a fixed number of rounds, so counts repeat exactly; this is
# each workload's round length on a 2-core x86 box, used only to size them.
NOMINAL_ROUND_S = {"ghz_scan": 2.4, "measured_states": 2.2, "stress": 4.0, "cli": 2.0}

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Units of the workload-specific figures printed in the summary.
SUMMARY_UNITS = {
    "scan_points_per_s": "1/s", "verdicts_per_s": "1/s", "verdict_p50_ms": "ms",
    "trials_per_s": "1/s", "cli_cmd_p50_ms": "ms", "cli_seq_s": "s",
    "failed_frac": "ratio", "per_kind_p50_ms": "ms",
}


def per_layer_spec() -> list[tuple[str, str]]:
    from spans import LAYERS, traced_names

    spec = []
    for name in traced_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.total_s", "s")]
    spec += [(f"{mod}.self_s", "s") for mod in LAYERS]
    spec += [
        ("tensor_analysis.t_max.sweeps", "count"),
        ("tensor_analysis.t_max.starts", "count"),
        ("tensor_analysis.t_max.certified_frac", "ratio"),
        ("tensor_analysis.t_max.converged_frac", "ratio"),
        ("lhv.verify_bound.trials", "count"),
        ("correlation.tensor_from_state.entries", "count"),
        ("cli.subprocess_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.absent_functions", "count"),
    ]
    return spec


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= CPUS):
            os.environ[var] = str(CPUS)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--plant-fault", action="store_true",
                   help="expect a wrong GHZ T_max, so every oracle on it must fail (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_rotbell():
    """Import rotbell from this checkout's src/; exit with an error if it is not there."""
    src = ROOT / "src"
    if not (src / "rotbell" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'rotbell'} not found; run inside a rotbell checkout")
    sys.path.insert(0, str(src))
    import rotbell

    if src not in Path(rotbell.__file__).resolve().parents:
        sys.exit(f"error: rotbell imported from {rotbell.__file__}, not from {src}")
    return rotbell


def make_workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.tiny, 1e-6 if args.plant_fault else 0.0, ROOT)


def setup_seconds(args, workload) -> list[float]:
    """Wall time of fresh-interpreter set-ups, each in its own process."""
    if args.workload == "cli":
        cmd, env = [sys.executable, "-c", "import rotbell"], workload.env
    else:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        cmd += ["--tiny"] if args.tiny else []
        env = None
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        workload.judge(f"setup probe {i}", [f"exit {proc.returncode}"] if proc.returncode else [])
    return times


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def metadata(rotbell) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rotbell": rotbell.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": CPUS,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def run_untraced(workload, seconds: float):
    samples, r = [], 0
    t0 = time.perf_counter()
    while True:
        samples += workload.run_round(r)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return samples


def run_traced(workload, seconds: float, nominal: float):
    """Fixed rounds under the tracer, then the same rounds untraced."""
    from spans import Tracer

    rounds = max(1, math.ceil(seconds / 2 / nominal))
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        samples = [s for r in range(rounds) for s in workload.run_round(r)]
    finally:
        tracer.uninstall()
        workload.tracer = None
    untraced = sum(workload.replay_round(r) for r in range(rounds))
    return tracer, samples, untraced


def end_to_end(workload, samples, setup) -> tuple[dict, dict]:
    timed = [s for s in samples if s.items > 0]
    items = sum(s.items for s in timed)
    item_ms = [1e3 * s.seconds / s.items for s in timed]
    kinds: dict[str, list[float]] = {}
    for s, ms in zip(timed, item_ms):
        kinds.setdefault(s.kind, []).append(ms)
    kind_ms = {k: statistics.median(v) for k, v in kinds.items()}
    median_costed_s = sum(s.items * kind_ms[s.kind] for s in timed) / 1e3
    per_round: dict[int, list] = {}
    for s in timed:
        per_round.setdefault(s.round, []).append(s)
    round_ms = [1e3 * sum(s.seconds for s in ss) / sum(s.items for s in ss) for ss in per_round.values()]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "items_per_s": items / median_costed_s,
        "item_p50_ms": statistics.median(round_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    plain_per_s = items / sum(s.seconds for s in timed)
    named = {"rounds": len(per_round), "items": items}
    name = workload.name
    if name == "ghz_scan":
        named["scan_points_per_s"] = plain_per_s
    elif name == "measured_states":
        named["verdicts_per_s"] = plain_per_s
        named["verdict_p50_ms"] = statistics.median(item_ms)
    elif name == "stress":
        named["trials_per_s"] = plain_per_s
    else:
        named["cli_cmd_p50_ms"] = statistics.median(item_ms)
        named["cli_seq_s"] = statistics.median(sum(s.seconds for s in ss) for ss in per_round.values())
    named["per_kind_p50_ms"] = kind_ms
    return metrics, named


def layer_metrics(tracer, samples, untraced: float) -> dict:
    m = tracer.layer_metrics()
    c = tracer.counters
    calls = m["tensor_analysis.t_max.calls"]
    m["tensor_analysis.t_max.sweeps"] = int(c["tensor_analysis.t_max.sweeps"])
    m["tensor_analysis.t_max.starts"] = int(c["tensor_analysis.t_max.starts"])
    m["tensor_analysis.t_max.certified_frac"] = c["tensor_analysis.t_max.certified"] / calls if calls else 0.0
    m["tensor_analysis.t_max.converged_frac"] = c["tensor_analysis.t_max.converged"] / calls if calls else 0.0
    m["lhv.verify_bound.trials"] = int(c["lhv.verify_bound.trials"])
    m["correlation.tensor_from_state.entries"] = int(c["correlation.tensor_from_state.entries"])
    outside = sum(s.seconds for s in samples if not s.inprocess)
    m["cli.subprocess_s"] = outside - untraced if outside else 0.0
    traced = sum(s.seconds for s in samples if s.inprocess)
    m["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    m["trace.absent_functions"] = len(tracer.absent)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    rotbell = import_rotbell()
    workload = make_workload(args)
    try:
        if args.setup_probe:
            workload.warmup()
            return 0
        return measure(args, rotbell, workload)
    finally:
        workload.close()


def measure(args, rotbell, workload) -> int:
    meta = metadata(rotbell)
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
    setup = setup_seconds(args, workload) if not args.trace else []
    workload.warmup()
    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer, samples, untraced = run_traced(workload, args.seconds, NOMINAL_ROUND_S[args.workload])
        metrics = layer_metrics(tracer, samples, untraced)
        tracer.write(out_dir / f"{stem}.spans.npz")
        spec, named = per_layer_spec(), {"absent": tracer.absent}
    else:
        samples = run_untraced(workload, args.seconds)
        spec = END_TO_END
        metrics, named = end_to_end(workload, samples, setup)
    workload.recheck()
    named["attempted"], named["failed"] = workload.attempted, workload.failed
    named["failed_frac"] = workload.failed / workload.attempted

    if not args.trace:
        named.update({name: metrics[name] for name, _ in END_TO_END})
    units = dict(SUMMARY_UNITS, **dict(END_TO_END))
    for key, value in named.items():
        print(f"# {args.workload} {key} = {value} {units.get(key, '')}".rstrip())
    for problem in workload.problems:
        print(f"# FAILED {problem}")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "args": vars(args), "summary": named, "problems": workload.problems,
         "setup_samples_s": setup, "result": result,
         "samples": [[s.kind, s.round, s.items, s.seconds] for s in samples]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
