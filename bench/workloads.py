"""The four benchmark workloads.

Every workload is closed-loop and single-process: it runs rounds, one
after the other, each round a fixed mix of items whose inputs come from
``(seed, workload, round)`` alone.  An item is the unit a user waits for:
a scan point, a state verdict, a random-ensemble trial or a CLI command.
Each item is checked against an independent oracle (``oracles.py``) after
its timer stops; an item that raises or fails its oracle counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as oc
import rotbell as rb
import rotbell.cli


@dataclass
class Sample:
    """One timed call: ``items`` items of one kind in ``seconds``."""

    kind: str
    seconds: float
    items: int
    round: int
    inprocess: bool = True


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, fault: float, root: Path):
        self.seed = seed
        self.tiny = tiny
        # Added to every known GHZ T_max the oracles expect; nonzero only
        # in the self-test, which checks that a wrong expectation is caught.
        self.fault = fault
        self.root = root
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._recheck: dict[str, tuple[np.ndarray, float]] = {}

    def rng(self, round_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, sum(map(ord, self.name)), round_index])

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def judge(self, label: str, problems: list[str], items: int = 1) -> None:
        self.attempted += items
        if problems:
            self.failed += items
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def guarded(self, label: str, items: int, fn):
        """Run one operation; an exception fails its items instead of the run."""
        try:
            return fn()
        except Exception as exc:  # an operation's failure is a result, not a crash
            self.judge(label, [f"raised {type(exc).__name__}: {exc}"], items)
            return None

    def keep_for_recheck(self, values: np.ndarray, tmax: float, label: str) -> None:
        self._recheck[label] = (values, tmax)  # keyed, so a replayed round adds nothing

    def recheck(self) -> None:
        """Re-run t_max on kept tensors (untraced, after timing) and check its
        maximizer, which the timed calls do not return."""
        for label, (values, tmax) in self._recheck.items():
            result = self.guarded(label, 1, lambda: rb.t_max(rb.CorrelationTensor(values.ndim, values)))
            if result is not None:
                self.judge(f"{label} recheck", oc.tmax_problems(values, result, tmax))
        self._recheck.clear()

    # subclasses implement these
    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> list[Sample]:
        raise NotImplementedError

    def replay_round(self, r: int) -> float:
        """Seconds of in-process work in round r, run again untraced."""
        return sum(s.seconds for s in self.run_round(r) if s.inprocess)

    def close(self) -> None:
        pass


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class GhzScan(Workload):
    """ghz_scan at N=4 over ~[0.30, 0.40] and at N=8 over ~[0.03, 0.12].

    Both windows cross LOCAL, PARADOX and NONLOCAL; the seed jitters their
    ends by up to 0.005.  One item is one scan point.
    """

    name = "ghz_scan"
    WINDOWS = ((4, 0.30, 0.40), (8, 0.03, 0.12))

    def __init__(self, *args):
        super().__init__(*args)
        self.steps = 5 if self.tiny else 11

    def windows(self, r: int) -> list[tuple[int, float, float]]:
        rng = self.rng(r)
        out = []
        for n, lo, hi in self.WINDOWS:
            th = rb.ghz_thresholds(n)
            while True:
                a, b = lo + rng.uniform(-0.005, 0.005), hi + rng.uniform(-0.005, 0.005)
                grid = np.linspace(a, b, self.steps)
                regions = {oc.expected_region(v, th.v_ri, th.v_two_setting) for v in grid}
                gap = np.min(np.abs(grid[:, None] - [th.v_ri, th.v_two_setting]))
                if len(regions) == 3 and gap > 1e-6:
                    break
            out.append((n, float(a), float(b)))
        return out

    def warmup(self) -> None:
        n, a, _ = self.windows(0)[0]
        rb.ghz_scan(n, a, a, 1)

    def run_round(self, r: int) -> list[Sample]:
        samples = []
        for n, a, b in self.windows(r):
            label = f"scan N={n} [{a:.4f}, {b:.4f}] round {r}"

            def call():
                with self.span("bench.ghz_scan"):
                    return _timed(lambda: rb.ghz_scan(n, a, b, self.steps))

            out = self.guarded(label, self.steps, call)
            if out is None:
                continue
            points, seconds = out
            samples.append(Sample(f"N{n}", seconds, self.steps, r))
            self.check(n, a, b, points, label)
            if r == 0:
                self.keep_for_recheck(oc.ghz_tensor(n, a), a + self.fault, f"{label} T_max")
        return samples

    def check(self, n, a, b, points, label) -> None:
        th = rb.ghz_thresholds(n)
        grid = np.linspace(a, b, self.steps)
        if len(points) != self.steps:
            self.judge(label, [f"{len(points)} points for {self.steps} steps"], self.steps)
            return
        for v, point in zip(grid, points):
            values = oc.ghz_tensor(n, v)
            problems = oc.verdict_problems(values, point.report, point.region)
            if point.visibility != v:
                problems.append(f"visibility {point.visibility!r} != grid value {v!r}")
            tmax = point.report.rhs / 4.0**n
            if abs(tmax - (v + self.fault)) > oc.TMAX_TOL:
                problems.append(f"T_max {tmax!r} != expected {v + self.fault!r}")
            region = oc.expected_region(v, th.v_ri, th.v_two_setting)
            if point.region != region:
                problems.append(f"region {point.region} != {region} from ghz_thresholds")
            self.judge(f"{label} V={v:.6f}", problems)


class MeasuredStates(Workload):
    """Prepare a state, measure its planar tensor, judge it.

    Each round is six states: GHZ with white noise at N=8 and 10 (pure
    state fast path, dense mix and eigvalsh), GHZ with local dephasing at
    N=6, 7, 8 built as a plain DensityMatrix (dense kron-trace path), and
    one Haar-random pure state with white noise at N=3, 4 or 5 in turn
    (unstructured tensor, slow ascent).  One item is one state.

    The ascent's cost on a random tensor varies several-fold from state to
    state, so a round holds one random state, not three: with a few dozen
    states per run, more would let the seed, not the code, set the figures.
    """

    name = "measured_states"
    KINDS = (("white", 8), ("white", 10), ("dephased", 6), ("dephased", 7), ("dephased", 8))
    HAAR_PARTIES = (3, 4, 5)
    TINY_KINDS = (("white", 4), ("dephased", 4))
    TINY_HAAR_PARTIES = (3,)

    def inputs(self, r: int):
        rng = self.rng(r)
        kinds, haar = (self.TINY_KINDS, self.TINY_HAAR_PARTIES) if self.tiny else (self.KINDS, self.HAAR_PARTIES)
        out = []
        for family, n in kinds + (("haar", haar[r % len(haar)]),):
            v = float(rng.uniform(0.05, 1.0))
            dim = 2**n
            if family == "haar":
                amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                amp /= np.linalg.norm(amp)
                ref = oc.tensor_from_antidiagonal(oc.pure_antidiagonal(amp, v), n)
                payload = (amp, v)
            elif family == "white":
                ref = oc.ghz_tensor(n, v)
                payload = v
            else:
                mat = np.zeros((dim, dim), dtype=complex)
                mat[0, 0] = mat[-1, -1] = 0.5
                mat[0, -1] = mat[-1, 0] = 0.5 * v
                ref = oc.tensor_from_antidiagonal(np.fliplr(mat).diagonal(), n)
                payload = mat
            out.append((family, n, v, payload, ref))
        return out

    def prepare(self, family, n, payload):
        if family == "white":
            return rb.mix_with_white_noise(rb.build_ghz(n), payload)
        if family == "dephased":
            with self.span("states.DensityMatrix"):
                return rb.DensityMatrix(n, payload)
        amp, v = payload
        with self.span("states.StateVector"):
            state = rb.StateVector(n, amp)
        return rb.mix_with_white_noise(state, v)

    def verdict(self, family, n, payload):
        with self.span("bench.measured_states"):
            tensor = rb.tensor_from_state(self.prepare(family, n, payload))
            report = rb.ri_criterion(tensor)
            return tensor, report, rb.classify(report)

    def warmup(self) -> None:
        family, n, _, payload, _ = self.inputs(0)[0]
        self.verdict(family, n, payload)

    def run_round(self, r: int) -> list[Sample]:
        samples = []
        for family, n, v, payload, ref in self.inputs(r):
            label = f"{family} N={n} V={v:.6f} round {r}"
            out = self.guarded(label, 1, lambda: _timed(lambda: self.verdict(family, n, payload)))
            if out is None:
                continue
            (tensor, report, region), seconds = out
            samples.append(Sample(f"{family}{n}", seconds, 1, r))
            values = np.asarray(tensor.values)
            problems = oc.tensor_problems(values, ref, "antidiagonal")
            problems += oc.verdict_problems(ref, report, region)
            tmax = report.rhs / 4.0**n
            if family != "haar":
                problems += oc.tensor_problems(values, oc.ghz_tensor(n, v), "GHZ closed form")
                if abs(tmax - (v + self.fault)) > oc.TMAX_TOL:
                    problems.append(f"T_max {tmax!r} != expected {v + self.fault!r}")
            self.judge(label, problems)
            if r == 0:
                self.keep_for_recheck(values, tmax, label)
        return samples


class Stress(Workload):
    """verify_bound, with the optimal strategy included, on GHZ(4, 0.34)
    (the paradox point), on GHZ(8, V) and on a Haar-random N=5 tensor with
    white noise.  One item is one random-ensemble trial; trials per call
    are fixed so that the per-trial loop dominates the one t_max per call.
    Tensors are built from the benchmark's own closed forms, so the states
    module is not exercised here.
    """

    name = "stress"

    def __init__(self, *args):
        super().__init__(*args)
        self.trials = 20 if self.tiny else 1000

    def inputs(self, r: int):
        rng = self.rng(r)
        n_big, n_haar = (5, 3) if self.tiny else (8, 5)
        v = float(rng.uniform(0.05, 1.0))
        amp = rng.normal(size=2**n_haar) + 1j * rng.normal(size=2**n_haar)
        amp /= np.linalg.norm(amp)
        haar = oc.tensor_from_antidiagonal(oc.pure_antidiagonal(amp, float(rng.uniform(0.5, 1.0))), n_haar)
        seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
        return [
            ("ghz4", oc.ghz_tensor(4, 0.34), 0.34, seeds[0]),
            (f"ghz{n_big}", oc.ghz_tensor(n_big, v), v, seeds[1]),
            (f"haar{n_haar}", haar, None, seeds[2]),
        ]

    def call(self, values, seed, trials):
        tensor = rb.CorrelationTensor(values.ndim, values)
        with self.span("bench.stress"):
            return rb.verify_bound(tensor, trials, seed=seed, include_optimal=True)

    def warmup(self) -> None:
        _, values, _, seed = self.inputs(0)[0]
        self.call(values, seed, 1)

    def run_round(self, r: int) -> list[Sample]:
        samples = []
        for kind, values, v, seed in self.inputs(r):
            label = f"verify_bound {kind} seed={seed} round {r}"
            out = self.guarded(label, 1, lambda: _timed(lambda: self.call(values, seed, self.trials)))
            if out is None:
                continue
            res, seconds = out
            samples.append(Sample(kind, seconds, self.trials, r))
            n = values.ndim
            tmax = res.bound / 4.0**n
            problems = []
            if res.violations != 0:
                problems.append(f"{res.violations} violations")
            if not oc.RATIO_LOW <= res.ratio_to_bound <= oc.RATIO_HIGH:
                problems.append(f"ratio_to_bound {res.ratio_to_bound!r}")
            if res.trials != self.trials or not res.includes_optimal:
                problems.append("trials or includes_optimal not as requested")
            low, high = float(np.max(np.abs(values))), math.sqrt(float(np.sum(values**2)))
            if not low - oc.REL_TOL <= tmax <= high + oc.REL_TOL:
                problems.append(f"T_max {tmax!r} outside [{low!r}, {high!r}]")
            if v is not None and abs(tmax - (v + self.fault)) > oc.TMAX_TOL:
                problems.append(f"T_max {tmax!r} != expected {v + self.fault!r}")
            self.judge(label, problems)
            if r == 0:
                self.keep_for_recheck(values, tmax, label)
        return samples


class Cli(Workload):
    """The five README commands, each a fresh ``python -m rotbell`` process.

    Inputs are drawn once per run, so every pass repeats the same commands
    and their output must be byte-identical across passes and equal to
    ``rotbell.cli.main`` run in-process.  One item is one command; under
    the tracer, each pass also runs the commands in-process.
    """

    name = "cli"

    def __init__(self, *args):
        super().__init__(*args)
        out_dir = self.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        rng = self.rng(0)
        self.v = float(f"{rng.uniform(0.33, 0.35):.4f}")
        tensor = str(self.workdir / "tensor.json")
        a, b = rng.uniform(0.29, 0.31), rng.uniform(0.39, 0.41)
        self.scan_steps = 3 if self.tiny else 5
        self.commands = [
            ("tensor", ["tensor", "--ghz", "4", "--visibility", f"{self.v:.4f}", "--out", tensor]),
            ("tmax", ["tmax", "--in", tensor]),
            ("check", ["check", "--in", tensor]),
            ("scan", ["scan", "--ghz", "4", "--v-min", f"{a:.4f}", "--v-max", f"{b:.4f}",
                      "--steps", str(self.scan_steps), "--format", "csv"]),
            ("verify-bound", ["verify-bound", "--in", tensor, "--trials", "20" if self.tiny else "200",
                              "--seed", str(int(rng.integers(0, 2**31)))]),
        ]
        self.tensor_path = Path(tensor)
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        self.reference: dict[str, bytes] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def output(self, kind: str, stdout: bytes) -> bytes:
        return self.tensor_path.read_bytes() if kind == "tensor" else stdout

    def run_inprocess(self, kind: str, argv: list[str]) -> tuple[int, bytes, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with self.span("bench.cli"):
                code, seconds = _timed(lambda: rotbell.cli.main(argv))
        return code, self.output(kind, buf.getvalue().encode()), seconds

    def warmup(self) -> None:
        """Compute the in-process reference output of every command."""
        for kind, argv in self.commands:
            code, out, _ = self.run_inprocess(kind, argv)
            problems = [f"exit {code}"] if code else []
            self.judge(f"in-process {kind}", problems + self.parse(kind, out))
            self.reference[kind] = out

    def parse(self, kind: str, out: bytes) -> list[str]:
        """Parse one command's output and check what it says."""
        try:
            text = out.decode()
            if kind == "scan":
                rows = [line.split(",") for line in text.strip().splitlines()]
                if rows[0] != list(rotbell.cli.SCAN_COLUMNS) or len(rows) != 1 + self.scan_steps:
                    return ["scan CSV has the wrong header or row count"]
                return []
            doc = json.loads(text)
            if kind == "tmax" and abs(doc["value"] - (self.v + self.fault)) > oc.TMAX_TOL:
                return [f"T_max {doc['value']!r} != expected {self.v + self.fault!r}"]
            if kind == "check" and not (doc["violated"] and doc["two_setting_model"]):
                return ["paradox-window tensor not reported as violated and two-setting modelable"]
            if kind == "verify-bound" and (doc["violations"] or not oc.RATIO_LOW <= doc["ratio_to_bound"] <= oc.RATIO_HIGH):
                return [f"violations {doc['violations']}, ratio {doc['ratio_to_bound']!r}"]
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return [f"output does not parse: {exc!r}"]
        return []

    def subprocess_call(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "rotbell", *argv], cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)

    def run_round(self, r: int) -> list[Sample]:
        samples = []
        for kind, argv in self.commands:
            label = f"{kind} pass {r}"
            out = self.guarded(label, 1, lambda: _timed(lambda: self.subprocess_call(argv)))
            if out is None:
                continue
            proc, seconds = out
            samples.append(Sample(kind, seconds, 1, r, inprocess=False))
            problems = [f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}"] if proc.returncode else []
            output = self.output(kind, proc.stdout)
            problems += self.parse(kind, output)
            if output != self.reference.get(kind):
                problems.append("output differs from the in-process result and earlier passes")
            self.judge(label, problems)
            if self.tracer:
                code, ref, seconds = self.run_inprocess(kind, argv)
                samples.append(Sample(kind, seconds, 0, r))
                self.judge(f"in-process {label}", [] if code == 0 and ref == self.reference[kind]
                           else ["in-process output changed under tracing"])
        return samples

    def replay_round(self, r: int) -> float:
        return sum(self.run_inprocess(kind, argv)[2] for kind, argv in self.commands)


WORKLOADS = {w.name: w for w in (GhzScan, MeasuredStates, Stress, Cli)}
