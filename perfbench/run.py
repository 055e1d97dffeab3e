"""The opspace benchmark: time-to-verdict on seeded workloads, checked for correctness.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload corpus --seed 1729 --seconds 15 --trace 0

One process, one closed-loop client, ``threads=1`` in every check.  A run
repeats whole passes over the workload's checks while another pass still fits
in ``--seconds`` (at least one pass).  With ``--trace 0`` it prints the
end-to-end metrics, times scaled to a nominal machine speed (see
CAL_NOMINAL_S); with ``--trace 1`` it runs one untraced and one traced pass and
prints the per-layer metrics, raw (see spans.py).  The last stdout line is the
result object; the line before it holds the details (machine, raw and per-check
times, failures).  The exit code is 0 only when every check was correct.
"""

from __future__ import annotations

import os

#: BLAS threads are fixed before numpy loads: the batched small SVDs gain
#: nothing from BLAS threads, and thread start-up makes them slower and noisier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import GRAD, LAYERS, LINE, OTHER, START, Tracer, svd_work  # noqa: E402
from workloads import RECORDS, REEVALUATORS, TAIL_PERCENTILE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
REEVAL_TOL = 1e-9
KERNEL_SHAPES = ((2, 2, 4000), (4, 4, 4000), (4, 8, 4000), (8, 8, 4000), (64, 64, 250))
KERNEL_REPS = 5

#: On the shared 2-vCPU VM this benchmark was tuned on, the same work ran up to
#: 1.6x slower from one minute to the next, so an end-to-end run pins itself to
#: one CPU and follows that CPU's speed: before and after each check or set-up
#: probe (at most every CAL_INTERVAL_S) it times a fixed batch of numpy SVDs at
#: the shapes the package uses (no opspace code), and scales the measured time
#: by CAL_NOMINAL_S over the mean of the two readings, i.e. reports it at a
#: nominal machine speed.  Over five seeds this cut the spread (IQR/median) of
#: wall_s from 0.05-0.13 to 0.05-0.06 and of setup_s from 0.19-0.33 to
#: 0.03-0.06.  The raw times are in the details line.
CAL_SHAPES = ((64, 2, 2), (64, 4, 4), (32, 8, 8), (8, 16, 16), (4, 32, 32))
CAL_NOMINAL_S = 0.002
CAL_INTERVAL_S = 0.1

CRITERIA = ("unitary-four-rotation", "unitary-t-gadget", "coisometry", "isometry", "operator-system",
            "mult-closed", "algebra-product", "cstar-among-systems", "multiplier-left",
            "multiplier-right", "multiplier-quasi", "positive", "adjoint", "left-multiplier-map")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "violation_p50": "norm"}


def _per_layer_units() -> dict:
    units = {}
    for name, unit in (("calls", "count"), ("matrices", "count"), ("self_s", "s"),
                       ("ns_per_matrix", "ns"), ("gflop_computed", "GFLOP"), ("gbyte_computed", "GB")):
        units[f"matcore.op_norm_stack.{name}"] = unit
    for name, unit in (("calls", "count"), ("matrices", "count"), ("self_s", "s")):
        units[f"matcore.op_norm_fibers.{name}"] = unit
    for fn in ("trace_norm_stack", "op_norm"):
        units[f"matcore.{fn}.calls"] = "count"
        units[f"matcore.{fn}.self_s"] = "s"
    for r, c, _ in KERNEL_SHAPES:
        units[f"matcore.kernel.{r}x{c}.ns_per_matrix"] = "ns"
        units[f"matcore.kernel.{r}x{c}.gflops_computed"] = "GFLOP/s"
    for fn in ("realize_stack", "realize_fibers_stack", "norm_stack"):
        units[f"spaces.{fn}.calls"] = "count"
        units[f"spaces.{fn}.self_s"] = "s"
    units["spaces.load_space.self_s"] = "s"
    units["spaces.layout.dense_share"] = "share"
    units["gadgets.assembly.calls"] = "count"
    units["gadgets.assembly.self_s"] = "s"
    for fn in ("maximize_violation", "refine_witness"):
        units[f"witness.{fn}.calls"] = "count"
        units[f"witness.{fn}.self_s"] = "s"
    for name, unit in (("start_evals", "count"), ("grad_evals", "count"), ("line_evals", "count"),
                       ("grad_s", "s"), ("line_s", "s"), ("grad_share", "share")):
        units[f"witness.objective.{name}"] = unit
    units["witness.dead_restarts"] = "count"
    for crit in CRITERIA:
        units[f"criteria.{crit}.s"] = "s"
    units["criteria.samples"] = "count"
    units["corpus.run_corpus.t1_s"] = "s"
    units["corpus.run_corpus.t2_s"] = "s"
    units["corpus.run_corpus.speedup_2t"] = "ratio"
    units["formulas.run_all_suites.s"] = "s"
    units["formulas.run_all_suites.trials_per_s"] = "1/s"
    units["cli.main.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.accounted_share"] = "share"
    return units


PER_LAYER = _per_layer_units()


class Speedometer:
    """Follows the machine's speed by timing a fixed batch of numpy SVDs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.batch = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in CAL_SHAPES]
        self.readings = []
        self._at = -float("inf")

    def read(self) -> float:
        t0 = time.perf_counter()
        for ms in self.batch:
            np.linalg.svd(ms, compute_uv=False)
        self._at = time.perf_counter()
        self.readings.append(self._at - t0)
        return self.readings[-1]

    def read_due(self) -> float:
        """A fresh reading once CAL_INTERVAL_S has passed since the last one, else the last one."""
        return self.read() if time.perf_counter() - self._at >= CAL_INTERVAL_S else self.readings[-1]


def _scale(before: float, after: float) -> float:
    return CAL_NOMINAL_S / ((before + after) / 2.0)


class Bench:
    """One benchmark run: the imported package, the workload, its files and loaded spaces."""

    def __init__(self, root: Path, workload, seed: int, workdir: Path):
        import opspace
        import opspace.cli
        import opspace.corpus
        import opspace.formulas  # noqa: F401  (the package imports these lazily)

        self.op = opspace
        self.src = root / "src"
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.files = {}
        for name, doc in workload.documents.items():
            path = workdir / f"{name}.json"
            path.write_text(doc, encoding="utf-8")
            self.files[name] = path
        self.loaded = {}
        self.speed = Speedometer()
        self.attempted = 0
        self.failures = []

    # -- set-up ------------------------------------------------------------

    def setup_probe(self) -> tuple[float, float]:
        """(raw, scaled) seconds of one fresh-process set-up."""
        before = self.speed.read()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(self.src), *map(str, self.files.values())],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw = float(out.stdout.strip().splitlines()[-1])
        return raw, raw * _scale(before, self.speed.read())

    def load(self):
        self.loaded = {name: self.op.spaces.load_space_file(path) for name, path in self.files.items()}

    # -- checks ------------------------------------------------------------

    def config(self, check):
        return self.op.witness.SearchConfig(threads=1, **self.wl.config, **check.config)

    def call(self, check):
        """Run one check through the public API; returns (verdict, report or None, payload)."""
        op, args = self.op, check.args
        cfg = self.config(check)
        crit = check.criterion
        if crit == "verify-formulas":
            suites = op.formulas.run_all_suites(**args)
            payload = [s.to_dict() for s in suites]
            verdict = "HOLDS_WITHIN_BUDGET" if all(s.passed for s in suites) else "VIOLATED"
            return verdict, None, payload
        space = self.loaded[check.space]
        if crit in op.criteria.CRITERION_RUNNERS:
            report = op.criteria.CRITERION_RUNNERS[crit](space, cfg=cfg)
        elif crit == "algebra-product":
            tensor = op.corpus.multiplication_tensor(space)
            report = op.criteria.check_algebra_product(space, space.unit, tensor, cfg)
        elif crit.startswith("multiplier-"):
            report = op.criteria.check_multiplier(space, space.basis[args["w"]], crit.split("-", 1)[1], cfg)
        elif crit == "positive":
            x = op.spaces.unit_element(space) if args["x"] == "unit" else space.basis[args["x"]]
            report = op.criteria.check_positive(space, x, cfg)
        elif crit == "adjoint":
            x = space.basis[args["x"]]
            report = op.criteria.check_adjoint(x, x.conj().T if args["z"] == "adjoint" else x, cfg)
        elif crit == "left-multiplier-map":
            T = space.involution if args["T"] == "transpose" else np.eye(space.dim)
            report = op.criteria.check_left_multiplier_map(space, T, cfg)
        else:
            raise ValueError(f"no runner for criterion {crit!r}")
        return report.verdict, report, report.to_dict()

    def run_pass(self):
        """Every check once, in order; returns rows with raw seconds and the speed scale around each."""
        rows = []
        before = self.speed.read()
        for check in self.wl.checks:
            c0 = time.perf_counter()
            try:
                verdict, report, payload = self.call(check)
                error = None
            except Exception:  # a raising check is a failed check; the run goes on
                verdict, report, payload = None, None, None
                error = traceback.format_exc(limit=3)
            took = time.perf_counter() - c0
            after = self.speed.read_due()
            rows.append({"check": check, "verdict": verdict, "report": report, "payload": payload,
                         "error": error, "s": took, "scale": _scale(before, after)})
            before = after
        return rows

    def verify(self, rows, reference=None):
        """Count and check one pass: verdicts, witness re-evaluation, payload identity."""
        for i, row in enumerate(rows):
            check = row["check"]
            self.attempted += 1
            problem = row["error"]
            if problem is None and row["verdict"] != check.expected:
                problem = f"verdict {row['verdict']}, expected {check.expected}"
            if problem is None and row["verdict"] == "VIOLATED" and check.criterion in REEVALUATORS:
                problem = self._reevaluate(check, row["report"])
            if problem is None and reference is not None:
                if _canonical(row["payload"]) != _canonical(reference[i]["payload"]):
                    problem = "report payload differs from the first pass"
            if problem is not None:
                self.failures.append({"check": check.label, "problem": problem})

    def _reevaluate(self, check, report):
        space = self.loaded[check.space]
        elem = report.witness_element()
        if elem is None:
            return "VIOLATED without a stored witness"
        fn = getattr(self.op.criteria, REEVALUATORS[check.criterion])
        got = fn(space, space.unit, elem)
        want = report.witness["aux"]["violation"]
        if not abs(got - want) <= REEVAL_TOL:
            return f"witness re-evaluates to {got!r}, report says {want!r}"
        return None

    def fail(self, label: str, problem: str):
        self.failures.append({"check": label, "problem": problem})

    # -- the CLI, the kernel probe and the thread pool ---------------------

    def run_cli(self, reference_rows):
        """One `opspace check --format json` on a workload file; verdict and payload must match."""
        label, want_code = self.wl.cli
        check = next(c for c in self.wl.checks if c.label == label)
        out = self.workdir / "cli.json"
        cfg = self.config(check)
        argv = ["check", str(self.files[check.space]), check.criterion, "--format", "json",
                "--seed", str(cfg.seed), "--tolerance", repr(cfg.tolerance),
                "--levels", str(cfg.max_level), "--out", str(out)]
        self.attempted += 1
        code = self.op.cli.main(argv)
        payload = json.loads(out.read_text(encoding="utf-8"))
        for key in ("generated_at", "tool_version"):
            payload.pop(key, None)
        reference = next(r["payload"] for r in reference_rows if r["check"].label == label)
        if code != want_code:
            self.fail(f"cli {label}", f"exit code {code}, expected {want_code}")
        elif _canonical(payload) != _canonical(reference):
            self.fail(f"cli {label}", "CLI payload differs from the library report")

    def kernel_probe(self) -> dict:
        """op_norm_stack on fixed (N, r, c) stacks; flops are computed from sizes, not counted."""
        rng = np.random.default_rng(self.seed)
        out = {}
        for r, c, n in KERNEL_SHAPES:
            ms = (rng.normal(size=(n, r, c)) + 1j * rng.normal(size=(n, r, c))) / np.sqrt(2.0)
            times = []
            for _ in range(KERNEL_REPS):
                t0 = time.perf_counter()
                self.op.matcore.op_norm_stack(ms)
                times.append(time.perf_counter() - t0)
            t = statistics.median(times)
            _, flops = svd_work(ms.shape)
            out[f"matcore.kernel.{r}x{c}.ns_per_matrix"] = t / n * 1e9
            out[f"matcore.kernel.{r}x{c}.gflops_computed"] = flops / t / 1e9
        return out

    def thread_pool(self, t1_s: float) -> dict:
        """corpus.run_corpus at two threads, untraced, against the one-thread pass.

        The one-thread figure is the run's untraced pass: the same 42 checks
        under the same config, so a second one-thread corpus run is not paid for.
        """
        t0 = time.perf_counter()
        result = self.op.corpus.run_corpus(self.op.witness.SearchConfig(), threads=2)
        t2_s = time.perf_counter() - t0
        self.attempted += 1
        if not result["all_match"]:
            self.fail("run_corpus threads=2", "a verdict differs from the corpus")
        return {"corpus.run_corpus.t1_s": t1_s, "corpus.run_corpus.t2_s": t2_s,
                "corpus.run_corpus.speedup_2t": t1_s / t2_s}


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _nearest_rank(values, percentile: int) -> float:
    ordered = sorted(values)
    rank = -(-percentile * len(ordered) // 100)  # ceil
    return ordered[max(rank, 1) - 1]


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


# ---------------------------------------------------------------------------
# the two kinds of run


def _times(passes, tail_percentile, key) -> dict:
    """Pass and per-check times; ``key`` picks a row's raw or scaled seconds."""
    times_ms = [key(row) * 1e3 for rows in passes for row in rows]
    tail_ms = _nearest_rank(times_ms, tail_percentile)
    return {"wall_s": statistics.median(sum(key(row) for row in rows) for rows in passes),
            "check_ms_p50": statistics.median(times_ms),
            "check_ms_tail": tail_ms,
            "tail_beyond": sum(t > tail_ms for t in times_ms)}


def end_to_end(bench: Bench, seconds: float, tail_percentile: int) -> tuple[dict, dict]:
    # One CPU for the speed readings, the checks and the set-up children alike.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(s for _, s in setups)
    bench.load()
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass())
        walls.append(sum(row["s"] for row in passes[-1]))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    for rows in passes:
        bench.verify(rows, reference=passes[0] if rows is not passes[0] else None)
    scaled = _times(passes, tail_percentile, lambda row: row["s"] * row["scale"])
    violations = [-row["report"].margin for row in passes[0]
                  if row["verdict"] == "VIOLATED" and row["report"] is not None]
    metrics = {
        "setup_s": setup_s,
        "wall_s": scaled["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "violation_p50": statistics.median(violations) if violations else 0.0,
    }
    # Per-check latency is reported but not bounded: a one-pass run has 13 or 42
    # single samples, and on `conjugated` their median spread 0.15 over five seeds.
    details = {"passes": len(passes), "checks": sum(map(len, passes)), "tail_percentile": tail_percentile,
               "scaled": scaled,
               "raw": dict(_times(passes, tail_percentile, lambda row: row["s"]),
                           setup_s=statistics.median(r for r, _ in setups)),
               "speed": {"readings": len(bench.speed.readings),
                         "median_s": statistics.median(bench.speed.readings), "nominal_s": CAL_NOMINAL_S},
               "per_check_ms": _per_check_ms(passes)}
    return metrics, details


def traced(bench: Bench, with_thread_pool: bool) -> tuple[dict, dict]:
    op = bench.op
    loading = Tracer().install(op)
    try:
        bench.load()
    finally:
        loading.uninstall()
    plain_rows = bench.run_pass()
    tracer = Tracer().install(op)
    try:
        rows = bench.run_pass()
    finally:
        tracer.uninstall()
    plain_wall = sum(row["s"] for row in plain_rows)
    wall = sum(row["s"] for row in rows)
    bench.verify(plain_rows)
    bench.verify(rows, reference=plain_rows)
    cli = Tracer().install(op)
    try:
        bench.run_cli(plain_rows)
    finally:
        cli.uninstall()

    m = {}

    def span(name):
        m[f"{name}.calls"] = tracer.calls.get(name, 0)
        m[f"{name}.self_s"] = tracer.self_time.get(name, 0.0)

    for name in ("op_norm_stack", "op_norm_fibers", "trace_norm_stack", "op_norm"):
        span(f"matcore.{name}")
    for name in ("op_norm_stack", "op_norm_fibers"):
        m[f"matcore.{name}.matrices"] = int(tracer.counts.get(f"matcore.{name}.matrices", 0))
    mats = m["matcore.op_norm_stack.matrices"]
    m["matcore.op_norm_stack.ns_per_matrix"] = m["matcore.op_norm_stack.self_s"] / mats * 1e9 if mats else 0.0
    m["matcore.op_norm_stack.gflop_computed"] = tracer.counts.get("matcore.op_norm_stack.flop", 0.0) / 1e9
    m["matcore.op_norm_stack.gbyte_computed"] = tracer.counts.get("matcore.op_norm_stack.bytes", 0.0) / 1e9
    m.update(bench.kernel_probe())
    for name in ("realize_stack", "realize_fibers_stack", "norm_stack"):
        span(f"spaces.{name}")
    m["spaces.load_space.self_s"] = loading.layer_self.get("spaces", 0.0)
    realized = m["spaces.realize_stack.calls"] + m["spaces.realize_fibers_stack.calls"]
    m["spaces.layout.dense_share"] = m["spaces.realize_stack.calls"] / realized if realized else 0.0
    assembly = [n for n in tracer.calls if n.startswith("gadgets.") and n.endswith("_stack")]
    m["gadgets.assembly.calls"] = sum(tracer.calls[n] for n in assembly)
    m["gadgets.assembly.self_s"] = sum(tracer.self_time[n] for n in assembly)
    span("witness.maximize_violation")
    span("witness.refine_witness")
    objective_s = sum(tracer.kind_time(k) for k in (START, GRAD, LINE, OTHER))
    m["witness.objective.start_evals"] = int(tracer.counts.get(f"witness.objective.{START}_evals", 0))
    m["witness.objective.grad_evals"] = int(tracer.counts.get(f"witness.objective.{GRAD}_evals", 0))
    m["witness.objective.line_evals"] = int(tracer.counts.get(f"witness.objective.{LINE}_evals", 0))
    m["witness.objective.grad_s"] = tracer.kind_time(GRAD)
    m["witness.objective.line_s"] = tracer.kind_time(LINE)
    m["witness.objective.grad_share"] = tracer.kind_time(GRAD) / objective_s if objective_s else 0.0
    reports = [row["report"] for row in rows if row["report"] is not None]
    m["witness.dead_restarts"] = sum(v is None for r in reports for cell in r.trace
                                     for v in cell.get("restart_bests", []))
    for crit in CRITERIA:
        m[f"criteria.{crit}.s"] = sum((row["s"] for row in rows if row["check"].criterion == crit), 0.0)
    m["criteria.samples"] = sum(r.samples for r in reports)
    m.update({"corpus.run_corpus.t1_s": 0.0, "corpus.run_corpus.t2_s": 0.0,
              "corpus.run_corpus.speedup_2t": 0.0})
    if with_thread_pool:
        m.update(bench.thread_pool(plain_wall))
    suites_s = tracer.total.get("formulas.run_all_suites", 0.0)
    trials = sum(s["trials"] for row in rows if row["check"].criterion == "verify-formulas"
                 for s in row["payload"] or [])
    m["formulas.run_all_suites.s"] = suites_s
    m["formulas.run_all_suites.trials_per_s"] = trials / suites_s if suites_s else 0.0
    m["cli.main.self_s"] = cli.layer_self.get("cli", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self.get(layer, 0.0)
    m["trace.overhead_s"] = wall - plain_wall
    m["trace.accounted_share"] = sum(tracer.layer_self.values()) / wall
    details = {"traced_wall_s": wall, "untraced_wall_s": plain_wall,
               "spans": {n: [tracer.calls[n], round(tracer.self_time[n], 6)] for n in sorted(tracer.calls)}}
    return m, details


def _per_check_ms(passes) -> list:
    out = []
    for i, row in enumerate(passes[0]):
        ms = statistics.median(rows[i]["s"] * 1e3 for rows in passes)
        samples = row["report"].samples if row["report"] is not None else None
        out.append([row["check"].label, row["check"].expected, row["verdict"], round(ms, 3), samples])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "opspace" / "__init__.py").is_file():
        print(f"error: no opspace sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import opspace

    if Path(opspace.__file__).resolve().parent != (root / "src" / "opspace").resolve():
        print(f"error: imported opspace from {opspace.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        bench = Bench(root, WORKLOADS[args.workload](args.seed), args.seed, workdir)
        if args.trace:
            metrics, details = traced(bench, with_thread_pool=args.workload == "corpus")
            units = PER_LAYER
        else:
            metrics, details = end_to_end(bench, args.seconds, TAIL_PERCENTILE[args.workload])
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    correct = not bench.failures
    details.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "machine": machine_record(), "record": RECORDS[args.workload],
                    "failed_frac": len(bench.failures) / max(bench.attempted, 1),
                    "failures": bench.failures})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
