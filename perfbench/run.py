"""Seeded benchmark of the `smp` commands, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tied --seed 3 --seconds 30 --trace 0

The seed selects the workload's corpus from its fixed, stratified instance
pool (see `corpus.py`).  Every instance goes through the real command path,
`smp.cli.main([...])` called in-process with stdout captured, as a closed
loop with one client: `solve`, `poset`, `mincost --costs` and `check` on
`solve`'s output; the `oracle` workload first runs
`smp.bruteforce.oracle_enumerate_stable`.  Every output is checked: the exit
code must be 0, `check` must report `"stable": true`, the oracle's set must
contain `solve`'s x_min, and each output must match its golden digest in
`pool.json`.  The pool is regenerated on every run and must match its
recorded fingerprint, or the run aborts.

`--trace 0` makes whole passes over the corpus while `--seconds` allow (at
least three) and reports the end-to-end metrics.  An instance's latency for
an op is its median over the passes; `_p50` and `_tail` are taken over the
corpus instances, `_tail` at the highest percentile with at least ten
instances beyond it.  `instances_per_s` is the corpus size over the median
whole-pass time.  `--trace 1` runs the first
`trace_size` instances once untraced and twice under `tracer.Tracer`, and
reports the per-layer metrics, the tracing overhead and any work count that
differs between the two traced passes.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

`--record` regenerates `pool.json` (digests and stratification keys of every
pool instance); run it only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
POOL = HERE / "pool.json"
sys.path.insert(0, str(HERE))

from corpus import WORKLOADS, fingerprint, pool, select, serialize  # noqa: E402

CLI_OPS = ("solve", "poset", "mincost", "check")
SETUP_REPEATS = 5
MIN_PASSES = 3  # an instance's latency is its median over at least this many passes
# The host's speed drifts by up to 1.75x between runs (a fixed job's time,
# measured on 2 vCPUs under Firecracker), far beyond any useful bound.  So
# every timing is scaled by REF_SECONDS / (this run's median time of
# reference_job), i.e. reported in seconds at the speed at which the job
# takes REF_SECONDS.  The job runs no smp code, so a change to the program
# moves the scaled timings exactly as it moves the raw ones.
REF_SECONDS = 0.008
HELPER_LAYERS = {"choice", "stability", "model"}  # charged to their calling layer
ENTRY_LAYERS = {"op", "cli"}


class BenchError(Exception):
    """The benchmark cannot measure the intended program."""


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least ten of n samples beyond it."""
    return max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10)


def nearest_rank(values: list[float], p: int) -> float:
    return sorted(values)[math.ceil(p * len(values) / 100) - 1]


def digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


class Bench:
    """Corpus files, the op runner and every correctness check of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.golden: dict[str, dict[str, str]] | None = None  # None while recording
        self.files: dict[str, dict[str, str]] = {}

    # -- set-up ---------------------------------------------------------

    def import_program(self) -> None:
        """Import smp and tests/gen.py from this checkout, refusing anything else."""
        if sys.flags.optimize:
            raise BenchError("refusing to run under python -O: the solver's checks are asserts")
        os.environ.pop("SMP_MAX_STEPS", None)
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        try:
            import smp
            import smp.bruteforce
            import smp.cli
        except ImportError as exc:
            raise BenchError(f"cannot import smp from {src}: {exc}") from exc
        if src.resolve() not in Path(smp.__file__).resolve().parents:
            raise BenchError(f"smp imported from {smp.__file__}, not from {src}")
        gen_path = ROOT / "tests" / "gen.py"
        if not gen_path.is_file():
            raise BenchError(f"missing instance generators {gen_path}")
        spec = importlib.util.spec_from_file_location("perfbench_gen", gen_path)
        self.gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.gen)
        self.smp = smp

    def load_record(self) -> dict:
        """This workload's entry of pool.json: fingerprint, keys and digests."""
        try:
            return json.loads(POOL.read_text())["workloads"][self.workload.name]
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError(f"no record for {self.workload.name} in {POOL}: {exc}") from exc

    def build_pool(self) -> None:
        self.pool = pool(self.gen, self.workload.name)
        self.pool_json = serialize(self.pool, self.smp.model.serialize_instance)
        self.pool_fp = fingerprint(self.pool, self.pool_json)

    def write_case(self, work: Path, index: int, label: str) -> dict[str, str]:
        paths = {k: str(work / f"{label}.{k}.json") for k in ("instance", "costs", "x")}
        inst_json, costs_json = self.pool_json[index]
        Path(paths["instance"]).write_text(inst_json)
        Path(paths["costs"]).write_text(costs_json)
        return paths

    def build_corpus(self, record: dict) -> None:
        """Regenerate the pool, check its fingerprint, select and write the corpus."""
        self.build_pool()
        if self.pool_fp != record["fingerprint"]:
            raise BenchError(
                f"{self.workload.name} pool fingerprint {self.pool_fp} != recorded "
                f"{record['fingerprint']}: the generators changed, so runs would compare different inputs"
            )
        picks = select(self.workload, record["keys"], self.seed)
        work = OUT / f"{self.workload.name}-{self.seed}"
        work.mkdir(parents=True, exist_ok=True)
        self.cases = [self.pool[i] for i in picks]
        self.files = {self.pool[i].name: self.write_case(work, i, self.pool[i].name) for i in picks}
        self.golden = {self.pool[i].name: record["digests"][i] for i in picks}
        # the warm-up instance is the pool's first, so set-up cost is seed-independent
        self.warmup = (self.pool[0], self.write_case(work, 0, "warmup"))
        del self.pool, self.pool_json  # the unselected instances would only burden the collector

    def setup(self) -> float:
        """Import, corpus and one untimed warm-up per op; returns scaled set-up seconds.

        The import is timed once; the rest is repeated and its median taken.
        The reference job runs before each repetition to scale the result.
        """
        t0 = time.perf_counter()
        self.import_program()
        record = self.load_record()
        imported = time.perf_counter() - t0
        rest, refs = [], []
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            reference_job()
            refs.append(time.perf_counter() - t1)
            t1 = time.perf_counter()
            self.build_corpus(record)
            case, paths = self.warmup
            for op in self.workload.ops:
                rc, out = self.call(op, case, paths)
                if rc != 0:
                    raise BenchError(f"warm-up {op} exited {rc}: {out[:200]}")
                if op == "solve":
                    Path(paths["x"]).write_text(out)
            rest.append(time.perf_counter() - t1)
        gc.collect()
        gc.freeze()  # the benchmark's own objects stay out of the program's collections
        return (imported + statistics.median(rest)) * REF_SECONDS / statistics.median(refs)

    # -- ops ------------------------------------------------------------

    def call(self, op: str, case, paths) -> tuple[int, str]:
        """Run one op in-process and return (exit code, stdout)."""
        if op == "oracle":
            found = self.smp.bruteforce.oracle_enumerate_stable(case.instance)
            ser = self.smp.model.serialize_assignment
            values = sorted((ser(x)["values"] for x in found), key=lambda v: json.dumps(v, sort_keys=True))
            return 0, json.dumps(values, sort_keys=True) + "\n"
        argv = {
            "solve": ["solve", paths["instance"]],
            "poset": ["poset", paths["instance"]],
            "mincost": ["mincost", paths["instance"], "--costs", paths["costs"]],
            "check": ["check", paths["instance"], paths["x"]],
        }[op]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self.smp.cli.main(argv)
            except SystemExit as exc:  # argparse usage error
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, buf.getvalue()

    def fail(self, case, op: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{case.name} {op}: {why}")

    def run_case(self, case, timings: dict[str, list[float]] | None, tracer=None) -> dict | None:
        """The workload's op sequence on one instance: its outputs, or None if an op failed."""
        paths = self.files[case.name]
        outputs: dict[str, str] = {}
        failed = self.failed
        for op in self.workload.ops:
            self.attempted += 1
            gc.collect()  # every op starts from the same collector state, like a fresh process
            span = tracer.begin_op(op) if tracer else None
            t0 = time.perf_counter()
            try:
                rc, out = self.call(op, case, paths)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                rc, out = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_op(span)
            if timings is not None:
                timings.setdefault(op, []).append(elapsed)
            if op == "solve" and rc == 0:
                Path(paths["x"]).write_text(out)
            why = self.verify(case, op, rc, out, outputs)
            if why:
                self.fail(case, op, why)
            outputs[op] = out
        return outputs if self.failed == failed else None

    def verify(self, case, op: str, rc, out: str, outputs: dict[str, str]) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {out.strip()[-300:]}"
        if self.golden is not None:
            want = self.golden.get(case.name, {}).get(op)
            if digest(rc, out) != want:
                return f"golden digest mismatch ({digest(rc, out)} != {want})"
        if op == "check" and json.loads(out).get("stable") is not True:
            return "check on solve's output is not stable"
        if op == "solve" and "oracle" in outputs:
            x_min = json.loads(out)["values"]
            if x_min not in json.loads(outputs["oracle"]):
                return "x_min missing from the oracle's stable set"
        return None


# -- untraced timing ------------------------------------------------------


def reference_job() -> None:
    """Fixed pure-Python work in the program's mix: dicts of Fractions, sorting,
    JSON, and exact elimination on a rational matrix."""
    x = {f"e{i}": Fraction(i % 7 + 1, i % 5 + 1) for i in range(120)}
    for _ in range(2):
        x = {k: v * Fraction(2, 3) + Fraction(1, 7) for k, v in sorted(x.items())}
    json.loads(json.dumps({k: str(v) for k, v in x.items()}, sort_keys=True))
    n = 10
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def timed_loop(bench: Bench, seconds: float) -> dict:
    """Whole passes over the corpus while time remains, at least MIN_PASSES.

    The reference job runs before every instance, so it samples the host's
    speed in the same moments as the ops; each pass's timings are scaled by
    that pass's median reference time.
    """
    per_case: dict[str, dict[str, list[float]]] = {c.name: {} for c in bench.cases}
    start = time.perf_counter()
    pass_times: list[float] = []  # scaled
    ref_times: list[float] = []
    while len(pass_times) < MIN_PASSES or time.perf_counter() - start + pass_times[-1] <= seconds:
        ops_time = 0.0
        complete = 0
        raw: dict[str, dict[str, float]] = {}
        pass_refs = []
        for case in bench.cases:
            gc.collect()
            t0 = time.perf_counter()
            reference_job()
            pass_refs.append(time.perf_counter() - t0)
            timings: dict[str, list[float]] = {}
            t1 = time.perf_counter()
            complete += bench.run_case(case, timings) is not None
            ops_time += time.perf_counter() - t1
            raw[case.name] = {op: t[0] for op, t in timings.items()}
        scale = REF_SECONDS / statistics.median(pass_refs)
        for name, times in raw.items():
            for op, t in times.items():
                per_case[name].setdefault(op, []).append(t * scale)
        pass_times.append(ops_time * scale if complete == len(bench.cases) else math.inf)
        ref_times += pass_refs
    return {"per_case": per_case, "pass_times": pass_times, "ref_times": ref_times}


def end_to_end(bench: Bench, setup_s: float, loop: dict) -> tuple[dict, dict]:
    """(metrics for the result line, extra metrics printed only)."""
    n = len(bench.cases)
    p = tail_percentile(n)
    ref = statistics.median(loop["ref_times"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (n / statistics.median(loop["pass_times"]), "1/s"),
    }
    extra = {}
    for op in bench.workload.ops:
        lat = [statistics.median(loop["per_case"][c.name][op]) for c in bench.cases]
        target = metrics if op in CLI_OPS else extra
        target[f"{op}_s_p50"] = (statistics.median(lat), "s")
        target[f"{op}_s_tail"] = (nearest_rank(lat, p), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra["failed_op_ratio"] = (bench.failed / bench.attempted, "ratio")
    extra["tail_percentile"] = (p, "percentile")
    extra["samples_per_op"] = (n, "count")
    extra["passes"] = (len(loop["pass_times"]), "count")
    extra["reference_job_s"] = (ref, "s")  # raw timing = reported timing * reference_job_s / REF_SECONDS
    return metrics, extra


# -- traced run -----------------------------------------------------------


def attributed_shares(tracer, kind: str) -> dict[str, float]:
    """Self time per layer for one op kind, helper layers charged to their caller.

    choice, stability and model serve every layer, so their self time counts
    for the nearest enclosing span of a work layer; when none encloses them
    (called straight from the CLI) it counts for the outermost helper.
    """
    own = tracer.self_times()
    n = len(own)
    work: list = [None] * n
    outer: list = [None] * n
    totals: dict[str, float] = {}
    for i in range(n):
        layer = tracer.names[tracer.name[i]].partition(".")[0]
        p = tracer.parent[i]
        if layer in HELPER_LAYERS or layer in ENTRY_LAYERS:
            work[i] = work[p] if p >= 0 else None
        else:
            work[i] = layer
        if layer in HELPER_LAYERS:
            parent_helper = p >= 0 and tracer.names[tracer.name[p]].partition(".")[0] in HELPER_LAYERS
            outer[i] = outer[p] if parent_helper else layer
        if tracer.op_kinds[tracer.op[i]] != kind:
            continue
        charged = work[i] or outer[i] or layer
        totals[charged] = totals.get(charged, 0.0) + own[i]
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def reason_check(workload: str, tracer, calls) -> tuple[bool, str]:
    """Is the layer this workload was chosen for still the dominant one?"""

    def top(kind: str) -> str:
        shares = attributed_shares(tracer, kind)
        return next(iter(shares)) if shares else ""

    if workload == "tied":
        return top("solve") == "simplex", "simplex is the largest share of solve"
    if workload == "strict":
        ok = calls.get("simplex.simplex_maximize", 0) == 0 and top("poset") == "rotations"
        return ok, "zero simplex calls and rotations the largest share of poset"
    if workload == "chain":
        return top("poset") == "linalg", "linalg is the largest share of poset"
    shares = attributed_shares(tracer, "oracle")
    brute = shares.get("bruteforce", 0.0) + shares.get("stability", 0.0)
    others = [v for k, v in shares.items() if k not in ("bruteforce", "stability")]
    return brute > max(others, default=0.0), "bruteforce+stability is the largest share of oracle"


def layer_metrics(tracer) -> tuple[dict, dict[str, int]]:
    """Per-layer metrics of one traced pass, and its work counts."""
    calls, self_s, calls_by_kind, _ = tracer.summary()
    counts: dict[str, int] = {}
    for kind_counts in tracer.counts.values():
        for k, v in kind_counts.items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith("_bits") else counts.get(k, 0) + v
    scanned = sum(
        1
        for i in range(len(tracer.name))
        if tracer.names[tracer.name[i]] == "stability.stability_report"
        and tracer.parent[i] >= 0
        and tracer.names[tracer.name[tracer.parent[i]]] == "bruteforce.oracle_enumerate_stable"
    )
    poset_counts = tracer.counts.get("poset", {})
    poset_calls = calls_by_kind.get("poset", {})
    rotations = poset_counts.get("poset.rotations", 0)
    avoid_runs = counts.get("poset.avoid_routes", 0)
    le_rows = counts.get("simplex.le_rows", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in (
        "simplex.simplex_maximize", "iteration.ordinary_iteration_step",
        "rotations.build_active_structure", "rotations.extract_rotation",
        "rotations.apply_shift", "poset.run_route", "poset.gamma",
        "linalg.gaussian_solve", "choice.choose", "stability.stability_report",
        "flow.min_cut",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in (
        "simplex.simplex_maximize", "iteration.ordinary_iteration_step",
        "iteration.solve_xmin_modified", "rotations.build_active_structure",
        "rotations.extract_rotation", "rotations.maximal_components",
        "poset.run_route", "poset.build_poset", "poset.gamma",
        "linalg.gaussian_solve", "choice.choose", "stability.stability_report",
        "bruteforce.oracle_enumerate_stable", "flow.min_cut",
        "mincost.min_cost_stable", "model.parse_instance",
        "model.parse_assignment", "model.serialize_assignment",
    ):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m.update(
        {
            "simplex.lp_rows": (counts.get("simplex.lp_rows", 0), "count"),
            "simplex.lp_cols": (counts.get("simplex.lp_cols", 0), "count"),
            "simplex.single_var_le_row_ratio": (
                ratio(counts.get("simplex.single_var_le_rows", 0), le_rows), "ratio"),
            "rotations.rebuilds_per_rotation": (
                ratio(poset_calls.get("rotations.build_active_structure", 0), rotations), "ratio"),
            "poset.base_route_shifts": (counts.get("poset.base_route_shifts", 0), "count"),
            "poset.avoid_route_shifts": (counts.get("poset.avoid_route_shifts", 0), "count"),
            "poset.avoid_shifts_per_rotation": (
                ratio(counts.get("poset.avoid_route_shifts", 0), avoid_runs), "ratio"),
            "linalg.max_generator_bits": (counts.get("linalg.max_generator_bits", 0), "bits"),
            "stability.stability_report.rejected": (
                counts.get("stability.stability_report.rejected", 0), "count"),
            "bruteforce.points_scanned": (scanned, "count"),
            "bruteforce.stable_per_point": (
                ratio(counts.get("bruteforce.stable_found", 0), scanned), "ratio"),
            "flow.network_arcs": (counts.get("flow.network_arcs", 0), "count"),
        }
    )
    work_counts = {f"{k}.calls": v for k, v in calls.items()}
    work_counts.update(counts)
    work_counts["bruteforce.points_scanned"] = scanned
    return m, work_counts


def traced_run(bench: Bench) -> tuple[dict, dict]:
    from tracer import Tracer

    subset = bench.cases[: bench.workload.trace_size]
    t0 = time.perf_counter()
    for case in subset:
        bench.run_case(case, None)
    untraced = time.perf_counter() - t0
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            t1 = time.perf_counter()
            for case in subset:
                bench.run_case(case, None, tracer)
            traced = time.perf_counter() - t1
        finally:
            tracer.uninstall()
        passes.append((tracer, traced))
    tracer, traced = passes[0]
    metrics, counts = layer_metrics(tracer)
    _, counts2 = layer_metrics(passes[1][0])
    mismatched = sorted(k for k in set(counts) | set(counts2) if counts.get(k) != counts2.get(k))
    for k in mismatched:
        print(f"COUNT MISMATCH {k}: {counts.get(k)} then {counts2.get(k)}")
    calls = {k[: -len('.calls')]: v for k, v in counts.items() if k.endswith(".calls")}
    ok, rule = reason_check(bench.workload.name, tracer, calls)
    print(f"workload reason [{bench.workload.name}]: {rule}: {'ok' if ok else 'FLAGGED'}")
    _, _, _, layer_by_kind = tracer.summary()
    for kind in bench.workload.ops:
        own = layer_by_kind.get(kind, {})
        whole = sum(own.values()) or 1.0
        print(f"  {kind:8s} self  " + " ".join(f"{k}={v / whole:.2f}" for k, v in own.most_common()))
        print(f"  {kind:8s} layer " + " ".join(
            f"{k}={v:.2f}" for k, v in attributed_shares(tracer, kind).items()))
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    metrics["trace.workload_reason_ok"] = (int(ok), "count")
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{bench.workload.name}-{bench.seed}.jsonl"
    tracer.dump(spans)
    extra = {"traced_instances": (len(subset), "count"), "spans": (len(tracer.name), "count")}
    return metrics, extra


# -- entry points ---------------------------------------------------------


def record() -> int:
    """Write pool.json: per pool instance, its op digests and stratification key."""
    from tracer import Tracer

    doc = {"python": platform.python_version(), "workloads": {}}
    for name in WORKLOADS:
        bench = Bench(name, 0)
        bench.import_program()
        bench.build_pool()
        work = OUT / f"{name}-record"
        work.mkdir(parents=True, exist_ok=True)
        keys, digests = [], []
        for i, case in enumerate(bench.pool):
            bench.files[case.name] = bench.write_case(work, i, case.name)
            tracer = Tracer()
            tracer.install()
            try:
                outputs = bench.run_case(case, None, tracer)
            finally:
                tracer.uninstall()
            if bench.failed:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            _, _, calls_by_kind, _ = tracer.summary()
            rotations = len(json.loads(outputs["poset"])["rotations"])
            lp_calls = calls_by_kind["solve"].get("simplex.simplex_maximize", 0)
            strata = {"tied": [lp_calls, rotations], "strict": [rotations]}.get(name, case.stratum)
            keys.append([*strata, len(tracer.name)])
            digests.append({op: digest(0, out) for op, out in outputs.items()})
        doc["workloads"][name] = {"fingerprint": bench.pool_fp, "keys": keys, "digests": digests}
        print(f"{name}: {len(keys)} pool instances recorded", file=sys.stderr)
    POOL.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record:
            return record()
        if args.workload is None:
            ap.error("--workload is required")
        bench = Bench(args.workload, args.seed)
        setup_s = bench.setup()
        print(f"workload {bench.workload.name}: {bench.workload.params}; {bench.workload.why}")
        if args.trace:
            metrics, extra = traced_run(bench)
        else:
            metrics, extra = end_to_end(bench, setup_s, timed_loop(bench, args.seconds))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in bench.failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
