"""trustnet benchmark: whole-pipeline ops on generated workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted-cold --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seconds 50      # every workload, untraced and traced
    python3 perfbench/run.py --summary               # percentiles over every recorded run
    python3 perfbench/run.py --write-reference       # record default-seed outputs

One op is one ``trustnet.pipeline.run_pipeline`` call, run one at a time,
each in a fresh process that ``op.py --serve`` forks after importing the
program once. Set-up generates the inputs from ``--seed``; for planted-rerun
it also primes the run directory once. Ops then run back to back, and the
run ends after the op whose end falls nearest to ``--seconds``. Between ops
the inputs are generated again, up to eight more times spread over the run,
and must come out byte-identical. ``setup_s`` is the median generation time,
plus the priming run's time on planted-rerun. Every op's outputs are checked
(``check.py``); an op that raises or fails a check is a failed op.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` ops alternate untraced and traced, and it reports the
per-layer metrics of the traced ones. Each run writes a record, and the
spans of traced runs, under ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# the program is single-threaded; pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import check  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 8  # generations timed between ops, after the first one
RUN_DEADLINE_S = 170.0  # a run, set-up included, must end within 180 s
SERVER_START_S = 60.0  # time the op server may take to import the program


@dataclass
class Op:
    op: int
    cv_seed: int
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class OpServer:
    """The ``op.py --serve`` process: it forks one child per op.

    It runs in its own session, so :meth:`close` can kill it together with
    any child it left behind; :meth:`close` always waits for it to end.
    """

    def __init__(self, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
        self.log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "op.py"), "--serve"], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, bufsize=0,
            start_new_session=True,
        )
        self._buf = b""
        self.ready = self._read(SERVER_START_S) == {"ready": True}

    def request(self, req: dict, timeout_s: float) -> dict | None:
        """Send one op and wait for its answer; None if the server did not give one."""
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
        except OSError:
            return None
        return self._read(timeout_s + 15.0)

    def _read(self, timeout_s: float) -> dict | None:
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()  # the server kills a running child and exits
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Bench:
    """One run of one workload: set-up, timed ops, checks and the record.

    Use it as a context manager, or call :meth:`close`, so the op server stops.
    """

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 specs: dict | None = None, reference: dict | None = None,
                 work: Path | None = None, records: Path | None = None):
        from workloads import SPECS, DEFAULT_SEED

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = (specs or SPECS)[workload.corpus]
        self.reference = reference if reference is not None else (
            load_reference(workload.corpus) if seed == DEFAULT_SEED else None
        )
        self.work = work or ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.records = records or ROOT / ".perfbench_work" / "records"
        self.posts = self.work / "inputs" / "posts.jsonl"
        self.kb = self.work / "inputs" / "knowledge_base.csv"
        self.primed_dir = self.work / "primed"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []
        self.shape: dict[str, int] | None = None
        self.stderr_tail = ""
        self._server: OpServer | None = None

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None

    # -- one op in a fresh process ---------------------------------------

    def server(self) -> OpServer | None:
        if self._server is None:
            self.work.mkdir(parents=True, exist_ok=True)
            self._server = OpServer(self.work / "server.log")
            if not self._server.ready:
                self.close()
                return None
        return self._server

    def run_op(self, op: Op, out_dir: Path) -> Op:
        result_path = self.work / "result.json"
        log = self.work / "op.log"
        result_path.unlink(missing_ok=True)
        log.unlink(missing_ok=True)
        server = self.server()
        reply = server and server.request({
            "posts": str(self.posts), "knowledge_base": str(self.kb), "out_dir": str(out_dir),
            "cv_seed": op.cv_seed, "trace": op.traced, "op": op.op,
            "result": str(result_path), "log": str(log),
            "timeout_s": max(1.0, self.deadline - time.monotonic()),
        }, max(1.0, self.deadline - time.monotonic()))
        for path in (log, self.work / "server.log"):
            if path.is_file() and path.stat().st_size:
                self.stderr_tail = path.read_text(errors="replace")[-4000:]
                break
        if reply is None:
            op.problems.append("the op server did not start or did not answer")
            self.close()
            return op
        if reply["killed"]:
            op.problems.append(reply["killed"])
            return op
        if not result_path.is_file():
            op.problems.append(f"op process exited {reply['status']} without a result")
            return op
        result = json.loads(result_path.read_text())
        op.wall_s, op.cpu_s, op.peak_rss_mb = result["wall_s"], result["cpu_s"], result["peak_rss_mb"]
        if result["error"]:
            op.problems.append(result["error"].strip().splitlines()[-1])
            return op
        if op.traced:
            op.trace = {k: result[k] for k in ("counts", "spans", "count_errors")}
        self.check(op, out_dir)
        return op

    def check(self, op: Op, out_dir: Path) -> None:
        ref = check.reference_values(self.reference, op.cv_seed) if self.reference else None
        if self.reference and ref is None:
            op.problems.append(f"no reference recorded for cv_seed {op.cv_seed}")
        op.problems += check.check_run(out_dir, ref)
        op.digest = check.dir_digest(out_dir)
        first = self.digests.setdefault(op.cv_seed, op.digest)
        if op.digest != first:
            op.problems.append("run directory differs from an earlier op with the same config")
        if self.shape is None and not op.problems:
            self.shape = check.shape_counts(out_dir)

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs, and prime the run directory for planted-rerun.

        A priming run costs a whole cold op, so it is done once; generation is
        timed again between ops (:meth:`regenerate`).
        """
        from workloads import PRIME_CV_SEED

        shutil.rmtree(self.posts.parent, ignore_errors=True)
        self.posts.parent.mkdir(parents=True)
        self.gen_s = [self._generate(self.posts, self.kb)]
        self.inputs = {"posts_sha256": check.sha256_file(self.posts),
                       "knowledge_base_sha256": check.sha256_file(self.kb)}
        self.prime_s = 0.0
        if self.workload.primed:
            t0 = time.perf_counter()
            prime = self.run_op(Op(-1, PRIME_CV_SEED, False), self.primed_dir)
            self.prime_s = time.perf_counter() - t0
            self.problems += [f"priming: {p}" for p in prime.problems]

    def _generate(self, posts: Path, kb: Path) -> float:
        from workloads import generate

        t0 = time.perf_counter()
        generate(self.workload.corpus, self.seed, posts, kb, self.spec)
        return time.perf_counter() - t0

    def regenerate(self) -> None:
        """Time one more generation, and check it gives the same bytes."""
        again = self.work / "regenerated"
        again.mkdir(exist_ok=True)
        posts, kb = again / "posts.jsonl", again / "knowledge_base.csv"
        self.gen_s.append(self._generate(posts, kb))
        if (check.sha256_file(posts), check.sha256_file(kb)) != tuple(self.inputs.values()):
            self.problems.append("input generation is not byte-identical for one seed")
        shutil.rmtree(again)

    def setup_times(self) -> list[float]:
        """Seconds of each set-up: a generation, plus the priming run's time."""
        return [g + self.prime_s for g in self.gen_s]

    # -- the run ------------------------------------------------------------

    def run(self) -> dict:
        try:
            setup_times, ops = self.measure()
        finally:
            self.close()
        return self.summarize(setup_times, ops)

    def measure(self) -> tuple[list[float], list[Op]]:
        shutil.rmtree(self.work, ignore_errors=True)
        if self.server() is None:  # started before set-up, so its imports are not timed
            self.problems.append("the op server did not start")
        self.setup()
        ops: list[Op] = []
        cycles: list[float] = []
        start = time.monotonic()
        while True:
            k = len(ops)
            # a traced run measures (untraced, traced) pairs with the same config
            turn = k // 2 if self.trace else k
            op = Op(k, self.workload.cv_seeds[turn % len(self.workload.cv_seeds)],
                    traced=self.trace and k % 2 == 1)
            if self.workload.primed:
                out_dir = self.primed_dir
            else:
                out_dir = self.work / "runs" / f"op{k}"
            t0 = time.monotonic()
            ops.append(self.run_op(op, out_dir))
            if not self.workload.primed:
                shutil.rmtree(out_dir, ignore_errors=True)
            cycles.append(time.monotonic() - t0)
            # spread the set-up repeats over the run, as the ops are
            if len(self.gen_s) < 1 + SETUP_REPEATS * (time.monotonic() - start) / max(self.seconds, 1):
                self.regenerate()
            if self.trace and len(ops) % 2:
                continue
            # end after the op whose end falls nearest to --seconds
            now = time.monotonic()
            turn = statistics.median(cycles) * (1 + self.trace)
            if now - start + turn / 2 > self.seconds or now + max(cycles) * (1 + self.trace) > self.deadline:
                break
        return self.setup_times(), ops

    def summarize(self, setup_times: list[float], ops: list[Op]) -> dict:
        failed = sum(1 for o in ops if not o.ok)
        timed = [o for o in ops if o.wall_s > 0]
        plain = [o for o in timed if not o.traced] or timed
        links = (self.shape or {}).get("links", 0)
        tag = f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}-{time.time_ns()}"
        self.records.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": self.workload.name, "seed": self.seed, "trace": int(self.trace),
            "seconds": self.seconds, "inputs": self.inputs, "shape": self.shape,
            "setup_s": setup_times, "problems": self.problems,
            "ops": [{k: v for k, v in o.__dict__.items() if k != "trace"} for o in ops],
        }
        if not self.trace:
            metrics = {
                "wall_s": (_median(o.wall_s for o in plain), "s"),
                "interactions_per_s": (_median(links / o.wall_s for o in plain), "1/s"),
                "peak_rss_mb": (_median(o.peak_rss_mb for o in plain), "MiB"),
                "setup_s": (_median(setup_times), "s"),
                "success_ratio": ((len(ops) - failed) / len(ops), "1"),
            }
        else:
            traced = [o for o in ops if o.traced and o.trace]
            per_op = []
            for o in traced:
                spans = [tracing.Span(**s) for s in o.trace["spans"]]
                m = {**tracing.layer_times(spans), **o.trace["counts"]}
                m["pipeline.stage_coverage"] = tracing.stage_coverage(spans, o.wall_s)
                per_op.append(m)
            layer = tracing.median_metrics(per_op) if per_op else {}
            layer["pipeline.cpu_s"] = _median(o.cpu_s for o in plain)
            coverage = layer.pop("pipeline.stage_coverage", 0.0)
            record["traced_wall_s"] = _median(o.wall_s for o in traced)
            record["trace_overhead_s"] = record["traced_wall_s"] - _median(o.wall_s for o in plain)
            record["stage_coverage"] = coverage
            record["count_errors"] = sorted({e for o in traced for e in o.trace["count_errors"]})
            metrics = {name: (layer.get(name, 0.0), unit_of(name)) for name in tracing.METRICS}
            (self.records / f"{tag}.spans.json").write_text(
                json.dumps([o.trace["spans"] for o in traced]))
        record["metrics"] = {k: v for k, (v, _) in metrics.items()}
        (self.records / f"{tag}.json").write_text(json.dumps(record, indent=1))
        correct = failed == 0 and not self.problems
        result = {
            "correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        self.report_lines(record, ops, metrics)
        if not correct:
            print(self.stderr_tail, file=sys.stderr)
        shutil.rmtree(self.work, ignore_errors=True)
        return result

    def report_lines(self, record: dict, ops: list[Op], metrics: dict) -> None:
        w = self.workload
        print(f"== {w.name} seed {self.seed} trace {int(self.trace)}: {len(ops)} ops, "
              f"{sum(1 for o in ops if not o.ok)} failed ({w.why})")
        print(f"   inputs {json.dumps(record['inputs'])}")
        print(f"   shape  {json.dumps(record['shape'])}")
        for o in ops:
            if not o.ok:
                print(f"   op {o.op} failed: {'; '.join(o.problems)[:500]}")
        for p in self.problems:
            print(f"   problem: {p}")
        if self.trace:
            print(f"   trace overhead {record['trace_overhead_s']:+.3f} s (traced - untraced wall_s), "
                  f"stage spans cover {record['stage_coverage']:.1%} of the traced op")
            if record["stage_coverage"] < 0.95:
                print("   warning: stage spans cover under 95% of the op; a stage is not traced")
            wall = record["traced_wall_s"] or 1.0
            shares = {s: metrics[f"pipeline.stage.{s}_s"][0] / wall for s in tracing.STAGES}
            loop = sum(v for k, (v, _) in metrics.items() if k.endswith("_s") and (
                k.startswith(("voters.", "classify.")) or k == "pipeline.compute_sweep_s")) / wall
            print("   share of the traced op: " + ", ".join(f"{s} {v:.0%}" for s, v in shares.items())
                  + f"; voters+classify+compute_sweep self time {loop:.0%}")
            for e in record["count_errors"]:
                print(f"   count error: {e.strip().splitlines()[-1]}")
        for name, (value, unit) in metrics.items():
            print(f"   {name:34s} {value:14.6g} {unit}")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    if metric == "pipeline.bytes_written":
        return "B"
    return "count"


def load_reference(corpus: str) -> dict | None:
    path = HERE / "reference" / f"{corpus}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def percentile_summary(records: Path = ROOT / ".perfbench_work" / "records") -> None:
    """Per workload: wall_s median, the highest percentile with >= 10 samples beyond it, n."""
    walls: dict[str, list[float]] = {}
    for path in sorted(records.glob("*-trace0-*[0-9].json")):
        rec = json.loads(path.read_text())
        walls.setdefault(rec["workload"], []).extend(
            o["wall_s"] for o in rec["ops"] if not o["problems"]
        )
    for name, values in sorted(walls.items()):
        line = f"{name:14s} wall_s median {statistics.median(values):.4f} s, n={len(values)}"
        if len(values) >= 11:
            cuts = statistics.quantiles(values, n=100)
            p = max(p for p in range(1, 100) if sum(v > cuts[p - 1] for v in values) >= 10)
            line += f", p{p} {cuts[p - 1]:.4f} s"
        print(line)


def _reference_json(obj, indent: str = "") -> str:
    """JSON with one named value per line, so a changed value shows as one line."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    inner = indent + " "
    items = [f"{inner}{json.dumps(k)}: {_reference_json(v, inner)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}" + ("" if indent else "\n")


def write_reference() -> None:
    """Record the default seed's named output values for each corpus."""
    from workloads import DEFAULT_SEED, WORKLOADS

    for corpus in sorted({w.corpus for w in WORKLOADS.values()}):
        cv_seeds = sorted({0, *(s for w in WORKLOADS.values() if w.corpus == corpus for s in w.cv_seeds)})
        workload = next(w for w in WORKLOADS.values() if w.corpus == corpus)
        with Bench(workload, DEFAULT_SEED, 0, False, reference={}) as bench:
            bench.setup()
            out_dir = bench.work / "reference-run"
            shared, per_cv = None, {}
            for cv_seed in cv_seeds:
                op = bench.run_op(Op(0, cv_seed, False), out_dir)
                if op.problems:
                    raise SystemExit(f"{corpus} cv_seed {cv_seed}: {op.problems}")
                shared, per_cv[str(cv_seed)] = check.split_reference(check.extract(out_dir))
        path = HERE / "reference" / f"{corpus}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(_reference_json(
            {"corpus": corpus, "seed": DEFAULT_SEED, "values": shared, "per_cv_seed": per_cv}))
        shutil.rmtree(bench.work, ignore_errors=True)
        print(f"wrote {path.relative_to(ROOT)}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Bench.close, which stops the op server


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--summary", action="store_true", help="percentiles over recorded runs")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "trustnet" / "pipeline.py").is_file():
        print(f"perfbench: no trustnet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports trustnet, so only once src is on sys.path

    if args.summary:
        percentile_summary()
        return 0
    if args.write_reference:
        write_reference()
        return 0
    if args.all:
        results = {}
        for name, workload in WORKLOADS.items():
            for trace in (False, True):
                res = Bench(workload, args.seed, args.seconds, trace).run()
                results[f"{name}/trace{int(trace)}"] = res
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
