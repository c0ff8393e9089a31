"""ensteal benchmark: timed extraction runs on generated inputs.

    python3 perfbench/run.py --workload desk_ref [--seed 9] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the program under test is ./src/ensteal.
Each repetition is a fresh `ensteal run-attack` process (perfbench/child.py)
with every BLAS pool pinned to one thread, and every process the benchmark
starts shares one CPU. On remote_oracle every repetition also starts a
fresh `ensteal serve-victim` process, because a server reused across
repetitions would answer the replayed request ids from its dedup cache
without charging the budget.

--trace 0 measures the end-to-end metrics: a few set-up-only probes, then
repetitions until --seconds is used up (at least two). --trace 1 makes one
untraced and one traced repetition and reports the per-layer metrics from
spans recorded around each layer's public functions (perfbench/spans.py).

Every repetition is checked: exit code, identical digests of report.json,
curves.csv and every checkpoint across repetitions (and between the traced
and the untraced run), the whole budget spent, final agreement above a
floor, non-null transfer rates where PGD runs, and on remote_oracle the
server's own ledger after the run. Human-readable lines go to stdout; the
last line is the JSON result. Working files go under ./.perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import spans
from workloads import AGREEMENT_FLOOR, VICTIM_EPOCHS, VICTIM_ROWS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # the whole benchmark run, set-up included, ends well inside 180 s
SETUP_PROBES = 4  # extra set-up-only processes per run, so setup_s is a median of several
MIN_REPS = 2  # the determinism check needs two repetitions
READY_TIMEOUT_S = 30.0


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


@dataclass
class Rep:
    tag: str
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    import_s: float = 0.0
    server_ready_s: float = 0.0
    numpy: str = ""
    report: Optional[dict] = None
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _digests(out: Path) -> dict:
    files = [out / "report.json", out / "curves.csv", *sorted(out.rglob("*.ckpt"))]
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
        for p in files
    }


def _derived_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _ask_budget(port: int, request_id: int, timeout: float) -> int:
    """One `budget` request on a new connection; returns `remaining`."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(json.dumps({"id": request_id, "op": "budget"}).encode() + b"\n")
        buf = b""
        while b"\n" not in buf:
            chunk = conn.recv(4096)
            if not chunk:
                raise OSError("server closed the connection")
            buf += chunk
    reply = json.loads(buf.split(b"\n", 1)[0])
    if "remaining" not in reply:
        raise OSError(f"budget request refused: {reply}")
    return int(reply["remaining"])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Bench:
    def __init__(self, wl: Workload, seed: int, trace: bool, root: Path, deadline: float):
        self.wl, self.seed, self.root, self.deadline = wl, seed, root, deadline
        self.work = root / ".perfbench" / f"{wl.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(root / "src")}
        self.checkpoint: Optional[str] = None
        self.port = _free_port() if wl.remote else None

    def _rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def _cli(self, *args: str) -> None:
        with open(self.work / "inputs.log", "a") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ensteal.cli", *args],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self._wait(proc, f"ensteal {args[0]}")
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"ensteal {args[0]} failed; see {self.work / 'inputs.log'}")

    def prepare(self) -> None:
        """Generate every input before any timing: the victim checkpoint
        (where the workload loads one) and the run-attack config."""
        inputs = self.work / "inputs"
        inputs.mkdir()
        if self.wl.load_victim:
            data = inputs / "victim_train.aotd"
            ckpt = inputs / "victim.ckpt"
            self._cli(
                "gen-data", *self.wl.gen_data_args(), "--n", str(VICTIM_ROWS),
                "--seed", str(_derived_seed(self.wl.name, self.seed, "victim-data")),
                "--out", self._rel(data),
            )
            self._cli(
                "train-victim", "--train", self._rel(data), "--epochs", str(VICTIM_EPOCHS),
                "--seed", str(_derived_seed(self.wl.name, self.seed, "victim-train")),
                "--out", self._rel(ckpt),
            )
            self.checkpoint = self._rel(ckpt)
        self.config = inputs / "config.json"
        cfg = self.wl.config(self.seed, self.checkpoint, self.port)
        self.config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    def _start_server(self, tag: str, rep: Rep):
        with open(self.work / f"{tag}.server.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "ensteal.cli", "serve-victim",
                    "--checkpoint", self.checkpoint, "--budget", str(self.wl.budget),
                    "--port", str(self.port),
                ],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        give_up = min(time.monotonic() + READY_TIMEOUT_S, self.deadline)
        while True:
            try:
                remaining = _ask_budget(self.port, 1, timeout=5.0)
                break
            except (OSError, ValueError):
                if proc.poll() is not None or time.monotonic() > give_up:
                    _stop(proc)
                    raise BenchError(f"victim server did not come up; see {tag}.server.log")
                time.sleep(0.002)
        rep.server_ready_s = time.monotonic() - t0
        if remaining != self.wl.budget:
            rep.errors.append(f"fresh server reports {remaining} queries left, not {self.wl.budget}")
        return proc, t0

    def _wait(self, proc: subprocess.Popen, what: str) -> None:
        try:
            proc.wait(timeout=max(self.deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} did not finish before the deadline") from None

    def run(self, tag: str, setup_only: bool = False, spans_path: Optional[Path] = None) -> Rep:
        rep = Rep(tag)
        out = self.work / tag
        stamps_path = self.work / f"{tag}.stamps.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(stamps_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        cmd += ["--", "--config", self._rel(self.config), "--out", self._rel(out)]
        server = child = None
        t_wall = time.monotonic()
        try:
            if self.wl.remote:
                server, t0 = self._start_server(tag, rep)
            with open(self.work / f"{tag}.log", "w") as log:
                if server is None:
                    t0 = time.monotonic()
                child = subprocess.Popen(
                    cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
                )
            self._wait(child, tag)
            self._read_stamps(rep, stamps_path, child.returncode, t0, setup_only)
            if rep.ok and not setup_only:
                self._check_outputs(rep, out, server)
        finally:
            for proc in (child, server):
                if proc is not None:
                    _stop(proc)
            rep.wall_s = time.monotonic() - t_wall
        return rep

    def _read_stamps(self, rep: Rep, path: Path, returncode: int, t0: float, setup_only: bool) -> None:
        try:
            st = json.loads(path.read_text())
        except (OSError, ValueError):
            rep.errors.append(f"exit code {returncode}, no stamps; see {rep.tag}.log")
            return
        if returncode != 0 or st["rc"] != 0:
            rep.errors.append(f"exit code {returncode}; see {rep.tag}.log")
        src = (self.root / "src").resolve()
        if Path(st["ensteal_file"]).resolve().parent.parent != src:
            rep.errors.append(f"ensteal imported from {st['ensteal_file']}, not {src}")
        rep.numpy = st["numpy"]
        rep.import_s = st["imported"] - st["start"]
        if "enter" not in st:
            rep.errors.append("run_attack was never entered")
            return
        rep.setup_s = st["enter"] - t0
        if setup_only:
            return
        if "exit" not in st:
            rep.errors.append("run_attack did not return")
            return
        rep.run_s = st["exit"] - st["enter"]
        rep.rss_mb = st["maxrss_kb"] / 1024.0

    def _check_outputs(self, rep: Rep, out: Path, server) -> None:
        try:
            rep.report = json.loads((out / "report.json").read_text())
            spent = rep.report["budget"]["spent"]
            agreement = rep.report["final"]["ensemble_agreement"]
        except (OSError, ValueError, KeyError) as exc:
            rep.errors.append(f"unreadable report.json: {exc!r}")
            return
        rep.digests = _digests(out)
        missing = [name for name, d in rep.digests.items() if d is None]
        if missing:
            rep.errors.append(f"missing artifacts: {missing}")
        if spent != self.wl.budget:
            rep.errors.append(f"budget.spent is {spent}, not {self.wl.budget}")
        if not agreement >= AGREEMENT_FLOOR:
            rep.errors.append(f"final agreement {agreement} below floor {AGREEMENT_FLOOR}")
        if self.wl.adversarial is not None:
            rows = rep.report.get("adversarial", [])
            if len(rows) != len(rep.report["members"]) or any(r["transfer_rate"] is None for r in rows):
                rep.errors.append("a member's transfer rate is null")
        if server is not None:
            # a new connection and an id the client never used, so no cached reply
            try:
                remaining = _ask_budget(self.port, 2, timeout=10.0)
            except (OSError, ValueError) as exc:
                rep.errors.append(f"ledger request failed: {exc}")
                return
            if remaining != self.wl.budget - spent:
                rep.errors.append(
                    f"server ledger says {remaining} left, expected {self.wl.budget - spent}"
                )


def _check_same_outputs(reps: list[Rep]) -> None:
    """Every repetition of one (workload, seed) must write the same bytes."""
    first = next((r for r in reps if r.ok), None)
    for r in reps:
        if r.ok and r is not first and r.digests != first.digests:
            changed = sorted(k for k in r.digests if r.digests[k] != first.digests.get(k))
            r.errors.append(f"artifacts differ from {first.tag}: {changed}")


def measure(bench: Bench, seconds: float) -> tuple[list[Rep], dict]:
    t_begin = time.monotonic()
    probes = [bench.run(f"setup{k}", setup_only=True) for k in range(SETUP_PROBES)]
    reps: list[Rep] = []
    while True:
        reps.append(bench.run(f"rep{len(reps)}"))
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() - t_begin + typical > seconds:
            break
        if time.monotonic() + typical > bench.deadline:
            break
    _check_same_outputs(reps)
    good = [r for r in reps if r.ok]
    if not good:
        raise BenchError("no repetition succeeded: " + "; ".join(e for r in reps for e in r.errors))
    run_s = sorted(r.run_s for r in good)
    print(
        f"run_s: median {statistics.median(run_s)!r} s, max {run_s[-1]!r} s over n={len(run_s)} "
        "repetitions (too few for a tail percentile with ten samples beyond it)"
    )
    setups = [r.setup_s for r in probes + reps if r.ok]
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in good),
        "final_agreement": good[0].report["final"]["ensemble_agreement"],
    }
    return probes + reps, metrics


def trace(bench: Bench) -> tuple[list[Rep], dict]:
    spans_path = bench.work / "traced.spans"
    base = bench.run("untraced")
    traced = bench.run("traced", spans_path=spans_path)
    _check_same_outputs([base, traced])
    if not traced.ok:
        raise BenchError("traced run failed: " + "; ".join(traced.errors))
    metrics, partition = spans.summarize(spans.load(spans_path))
    metrics["cli.import_s"] = traced.import_s
    metrics["cli.server_ready_s"] = traced.server_ready_s
    metrics["trace.overhead_s"] = traced.run_s - base.run_s
    total = sum(partition.values())
    print(f"traced run_s {traced.run_s!r} s; direct children of run_attack by layer:")
    for name, secs in partition.items():
        print(f"  {name:<14} {secs:10.4f} s  {100 * secs / total:5.1f}%")
    leaders = {
        "busy": max(spans.LAYERS, key=lambda layer: metrics[f"{layer}.busy_s"]),
        "stage": max((k for k in partition if k != "harness.self"), key=partition.get),
    }
    print(f"largest layer busy time: {leaders['busy']}; largest stage: {leaders['stage']}")
    view, layer = bench.wl.dominant
    verdict = "as expected" if leaders[view] == layer else "NOT as expected"
    print(f"workload expects {layer} to lead by {view}: {verdict}")
    (bench.work / "trace_summary.json").write_text(
        json.dumps({"metrics": metrics, "partition": partition}, indent=2) + "\n"
    )
    return [base, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind through the finally blocks that stop the child processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # Every process started from here inherits one CPU. Client and server then
    # hand each request over on the same CPU: across CPUs of a virtual
    # machine that handover made remote_oracle 1.5-2x slower and erratic.
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "ensteal" / "__init__.py").is_file():
            raise BenchError("no ./src/ensteal here; run from the root of an ensteal checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), root, deadline)
        bench.prepare()
        reps, metrics = trace(bench) if args.trace else measure(bench, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(
        f"env: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={nproc} cpu={cpu} python={platform.python_version()} "
        f"numpy={next((r.numpy for r in reps if r.numpy), 'unknown')} blas_threads={PINNED_THREADS['OPENBLAS_NUM_THREADS']}"
    )
    for r in reps:
        status = "ok" if r.ok else "FAILED: " + "; ".join(r.errors)
        print(
            f"{r.tag}: setup_s={r.setup_s!r} run_s={r.run_s!r} peak_rss_mb={r.rss_mb!r} "
            f"import_s={r.import_s!r} server_ready_s={r.server_ready_s!r} {status}"
        )
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']}: {value!r} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(not r.ok for r in reps)
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
