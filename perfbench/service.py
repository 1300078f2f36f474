"""``service``: two closed-loop tenants against a ``repro serve`` daemon.

The daemon runs in its own process with one worker and
``max_engines=4``, on a socket and registry inside this run's scratch
directory.  Two client threads in this process act as tenants ``t0``
and ``t1``: each submits one job, waits until it is done, then submits
the next.  Jobs are seeded 4-frame small-scale renders drawn from five
games x ``re``/``baseline``; ten specs against a four-engine warm pool
make both warm reuse and cold builds with evictions occur.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time

from . import common
from .stats import Tally, check_outputs, median, min_samples

GAMES = ("ccs", "cde", "coc", "ctr", "hop")
TECHNIQUES = ("re", "baseline")
FRAMES = 4
TENANTS = ("t0", "t1")
#: Jobs a timed run completes at least, so ten lie beyond the p90.
MIN_JOBS = min_samples(0.9)
#: Jobs per phase of a traced run (untraced phase, then traced phase).
TRACED_JOBS = 60


def job_sequence(seed: int, client: int):
    """The seeded, endless spec stream of one client.

    Successive seeded permutations of all ten specs: every spec is
    requested equally often whatever the seed, so the seed moves the
    order (and with it which requests find a warm engine) but not the
    mix of games.
    """
    rng = random.Random(seed * 1009 + client)
    specs = [(alias, tech) for alias in GAMES for tech in TECHNIQUES]
    while True:
        block = list(specs)
        rng.shuffle(block)
        yield from block


class Daemon:
    """A ``repro serve`` process on a socket under ``directory``."""

    def __init__(self, directory: str, name: str, env: dict) -> None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        self.socket = os.path.join(directory, f"{name}.sock")
        self.log_path = os.path.join(directory, f"{name}.log")
        start = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.socket, "--workers", "1",
                 "--max-engines", "4",
                 "--registry", os.path.join(directory, f"{name}-registry")],
                cwd=common.ROOT, env=env, stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = start + 60.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited: {self._log_tail()}")
            try:
                with ServiceClient(self.socket, timeout=5.0) as client:
                    client.ping()
                break
            except ServiceError:
                if time.perf_counter() > deadline:
                    self.close()
                    raise RuntimeError("daemon did not answer within 60 s")
                time.sleep(0.01)
        self.setup = (start, time.perf_counter())

    def _log_tail(self) -> str:
        with open(self.log_path, "r", encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.socket) as client:
            return client.stats()

    def close(self) -> None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        if self.process.poll() is None:
            try:
                with ServiceClient(self.socket, timeout=10.0) as client:
                    client.shutdown()
            except ServiceError:
                self.process.terminate()
        common.stop(self.process, timeout=30.0)


def drive(daemon: Daemon, seed: int, keep_going) -> tuple:
    """Run the two closed-loop clients; each stops once
    ``keep_going(jobs_done, client_index)`` is false.  Returns
    ``(records, refused, (start, end))``, where ``end`` is when the
    last job was seen done."""
    from repro.errors import AdmissionError, ServiceError
    from repro.service.client import ServiceClient

    records: list = []
    refused: list = []
    errors: list = []
    lock = threading.Lock()
    start = time.perf_counter()

    def client_loop(index: int) -> None:
        specs = job_sequence(seed, index)
        try:
            with ServiceClient(daemon.socket, timeout=60.0) as client:
                while True:
                    with lock:
                        if not keep_going(len(records), index):
                            return
                    alias, tech = next(specs)
                    payload = {"kind": "render", "alias": alias,
                               "technique": tech, "num_frames": FRAMES,
                               "scale": "small", "tenant": TENANTS[index]}
                    begin = time.perf_counter()
                    try:
                        job_id = client.submit(payload)[0]["job_id"]
                    except AdmissionError as exc:
                        with lock:
                            refused.append(f"{alias}/{tech}: {exc}")
                        continue
                    submitted = time.perf_counter()
                    job = client.wait(job_id, timeout=60.0)
                    seen_wall = time.time()
                    seen = time.perf_counter()
                    with lock:
                        records.append({
                            "client": index, "spec": (alias, tech),
                            "job": job, "begin": begin,
                            "submit_ms": (submitted - begin) * 1e3,
                            "seen_wall": seen_wall, "end": seen,
                        })
        except ServiceError as exc:
            with lock:
                errors.append(f"client {index}: {exc}")

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(len(TENANTS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ends = [r["end"] for r in records]
    span = (start, max(ends) if ends else time.perf_counter())
    return records, refused + errors, span


def check(records: list, refused: list, expected: dict, tally: Tally) -> None:
    tally.attempt(len(records) + len(refused))
    for reason in refused:
        tally.fail(f"refused or lost: {reason}")
    for record in records:
        alias, tech = record["spec"]
        label = f"{alias}/{tech}"
        job = record["job"]
        if job.get("state") != "done":
            tally.fail(f"{label}: job {job.get('state')}: {job.get('error')}")
            continue
        if not job.get("run_id"):
            tally.fail(f"{label}: job not recorded in the tenant registry")
            continue
        check_outputs(label, job["summary"], expected.get(label), tally)


def layer_metrics(records: list, refused: list, stats: dict) -> dict:
    done = [r for r in records if r["job"].get("state") == "done"]
    jobs = [r["job"] for r in done]

    def ms(values):
        return median(values) if values else 0.0
    return {
        "service.submit_ms": ms([r["submit_ms"] for r in done]),
        "service.queue_ms": ms([(j["started_at"] - j["submitted_at"]) * 1e3
                                for j in jobs]),
        "service.execute_ms": ms([(j["finished_at"] - j["started_at"]) * 1e3
                                  for j in jobs]),
        "service.deliver_ms": ms([(r["seen_wall"] - r["job"]["finished_at"])
                                  * 1e3 for r in done]),
        "service.warm_ratio": (sum(1 for j in jobs if j.get("warm"))
                               / len(jobs) if jobs else 0.0),
        "service.batch_size_mean": float(
            stats["telemetry"]["histograms"]["batch_size"]["mean"] or 0.0),
        "service.refused": len(refused),
    }


def run(args, expected: dict, scratch: common.Scratch) -> dict:
    tally = Tally()
    table = expected["service"]
    notes = []
    if not args.trace:
        env = common.child_env()
        setups = []
        daemon = None
        try:
            for index in range(common.SETUPS):
                if daemon is not None:
                    daemon.close()
                daemon = Daemon(scratch.path, f"d{index}", env)
                setups.append(daemon.setup)
            deadline = time.perf_counter() + args.seconds

            def keep_going(done, _client):
                now = time.perf_counter()
                # The hard stop only matters when submits keep failing.
                return now < deadline + 90.0 and (done < MIN_JOBS
                                                   or now < deadline)
            records, refused, span = drive(daemon, args.seed, keep_going)
        finally:
            if daemon is not None:
                daemon.close()
        check(records, refused, table, tally)
        latencies = [(r["begin"], r["end"]) for r in records
                     if r["job"].get("state") == "done"]
        warm = sum(1 for r in records if r["job"].get("warm"))
        notes.append(f"jobs={len(records)} warm={warm} refused={len(refused)} "
                     f"latency samples={len(latencies)} "
                     "(one per job, submit to done); jobs_per_s is "
                     f"frames_per_s / {FRAMES}")
        return {
            "tally": tally, "notes": notes,
            "e2e": {
                "setup": setups,
                "busy": [span],
                "frames": len(latencies) * FRAMES,
                "latency": latencies,
                "peak_rss_mb": common.peak_rss_mb(),
            },
        }

    per_client = TRACED_JOBS // len(TENANTS)
    issued = [0] * len(TENANTS)

    def fixed(_done, client):
        if issued[client] >= per_client:
            return False
        issued[client] += 1
        return True

    walls = []
    dump_dir = scratch.sub("dumps")
    for phase, env in enumerate((common.child_env(),
                                 common.child_env(trace_dir=dump_dir))):
        issued[:] = [0] * len(TENANTS)
        daemon = Daemon(scratch.path, f"t{phase}", env)
        try:
            records, refused, span = drive(daemon, args.seed, fixed)
            stats = daemon.stats()
        finally:
            daemon.close()
        check(records, refused, table, tally)
        walls.append(span)
    from . import layers

    states = layers.merge_dumps(dump_dir)
    for state in states:
        state["label"] = f"repro serve (pid {state['pid']})"
    return {
        "tally": tally, "notes": notes, "states": states,
        "walls": tuple(walls),
        "extra": layer_metrics(records, refused, stats),
    }
