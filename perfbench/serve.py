"""The serve-mixed workload: open-loop reads beside sliding-window writes.

``repro serve`` runs in its own process (through :mod:`serve_boot`),
with one worker job, a disk store in the run directory and quotas high
enough that nothing is refused.  This process drives it with two
clients, each one thread holding one keep-alive connection:

* reads (tenant ``reader``) arrive open-loop at :data:`READ_RATE` per
  second: one in :data:`HOT_EVERY` from a hot set of repeated queries
  (answered from the engine's result cache in about 2 ms), the rest
  with constants the server has not seen in this run, which it has to
  plan, evaluate and store.  The read median therefore lies among the
  fresh reads and measures the program's own work, not HTTP;
* writes (tenant ``writer``) arrive open-loop every
  :data:`WRITE_PERIOD_S` seconds.  Each slides an interval-chain window
  one step right (insert a segment on the right, retract one on the
  left), so every version is new but the size stays fixed; each write is
  followed by one read of the new version.

Latency is timed from each request's due time.  How late the generator
itself sent a request (after both its due time and the previous reply
on its connection) is recorded; a run where the generator fell behind
is invalid.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import random
import statistics
import threading
import time
from fractions import Fraction

import common
import layers
from calibrate import Reference
from library import chain_text, oracle_engine, relation
from spans import OP_HEADER, self_times

from repro.constraints.database import ConstraintDatabase
from repro.constraints.io import save_database
from repro.constraints.parser import parse_formula

#: Reads per second: about a fifth of what one closed-loop client
#: reaches with this mix, because at higher rates garbage-collection
#: pauses queue so many reads that runs disagree (see README.md).
READ_RATE = 12.0

#: One read in HOT_EVERY comes from the hot set; the rest have a
#: constant new to the run.
HOT_EVERY = 4

#: Seconds between writes, and segments in the sliding window.
WRITE_PERIOD_S = 1.0
WINDOW = 6

#: A run is invalid when more than LATE_SHARE of the requests were sent
#: more than LATE_S after they were both due and possible.
LATE_S = 0.05
LATE_SHARE = 0.05

#: Query templates: (text with {c}, is boolean).
TEMPLATES = {
    1: (
        ("exists y. S(y) & x0 - y <= {c} & y - x0 <= {c}", False),
        ("S(x0) & x0 <= {c}", False),
        ("exists x0. S(x0) & x0 >= {c}", True),
    ),
    2: (
        ("exists x1. S(x0, x1) & x1 <= {c}", False),
        ("exists x0, x1. S(x0, x1) & x0 + x1 >= {c}", True),
    ),
}

#: The read after each write: the window widened by 1/2 on both sides.
VISIBLE_QUERY = "exists y. S(y) & x0 - y <= 1/2 & y - x0 <= 1/2"


#: Left end of the sliding window before the first write.  The same for
#: every seed: a window's cost varies by ±25% with where it sits, so
#: seeded positions would make runs with different seeds unequal work.
WINDOW_START = 0

#: Constants of the hot set, for every (database, template).
HOT_CONSTANTS = (-15, -5, 5, 15)


def databases(seed: int) -> dict[str, tuple[int, str]]:
    """name -> (arity, formula text); shapes fixed, positions seeded."""
    rng = random.Random(f"serve-mixed/{seed}")
    pick = lambda: rng.randint(-20, 20)
    bx, by, gx, gy = pick(), pick(), pick(), pick()
    return {
        "window": (1, chain_text(WINDOW_START, WINDOW, False)),
        "chain": (1, chain_text(pick(), 4, False)),
        "gapped": (1, chain_text(pick(), 3, True)),
        "boxes": (2, " | ".join(
            f"({bx + i} <= x0 & x0 <= {bx + i + 1} & "
            f"{by} <= x1 & x1 <= {by + 1})" for i in range(3)
        )),
        "grid": (2, f"(x0 = {gx}) | (x0 = {gx + 1}) | "
                    f"(x1 = {gy}) | (x1 = {gy + 1})"),
    }


def _rounds(rng: random.Random, items: list):
    """Endless items: every item once per round, each round shuffled."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def schedule(seed: int, seconds: float):
    """The run's reads: (due offset, database, query, boolean, kind).

    Every HOT_EVERY-th read is hot; hot and fresh reads each go round
    their (database, template) kinds, so every run has the same mix and
    only constants and order depend on the seed.
    """
    rng = random.Random(f"serve-mixed/reads/{seed}")
    dbs = databases(seed)
    kinds = [
        (name, template, boolean)
        for name in dbs if name != "window"
        for template, boolean in TEMPLATES[dbs[name][0]]
    ]
    hot = [
        (name, template.format(c=c), boolean)
        for name, template, boolean in kinds
        for c in HOT_CONSTANTS
    ]
    hot_reads, fresh_kinds = _rounds(rng, hot), _rounds(rng, kinds)
    used: set = set()
    reads = []
    for index in range(int(READ_RATE * seconds)):
        due = index / READ_RATE
        if index % HOT_EVERY == 0:
            name, query, boolean = next(hot_reads)
            reads.append((due, name, query, boolean, "hot"))
            continue
        name, template, boolean = next(fresh_kinds)
        while True:
            # Never an integer, so never a hot or warm-up constant.
            c = Fraction(rng.randint(-200, 200), rng.randint(2, 9))
            if c.denominator > 1 and (name, template, c) not in used:
                break
        used.add((name, template, c))
        query = template.format(c=f"({c})")
        reads.append((due, name, query, boolean, "fresh"))
    return hot, reads


def window_delta(start: int, step: int) -> list[list[str]]:
    """Write ``step``: the window [start+step, start+step+WINDOW] moves on."""
    left = start + step
    right = left + WINDOW
    return [
        ["insert", "S", f"{right} <= x0 & x0 <= {right + 1}"],
        ["retract", "S", f"{left} <= x0 & x0 <= {left + 1}"],
    ]


def window_answer(start: int, step: int) -> str:
    """Closed form of VISIBLE_QUERY after write ``step``."""
    left = Fraction(start + step + 1) - Fraction(1, 2)
    right = Fraction(start + step + 1 + WINDOW) + Fraction(1, 2)
    return f"({left}) <= x0 & x0 <= ({right})"


# ----------------------------------------------------------------------
# Oracle and checks
# ----------------------------------------------------------------------
class Checker:
    """Answers from the reference engine, compared with the server's."""

    def __init__(self, seed: int, queries) -> None:
        self.engines = {
            name: oracle_engine(text, arity)
            for name, (arity, text) in databases(seed).items()
            if name != "window"
        }
        self.answers = {}
        for name, query, boolean in queries:
            engine = self.engines[name]
            self.answers[(name, query)] = (
                engine.truth(query) if boolean else engine.evaluate(query)
            )
        self._verdicts: dict = {}

    def same(self, want, answer: dict) -> bool:
        """Is the server's rendered answer the relation ``want``?"""
        if isinstance(want, bool):
            return answer.get("truth") == want
        text = answer.get("formula")
        if text is None:
            return want.is_empty() and answer.get("empty") is True
        key = (str(want.formula), tuple(answer["variables"]), text)
        if key not in self._verdicts:
            self._verdicts[key] = (
                key[0] == text
                or want.equivalent(relation(answer["variables"], text))
            )
        return self._verdicts[key]

    def read(self, name: str, query: str, answer: dict) -> bool:
        return self.same(self.answers[(name, query)], answer)


# ----------------------------------------------------------------------
# Server and clients
# ----------------------------------------------------------------------
#: The generator sleeps until this long before a request is due, then
#: yields in a loop until it is: a sleeping thread wakes late on a busy
#: host, and that delay would count as server latency.
SPIN_S = 0.002


def wait_until(due: float) -> None:
    pause = due - time.perf_counter() - SPIN_S
    if pause > 0:
        time.sleep(pause)
    while time.perf_counter() < due:
        time.sleep(0)


class Client:
    """One keep-alive connection; ``post`` returns status, body, times."""

    def __init__(self, port: int, tenant: str) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )
        self.tenant = tenant

    def post(self, path: str, body: dict, op: str | None = None):
        headers = {"content-type": "application/json",
                   "x-repro-tenant": self.tenant}
        if op is not None:
            headers[OP_HEADER] = op
        payload = json.dumps(body)
        sent = time.perf_counter()
        self.connection.request("POST", path, payload, headers)
        response = self.connection.getresponse()
        data = json.loads(response.read())
        return response.status, data, sent, time.perf_counter()

    def get(self, path: str):
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def start_server(root, run_dir, seed, trace, tag, warm_queries):
    """Start a server on fresh files, warm it; returns (proc, port, secs)."""
    base = run_dir / tag
    base.mkdir()
    args = []
    for name, (arity, text) in databases(seed).items():
        path = base / f"{name}.cdb"
        save_database(
            ConstraintDatabase.from_formula(parse_formula(text), arity), path
        )
        args.append(f"{name}={path}")
    started = time.perf_counter()
    process = common.spawn(
        root, "serve_boot.py", str(base / "boot.json"), "1" if trace else "0",
        "serve", *args, "--port", "0", "--jobs", "1",
        "--cache-dir", str(base / "store"),
        "--quota-rate", "100000", "--quota-burst", "100000",
    )
    line = process.stdout.readline()
    if not line.startswith("serving"):
        common.stop(process)
        raise RuntimeError(f"server failed to start: {line!r}")
    port = int(line.strip().rsplit(":", 1)[1])
    client = Client(port, "warmup")
    try:
        for name, query in warm_queries:
            status, __, __, __ = client.post(
                "/v1/query", {"database": name, "query": query}
            )
            if status != 200:
                raise RuntimeError(f"warm-up query failed: {status}")
    except BaseException:
        common.stop(process)
        raise
    finally:
        client.close()
    return process, port, time.perf_counter() - started


def _counters(client: Client) -> dict[str, int]:
    return client.get("/v1/stats")["metrics"]


def _drive(process, port: int, reads, seconds: float, trace: bool) -> dict:
    """Send the schedule to a running server; returns the two logs and
    the CPU time the server used meanwhile.

    With ``trace`` every request names its operation in
    :data:`OP_HEADER`, so the server records its spans.
    """
    reader, writer = Client(port, "reader"), Client(port, "writer")
    before = _counters(reader)
    cpu_before = common.cpu_seconds(process.pid)
    read_log, write_log = [], []
    t0 = time.perf_counter() + 0.05
    deadline = t0 + seconds + 60

    def drive_reads() -> None:
        previous = t0
        for index, (due, name, query, boolean, kind) in enumerate(reads):
            due += t0
            if time.perf_counter() > deadline:
                break
            wait_until(due)
            op = f"r{index}" if trace else None
            status, data, sent, done = reader.post(
                "/v1/query", {"database": name, "query": query}, op
            )
            read_log.append({
                "index": index, "kind": kind, "op": op,
                "status": status, "data": data, "due": due,
                "sent": sent, "done": done,
                "late": sent - max(due, previous),
            })
            previous = done

    def drive_writes() -> None:
        previous = t0
        step = 0
        while (step + 0.5) * WRITE_PERIOD_S < seconds:
            due = t0 + (step + 0.5) * WRITE_PERIOD_S
            wait_until(due)
            if time.perf_counter() > deadline:
                break
            op = f"w{step}" if trace else None
            status, data, sent, done = writer.post(
                "/v1/update",
                {"database": "window",
                 "delta": window_delta(WINDOW_START, step)},
                op,
            )
            entry = {"step": step, "op": op, "status": status,
                     "data": data, "due": due, "sent": sent,
                     "done": done, "late": sent - max(due, previous)}
            if status == 200:
                vop = f"v{step}" if trace else None
                vstatus, vdata, vsent, vdone = writer.post(
                    "/v1/query",
                    {"database": "window", "query": VISIBLE_QUERY}, vop,
                )
                entry.update(vop=vop, vstatus=vstatus, vdata=vdata,
                             vsent=vsent, vdone=vdone)
                done = vdone
            write_log.append(entry)
            previous = done
            step += 1

    threads = [threading.Thread(target=drive_reads),
               threading.Thread(target=drive_writes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    cpu = common.cpu_seconds(process.pid) - cpu_before
    after = _counters(reader)
    reader.close()
    writer.close()
    return {
        "reads": read_log,
        "writes": write_log,
        "t0": t0,
        "cpu_s": cpu,
        "end": max(
            [e["done"] for e in read_log]
            + [e.get("vdone", e["done"]) for e in write_log]
        ),
        "counters": {
            key: value - before.get(key, 0) for key, value in after.items()
        },
    }


def _phase(root, run_dir, seed, seconds, trace, tag, warm) -> dict:
    """Start a server, send it the schedule of ``seconds``, stop it.

    The reference task runs beside it; ``cost`` is the server's CPU time
    per request answered, in reference pieces.
    """
    __, reads = schedule(seed, seconds)
    with Reference(root) as reference:
        process, port, setup = start_server(root, run_dir, seed, trace, tag,
                                            warm)
        try:
            logs = _drive(process, port, reads, seconds, trace)
        finally:
            code = common.stop(process)
    if code != 0:
        raise RuntimeError(f"server exited with {code}")
    logs["boot"] = json.loads((run_dir / tag / "boot.json").read_text())
    logs["setup_s"] = setup
    logs["scheduled"] = reads
    answered = (len(logs["reads"]) + len(logs["writes"])
                + sum(1 for e in logs["writes"] if "vdone" in e))
    logs["cpu_per_op_s"] = logs["cpu_s"] / answered
    logs["reference_s"] = reference.piece_s
    logs["cost"] = logs["cpu_per_op_s"] / reference.piece_s
    return logs


def _check(checker: Checker, logs: dict) -> tuple[list[str], int, int]:
    """(wrong answers, failed, refused) of one phase."""
    reads = logs["scheduled"]
    problems, failed, refused = [], len(reads) - len(logs["reads"]), 0
    for entry in logs["reads"]:
        due, name, query, boolean, __ = reads[entry["index"]]
        if entry["status"] in (429, 503):
            refused += 1
        elif entry["status"] != 200:
            failed += 1
        elif not checker.read(name, query, entry["data"]["answer"]):
            problems.append(f"{name}: {query}")
    for entry in logs["writes"]:
        if entry["status"] in (429, 503) or entry.get("vstatus") in (429, 503):
            refused += 1
            continue
        if entry["status"] != 200 or entry.get("vstatus") != 200:
            failed += 1
            continue
        want = relation(["x0"], window_answer(WINDOW_START, entry["step"]))
        if entry["vdata"]["fingerprint"] != entry["data"]["fingerprint"]:
            problems.append(f"write {entry['step']}: read an old version")
        elif not checker.same(want, entry["vdata"]["answer"]):
            problems.append(f"write {entry['step']}: window answer wrong")
    return problems, failed, refused


def _read_latency_ms(entry: dict) -> float:
    """A read's latency, timed from its due time."""
    return (entry["done"] - entry["due"]) * 1000


def run(seed: int, seconds: float, trace: bool, root: pathlib.Path,
        run_dir: pathlib.Path) -> dict:
    """One benchmark run of serve-mixed.

    Untraced: throw-away server set-ups, then one measured server.
    Traced: an untraced server for half the time, then one under span
    recording, with the same seed, for the other half; the end-to-end
    lines come from the first, the per-layer metrics from the second,
    and the tracing overhead from the two.
    """
    hot, reads = schedule(seed, seconds)
    checker = Checker(seed, {(n, q, b) for __, n, q, b, __ in reads})
    dbs = databases(seed)
    warm = [(name, query) for name, query, __ in hot]
    warm += [
        (name, template.format(c="(1/11)"))
        for name in dbs if name != "window"
        for template, __ in TEMPLATES[dbs[name][0]]
    ]
    warm.append(("window", VISIBLE_QUERY))

    setups = []
    if trace:
        seconds /= 2
    else:
        for tag in (f"setup-{i}" for i in range(common.SETUPS - 1)):
            process, __, secs = start_server(root, run_dir, seed, False, tag,
                                             warm)
            setups.append(secs)
            if common.stop(process) != 0:
                raise RuntimeError("set-up server failed")
    phases = [_phase(root, run_dir, seed, seconds, False, "plain", warm)]
    if trace:
        phases.append(_phase(root, run_dir, seed, seconds, True, "traced",
                             warm))
    plain = phases[0]
    setups.append(plain["setup_s"])

    problems, failed, refused, attempted = [], 0, 0, 0
    sends = []
    for logs in phases:
        wrong, lost, turned_away = _check(checker, logs)
        problems += wrong
        failed += lost
        refused += turned_away
        attempted += len(logs["scheduled"]) + len(logs["writes"])
        sends += [e["late"] for e in logs["reads"] + logs["writes"]]
    late = sum(1 for value in sends if value > LATE_S)

    # -- end-to-end metrics (untraced) -----------------------------------
    latencies = [_read_latency_ms(e) for e in plain["reads"]]
    visible = [
        (e["vdone"] - e["due"]) * 1000
        for e in plain["writes"] if "vdone" in e
    ]
    completed = len(plain["reads"]) + len(plain["writes"])
    out = {
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "wrong": len(problems),
        "problems": problems,
        "invalid": (
            f"generator sent {late} of {len(sends)} requests more than "
            f"{LATE_S * 1000:.0f} ms late" if late > LATE_SHARE * len(sends)
            else None
        ),
        "metrics": {
            "setup_s": statistics.median(setups),
            "cpu_per_op_refs": plain["cost"],
            "peak_rss_mb": plain["boot"]["peak_rss_mb"],
        },
        "printed": {
            "cpu_ms_per_op": plain["cpu_per_op_s"] * 1000,
            "reference_piece_ms": plain["reference_s"] * 1000,
            "op_p50_ms": statistics.median(latencies),
            "ops_per_s": completed / (plain["end"] - plain["t0"]),
            "visible_p50_ms": statistics.median(visible),
        },
        "tails": {"op_tail_ms": common.tail(latencies),
                  "visible_tail_ms": common.tail(visible)},
        "notes": {
            "generator_late_p50_ms": statistics.median(sends) * 1000,
            "generator_late_max_ms": max(sends) * 1000,
        },
    }
    if trace:
        out.update(_layers(plain, phases[1]))
    return out


def _layers(plain: dict, logs: dict) -> dict:
    """Per-layer metrics from the traced server's spans and counters."""
    boot = logs["boot"]
    traced = self_times(boot["spans"])
    client = {}
    for entry in logs["reads"]:
        client[entry["op"]] = entry["done"] - entry["sent"]
    for entry in logs["writes"]:
        client[entry["op"]] = entry["done"] - entry["sent"]
        if entry.get("vop"):
            client[entry["vop"]] = entry["vdone"] - entry["vsent"]
    samples: dict[str, list[float]] = {name: [] for name in
                                       layers.SERVER_MEDIANS}
    samples["server.outside_ns"] = []
    for op, record in traced.items():
        if op not in client:
            continue
        outside = client[op] * 1e9 - record["wall_ns"]
        samples["server.outside_ns"].append(outside)
        if op.startswith("r"):
            wait = record["layers"].get("server.admission_wait", (0, 0))[0]
            samples["server.handle_ms"].append(record["wall_ns"] / 1e6)
            samples["server.outside_ms"].append(outside / 1e6)
            samples["server.admission_wait_ms"].append(wait / 1e6)
    completed = len(logs["reads"]) + 2 * len(logs["writes"])
    overhead = layers.trace_overhead(
        [("request", plain["cost"], False), ("request", logs["cost"], True)]
    )
    return {
        "layers": layers.layer_metrics(
            traced, boot["facts"], logs["counters"], completed, overhead,
            samples,
        ),
        "trace_problems": layers.trace_problems(traced, layers.SERVE),
    }
