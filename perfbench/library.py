"""The library workloads: ``cold-2d`` and ``fixpoint-1d``.

Both use :class:`repro.QueryEngine` (and the datalog engine) with one
caller, in a worker process of their own, so the worker's peak memory
and start-up are the program's, not the checker's.  The benchmark
process generates the inputs, starts the worker, and checks every
answer the worker returns.

Run as ``python3 perfbench/library.py SPEC.json``, the module is the
worker: it prints ``ready`` once set up, runs operations for the spec's
seconds, and writes its results next to the spec.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import statistics
import sys
import time

import common
import layers
from calibrate import Reference
from spans import Recorder, install, self_times

from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.constraints.terms import LinearTerm
from repro.datalog import evaluate_program
from repro.datalog.parser import parse_program
from repro.engine import EngineCache, QueryEngine
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs.metrics import get_registry
from repro.queries.connectivity import connectivity_query_lfp

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

#: Tangents y = 2t·x − t² of the parabola y = x² at these t: pairwise
#: non-parallel with distinct crossings, so the six lines are in general
#: position and every cold-2d database has 15 vertices, 36 edges and 22
#: cells (73 faces), whatever the seed.
TANGENTS = (-4, -2, -1, 1, 2, 4)

#: Seeded offsets are drawn from [-SHIFT, SHIFT].
SHIFT = 40

#: The database: three wedges, each two half-planes given as (index
#: into TANGENTS, side).  The shape is the same for every seed, so runs
#: with different seeds do the same work; the seed only moves it.
WEDGES = (((5, "<="), (1, ">=")), ((3, ">="), (4, "<=")),
          ((0, ">="), (2, "<=")))

#: Constants of the boolean and projection queries, before translation.
GAP, CUT = -52, 2


def cold_database_text(dx: int, dy: int) -> str:
    """The wedges translated by ``(dx, dy)``, as formula text."""
    parts = []
    for wedge in WEDGES:
        atoms = []
        for line, op in wedge:
            t = TANGENTS[line]
            # 2t·(x0 − dx) − (x1 − dy) op t²
            atoms.append(f"{2 * t}*x0 + -1*x1 {op} {t * t + 2 * t * dx - dy}")
        parts.append("(" + " & ".join(atoms) + ")")
    return " | ".join(parts)


#: The kinds of the cold-2d queries, in the order they are asked.
COLD_KINDS = ("boolean", "projection", "region")


def cold_queries(dx: int, dy: int) -> list[str]:
    """A boolean, a projection and a region-quantified query.

    Constants move with the translation, so every answer is the
    untranslated answer moved by ``(dx, dy)``.
    """
    return [
        f"exists x0, x1. S(x0, x1) & x1 - x0 < {GAP + dy - dx}",
        f"exists x1. S(x0, x1) & x1 <= {CUT + dy}",
        "exists R. sub(R, S) & forall Rp. (adj(R, Rp) -> sub(Rp, S))",
    ]


def cold_shifts(seed: int):
    """Translations ``(x + 41·i, y_i)``, i = 0, 1, ..., all seeded.

    A line's constant is t² + 2t·dx − dy with |2t| ≥ 2, so steps of 41
    in dx against |dy| ≤ 40 make every line of every op new to the run:
    no process-wide cache carries work from one op to the next.  dx is
    never 0, so neither is the oracle's untranslated database.
    """
    rng = random.Random(f"cold-2d/shift/{seed}")
    x = rng.randint(1, SHIFT)
    for i in itertools.count():
        yield (x + 41 * i, rng.randint(-SHIFT, SHIFT))


#: The connectivity sentence of ``tests/test_ir_ground.py``.
CONN_1D = (
    "forall x1, x2. (S(x1) & S(x2)) -> "
    "(exists RX, RY. (x1) in RX & (x2) in RY & "
    "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
    "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY))"
)

#: One cycle of fixpoint-1d operations, shuffled per cycle by the seed.
#: Wall times on the reference machine: 0.33, 0.64, 0.64, 0.66, 0.91 s.
#: The median falls among the middle three, which cost the same, so it
#: does not jump between kinds from run to run.
FIXPOINT_CYCLE = (
    ("conn", "connectivity_query_lfp(1)", 3, False),
    ("conn", "CONN_1D", 4, False),
    ("conn", "CONN_1D", 4, False),
    ("reach", "reach", 18, False),
    ("conn", "connectivity_query_lfp(1)", 3, True),
)


#: Set-up runs these before the first timed operation.
FIXPOINT_WARMUP = (
    {"family": "conn", "query": "CONN_1D", "segments": 2, "gap": False,
     "start": 0},
    {"family": "reach", "query": "reach", "segments": 4, "gap": False,
     "start": 0},
)


def chain_text(start: int, segments: int, gap: bool) -> str:
    """``interval_chain(segments, gap)`` moved to begin at ``start``."""
    step = 2 if gap else 1
    return " | ".join(
        f"({start + step * i} <= x0 & x0 <= {start + step * i + 1})"
        for i in range(segments)
    )


def reach_program(start: int) -> str:
    """E15's unit-step reachability, seeded at the chain's left end."""
    return (
        f"Reach(x) :- S(x), x = {start}.\n"
        "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
    )


#: fixpoint-1d chains start at least this far apart, further than the
#: longest chain reaches, so no two ops share a constant or an atom.
STRIDE = 40


def fixpoint_ops(seed: int):
    """Endless fixpoint-1d op specs: a seeded order within each cycle."""
    rng = random.Random(f"fixpoint-1d/{seed}")
    start = rng.randint(-SHIFT, SHIFT)
    while True:
        cycle = list(FIXPOINT_CYCLE)
        rng.shuffle(cycle)
        for family, query, segments, gap in cycle:
            yield {
                "family": family,
                "query": query,
                "segments": segments,
                "gap": gap,
                "start": start,
            }
            # A seeded extra step mixes the starts' low bits: costs vary a
            # little with them (hash order of the constants).
            start += STRIDE + rng.randint(0, 7)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def new_database(text: str, arity: int) -> ConstraintDatabase:
    """A database from formula text, with the feasibility memo cleared
    so that no earlier op's LP answers help this one."""
    clear_feasibility_cache()
    return ConstraintDatabase.from_formula(parse_formula(text), arity)


def relation(variables, text: str) -> ConstraintRelation:
    return ConstraintRelation.make(tuple(variables), parse_formula(text))


class Worker:
    """Runs operations against the library, in the worker process."""

    def __init__(self, spec: dict, recorder: Recorder) -> None:
        self.spec = spec
        self.recorder = recorder
        self.registry = get_registry()
        #: jobs=1: one caller, one core; no store: nothing survives an op.
        self.config = EngineConfig.resolve(jobs=1, cache_dir=None)

    def _engine(self, text: str, arity: int) -> QueryEngine:
        return QueryEngine(
            new_database(text, arity), cache=EngineCache(), config=self.config
        )

    def cold_op(self, shift: tuple[int, int]) -> dict:
        dx, dy = shift
        text = cold_database_text(dx, dy)
        queries = cold_queries(dx, dy)
        misses = self.registry.get("engine.cache.extension.misses")
        started = time.perf_counter()
        engine = self._engine(text, 2)
        answers = []
        visible = None
        for kind, query in zip(COLD_KINDS, queries):
            if kind == "projection":
                answer = engine.evaluate(query)
                answers.append([list(answer.variables), str(answer.formula)])
            else:
                answers.append(engine.truth(query))
            if visible is None:
                visible = time.perf_counter() - started
        wall = time.perf_counter() - started
        return {
            "kind": "cold",
            "shift": [dx, dy],
            "answers": answers,
            "wall_s": wall,
            "visible_s": visible,
            "fingerprint": engine.fingerprint,
            "extension_misses": (
                self.registry.get("engine.cache.extension.misses") - misses
            ),
        }

    def fixpoint_op(self, op: dict) -> dict:
        text = chain_text(op["start"], op["segments"], op["gap"])
        started = time.perf_counter()
        if op["family"] == "conn":
            engine = self._engine(text, 1)
            query = (
                CONN_1D if op["query"] == "CONN_1D"
                else connectivity_query_lfp(1)
            )
            answer = engine.truth(query)
        else:
            outcome = evaluate_program(
                parse_program(reach_program(op["start"])),
                new_database(text, 1),
                max_stages=4 * op["segments"] + 8, executor="compiled",
            )
            reach = outcome["Reach"]
            answer = [
                outcome.converged, list(reach.variables), str(reach.formula)
            ]
        wall = time.perf_counter() - started
        kind = f"{op['query']}/{op['segments']}/{op['gap']}"
        return dict(op, kind=kind, answer=answer, wall_s=wall, visible_s=wall)

    def run(self) -> dict:
        spec = self.spec
        seed = spec["seed"]
        if spec["workload"] == layers.COLD:
            shifts = cold_shifts(seed)
            step = lambda: self.cold_op(next(shifts))
            warmup = [step()]
        else:
            specs = fixpoint_ops(seed)
            step = lambda: self.fixpoint_op(next(specs))
            # The same two small ops whatever the seed: one per family.
            warmup = [self.fixpoint_op(op) for op in FIXPOINT_WARMUP]
        print("ready", flush=True)
        if spec.get("setup_only"):
            return {}
        before = self.registry.snapshot()
        ops = []
        started = time.perf_counter()
        while time.perf_counter() - started < spec["seconds"]:
            cpu = time.process_time()
            if spec["trace"]:
                with self.recorder.op(str(len(ops))):
                    record = step()
            else:
                record = step()
            record["cpu_s"] = time.process_time() - cpu
            ops.append(record)
        window = time.perf_counter() - started
        after = self.registry.snapshot()
        return {
            "warmup": warmup,
            "ops": ops,
            "window_s": window,
            "counters": {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            },
            "peak_rss_mb": common.peak_rss_mb(),
        }


def worker_main(spec_path: str) -> int:
    spec = json.loads(pathlib.Path(spec_path).read_text())
    recorder = Recorder()
    if spec["trace"]:
        install(recorder, layers.TARGETS)
    result = Worker(spec, recorder).run()
    if spec.get("setup_only"):
        return 0
    result["spans"] = recorder.spans
    result["facts"] = recorder.facts
    pathlib.Path(spec["result"]).write_text(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Benchmark side: oracle, checks, metrics
# ----------------------------------------------------------------------
def oracle_engine(text: str, arity: int) -> QueryEngine:
    """The reference: interpreted executor, exact LP, optimizer off."""
    config = EngineConfig.resolve(
        jobs=1, cache_dir=None, executor="interpreted", lp_mode="exact",
        optimizer="off",
    )
    database = ConstraintDatabase.from_formula(parse_formula(text), arity)
    return QueryEngine(database, cache=EngineCache(), config=config)


def cold_oracle() -> list:
    """Answers over the untranslated database."""
    engine = oracle_engine(cold_database_text(0, 0), 2)
    answers = []
    for kind, query in zip(COLD_KINDS, cold_queries(0, 0)):
        if kind == "projection":
            answers.append(engine.evaluate(query))
        else:
            answers.append(engine.truth(query))
    return answers


def check_cold(record: dict, oracle: list, seen: set) -> list[str]:
    """Problems with one cold-2d op: wrong answers or a warm start."""
    problems = []
    dx, __ = record["shift"]
    for got, want, kind in zip(record["answers"], oracle, COLD_KINDS):
        if kind != "projection":
            if got != want:
                problems.append(f"{kind}: {got} != {want}")
            continue
        variables, text = got
        # The op's answer moved back by dx must be the oracle's answer.
        back = relation(variables, text).substitute({
            variables[0]: LinearTerm.variable(variables[0])
            + LinearTerm.const(dx)
        })
        if not want.equivalent(ConstraintRelation.make(variables, back)):
            problems.append(f"projection: {text} is not the oracle's "
                            f"{want} moved by {dx}")
    if record["fingerprint"] in seen:
        problems.append(f"database {record['fingerprint'][:12]} seen twice")
    seen.add(record["fingerprint"])
    if record["extension_misses"] < 1:
        problems.append("no region-extension miss: the op was not cold")
    return problems


def check_fixpoint(record: dict) -> list[str]:
    """Closed forms: connected iff no gap; Reach = [start, start + k]."""
    if record["family"] == "conn":
        want = not record["gap"]
        if record["answer"] != want:
            return [f"connectivity {record['answer']} != {want}"]
        return []
    converged, variables, text = record["answer"]
    start, end = record["start"], record["start"] + record["segments"]
    want = relation(variables, f"{start} <= {variables[0]} & "
                                f"{variables[0]} <= {end}")
    if not converged or not want.equivalent(relation(variables, text)):
        return [f"Reach {text} is not [{start}, {end}]"]
    return []


def _start_worker(root, spec_path, timeout):
    """Spawn a worker and wait for its ``ready``; returns (proc, secs)."""
    started = time.perf_counter()
    process = common.spawn(root, "library.py", str(spec_path))
    line = process.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        common.stop(process, timeout)
        raise RuntimeError("worker failed to start")
    return process, ready


def _work(root, run_dir: pathlib.Path, spec: dict, tag: str):
    """Run one worker to the end; returns (result, set-up seconds)."""
    spec = dict(spec, result=str(run_dir / f"{tag}.result.json"))
    spec_path = run_dir / f"{tag}.json"
    spec_path.write_text(json.dumps(spec))
    process, ready = _start_worker(root, spec_path, 60)
    code = common.stop(process, spec["seconds"] + 150, interrupt=False)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    if spec.get("setup_only"):
        return None, ready
    return json.loads(pathlib.Path(spec["result"]).read_text()), ready


def _problems(workload: str, result: dict, oracle) -> list[str]:
    """Wrong answers of one worker, warm-up ops included."""
    problems = []
    seen: set = set()
    for record in result["warmup"] + result["ops"]:
        if workload == layers.COLD:
            problems += check_cold(record, oracle, seen)
        else:
            problems += check_fixpoint(record)
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: pathlib.Path, run_dir: pathlib.Path) -> dict:
    """One benchmark run of a library workload.

    Untraced: throw-away set-ups, then one measured worker.
    Traced: an untraced worker for half the time, then a worker with
    the same seed under span recording for the other half; the end-to-
    end lines come from the first, the per-layer metrics from the
    second, and the tracing overhead from the two.
    """
    oracle = cold_oracle() if workload == layers.COLD else None
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": False}
    setups = []
    if trace:
        spec["seconds"] = seconds / 2
    else:
        for index in range(common.SETUPS - 1):
            setups.append(_work(root, run_dir, dict(spec, setup_only=True),
                                f"setup-{index}")[1])
    with Reference(root) as reference:
        result, ready = _work(root, run_dir, spec, "plain")
    setups.append(ready)
    problems = _problems(workload, result, oracle)
    attempted = len(result["warmup"]) + len(result["ops"])

    ops = result["ops"]
    walls = [r["wall_s"] * 1000 for r in ops]
    visible = [r["visible_s"] * 1000 for r in ops]
    cpu_per_op = statistics.fmean(r["cpu_s"] for r in ops)
    out = {
        "failed": 0,
        "refused": 0,
        "metrics": {
            "setup_s": statistics.median(setups),
            "cpu_per_op_refs": cpu_per_op / reference.piece_s,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "printed": {
            "cpu_ms_per_op": cpu_per_op * 1000,
            "reference_piece_ms": reference.piece_s * 1000,
            "op_p50_ms": statistics.median(walls),
            "ops_per_s": len(ops) / result["window_s"],
            "visible_p50_ms": statistics.median(visible),
        },
        "tails": {"op_tail_ms": common.tail(walls),
                  "visible_tail_ms": common.tail(visible)},
    }
    if trace:
        with Reference(root) as traced_reference:
            traced_result, __ = _work(root, run_dir, dict(spec, trace=True),
                                      "traced")
        problems += _problems(workload, traced_result, oracle)
        attempted += (len(traced_result["warmup"])
                      + len(traced_result["ops"]))
        traced = self_times(traced_result["spans"])
        overhead = layers.trace_overhead(
            [(r["kind"], r["cpu_s"] / reference.piece_s, False) for r in ops]
            + [(r["kind"], r["cpu_s"] / traced_reference.piece_s, True)
               for r in traced_result["ops"]]
        )
        out["layers"] = layers.layer_metrics(
            traced, traced_result["facts"], traced_result["counters"],
            len(traced_result["ops"]), overhead,
        )
        out["trace_problems"] = layers.trace_problems(traced, workload)
    # The warm-up ops are checked too, so they count as attempted.
    out.update(attempted=attempted, wrong=len(problems), problems=problems)
    return out


if __name__ == "__main__":
    sys.exit(worker_main(sys.argv[1]))
