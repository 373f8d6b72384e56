"""ybtwist benchmark: time to verdict over whole skew-brace catalogs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog4-all --seed 1 --seconds 20 --trace 0

Every pass calls the public command line in this process, as
``ybtwist.cli.main(["verify", catalog, "--level", "all", "--config", ceilings,
"--out", report])``, or ``main(["enumerate", ...])`` for ``enumerate7``.  A run
sets the workload up several times, then repeats passes for about
``--seconds`` seconds (at least one), then runs the untimed correctness gate.

``--trace 0`` reports the end-to-end metrics: median pass wall time, subjects
per second, median set-up time, peak memory and the share of executed checks
that pass.  Pass and set-up times are scaled to a nominal machine speed by
``speed.SpeedSampler``, because the host's speed drifts by tens of percent
between runs; the raw times are printed beside them.

``--trace 1`` repeats untraced passes for ``--seconds`` seconds, then passes
with every layer wrapped by ``tracing.Tracer`` for as long again (at least
two, whose counts must agree exactly), and reports per-layer self times,
counts and the tracing overhead, all in raw seconds; the spans go to
``.perfbench_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
CLI calls in the measured passes; a call fails when it raises, or when its
exit code or report breaks the documented contract.  A checked identity that
does not hold is a verdict, not a failed call: it shows in the pass share.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402  (the benchmark's own modules, next to this file)
import tracing  # noqa: E402

WORKLOADS = ("catalog4-all", "catalog6-map-matrix", "universal56", "enumerate7")
SETUP_REPEATS = 11
TRACED_PASSES = 2

#: skew braces up to isomorphism (Guarnieri-Vendramin tables) and labelled with neutral 0
CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1}
LABELLED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 10, 5: 6, 6: 280, 7: 120}

#: universal56 draws this many order-6 subjects with abelian addition and as
#: many without, each half apportioned over its isomorphism-class strata by size
UNIVERSAL56_HALF = 16


def _fresh_import():
    """Import the package from this checkout, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "ybtwist" or m.startswith("ybtwist.")]:
        del sys.modules[name]
    cli = importlib.import_module("ybtwist.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ybtwist imported from {cli.__file__}, not from {SRC}")
    return cli


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _brace_record(b) -> dict:
    return {"n": b.n, "add": [list(r) for r in b.add.table], "mul": [list(r) for r in b.mul.table]}


def _digest(record: dict) -> str:
    """SHA-256 of canonical JSON, computed here to check the report independently."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _element_order(table, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x, k = table[x][a], k + 1
    return k


def _class_signature(b) -> tuple:
    """An isomorphism invariant: per element, its additive and multiplicative
    orders and the fixed points of lambda_a(x) = -a + a o x.  At order 6 it
    separates all six classes."""
    add, mul, n = b.add.table, b.mul.table, b.n
    neg = [add[a].index(0) for a in range(n)]
    return tuple(sorted(
        (_element_order(add, a), _element_order(mul, a),
         sum(add[neg[a]][mul[a][x]] == x for x in range(n)))
        for a in range(n)))


def _stratified_draw(braces, total: int, rng: random.Random) -> list:
    """Draw ``total`` braces, each isomorphism-class stratum in proportion to its size."""
    strata: dict[tuple, list] = {}
    for b in braces:
        strata.setdefault(_class_signature(b), []).append(b)
    keys = sorted(strata)
    shares = [total * len(strata[k]) / len(braces) for k in keys]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(len(keys)), key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [b for k, c in zip(keys, counts) for b in rng.sample(strata[k], c)]


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs and return its passes and expectations.

    The seed orders each catalog and draws universal56's order-6 subjects;
    enumerate7 has no input, so its seed changes nothing."""
    from ybtwist.braces import enumerate_braces

    rng = random.Random(seed)
    if workload == "enumerate7":
        cfg = _write_json(work / "ceilings.json", {"enumeration": 7})
        orders = list(range(1, 8))
        return {
            "passes": [["enumerate", "--order", str(n), "--skew", "--config", cfg,
                        "--out", str(work / f"catalog{n}.json")] for n in orders],
            "orders": orders,
            "subjects": sum(LABELLED_COUNTS.values()),
        }
    if workload == "catalog4-all":
        braces = [b for n in range(1, 5) for b in enumerate_braces(n, skew=True)]
        ceilings = {"universal": 4, "yangian": 4}
    elif workload == "catalog6-map-matrix":
        braces = enumerate_braces(6, skew=True)
        ceilings = {"universal": 4, "yangian": 4}
    else:  # universal56
        order6 = enumerate_braces(6, skew=True)
        braces = enumerate_braces(5, skew=True)
        for abelian in (True, False):
            half = [b for b in order6 if b.add.is_abelian == abelian]
            braces += _stratified_draw(half, UNIVERSAL56_HALF, rng)
        ceilings = {"universal": 6, "yangian": 4}
    rng.shuffle(braces)
    records = [_brace_record(b) for b in braces]
    catalog = _write_json(work / "catalog.json",
                          {"version": 1, "count": len(records), "braces": records})
    cfg = _write_json(work / "ceilings.json", ceilings)
    return {
        "passes": [["verify", catalog, "--level", "all", "--config", cfg,
                    "--out", str(work / "report.json")]],
        "digests": [_digest(r) for r in records],
        "abelian": [all(r["add"][a][b] == r["add"][b][a] for a in range(r["n"])
                        for b in range(r["n"])) for r in records],
        "subjects": len(records),
    }


def setup(workload: str, seed: int, work: Path, sampler: speed.SpeedSampler):
    """Import and generate ``SETUP_REPEATS`` times; return the last result and the
    (raw, nominal-speed) time of each repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        raw, nominal, (cli, spec) = sampler.time(
            lambda: (_fresh_import(), generate(workload, seed, work)))
        times.append((raw, nominal))
    return cli, spec, times


# ------------------------------------------------------------------ passes


def _call(cli, argv) -> tuple[int | None, str]:
    """One CLI call; a raised exception is recorded as exit code None."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # a traceback is never an answer: count it, keep measuring
        traceback.print_exc()
        rc = None
    return rc, out.getvalue()


def run_pass(cli, spec, sampler: speed.SpeedSampler | None) -> tuple[float, float | None, list]:
    """Time one pass; return its raw wall time, its time at nominal speed (None
    without a sampler) and the (argv, exit code, stdout) of each call."""
    gc.collect()

    def calls():
        return [(argv, *_call(cli, argv)) for argv in spec["passes"]]

    if sampler is not None:
        return sampler.time(calls)
    t0 = time.perf_counter()
    results = calls()
    return time.perf_counter() - t0, None, results


def repeat(seconds: float, minimum: int, one_pass) -> None:
    """Call ``one_pass`` at least ``minimum`` times, then again while half a
    pass, judged by the first, still fits in ``seconds``."""
    start = time.perf_counter()
    one_pass()
    first = time.perf_counter() - start
    count = 1
    while count < minimum or time.perf_counter() - start + first / 2 <= seconds:
        one_pass()
        count += 1


def _verify_outcome(spec, argv, rc) -> tuple[list, dict, list[str]]:
    """Read one verify report; return its verdicts, summary and contract breaches."""
    report = json.loads(Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8"))
    problems = []
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    verdicts = []
    subjects = report["subjects"]
    if [s["digest"] for s in subjects] != spec["digests"]:
        problems.append("report subjects do not match the inputs one to one, by digest")
    for s, abelian in zip(subjects, spec["abelian"]):
        statuses = [(c["name"], c["status"]) for c in s["checks"]]
        verdicts.append((s["digest"], statuses))
        for _name, status in statuses:
            totals[status] += 1
        if abelian and any(st == "fail" for _n, st in statuses):
            problems.append(f"abelian-addition subject {s['digest'][:12]} fails a check")
    if totals != report["summary"]:
        problems.append(f"summary {report['summary']} disagrees with the checks {totals}")
    if rc != (0 if totals["fail"] == 0 else 1):
        problems.append(f"exit code {rc} with {totals['fail']} failing checks")
    return verdicts, totals, problems


def _enumerate_outcome(spec, work: Path, results) -> tuple[list, dict, list[str]]:
    """Check each order's catalog against the labelled and isomorphism-class counts."""
    from ybtwist import jsonio
    from ybtwist.braces import dedupe_braces

    problems, verdicts = [], []
    for n, (argv, rc, out) in zip(spec["orders"], results):
        catalog = json.loads((work / f"catalog{n}.json").read_text(encoding="utf-8"))
        found = jsonio.decode_catalog(catalog)
        classes = len(dedupe_braces(found))
        verdicts.append((n, len(found), classes))
        if rc != 0 or out.strip() != str(len(found)):
            problems.append(f"order {n}: exit code {rc}, printed {out.strip()!r}")
        if len(found) != LABELLED_COUNTS[n] or classes != CLASS_COUNTS[n]:
            problems.append(f"order {n}: {len(found)} labelled in {classes} classes, "
                            f"expected {LABELLED_COUNTS[n]} in {CLASS_COUNTS[n]}")
    checks = 2 * len(spec["orders"])
    return verdicts, {"pass": checks - len(problems), "fail": len(problems), "skipped": 0}, problems


def outcome(workload: str, spec, work: Path, results) -> tuple[list, dict, list[str]]:
    """Verdicts, check totals and contract breaches of one pass (untimed)."""
    nothing = {"pass": 0, "fail": 0, "skipped": 0}
    if any(rc is None for _argv, rc, _out in results):
        return [], nothing, ["a CLI call raised"]
    try:
        if workload == "enumerate7":
            return _enumerate_outcome(spec, work, results)
        (argv, rc, _out), = results
        return _verify_outcome(spec, argv, rc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [], nothing, [f"unreadable output: {exc!r}"]


def failing_checks(spec) -> dict[str, int]:
    """Failing checks of the last report, by check name and witness kind."""
    if "digests" not in spec:
        return {}
    argv = spec["passes"][0]
    report = json.loads(Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8"))
    tally: dict[str, int] = {}
    for subject in report["subjects"]:
        for c in subject["checks"]:
            if c["status"] == "fail":
                w = c.get("witness")
                kind = (w.get("error") or w.get("check")) if isinstance(w, dict) else None
                key = f"{c['name']}[{kind}]"
                tally[key] = tally.get(key, 0) + 1
    return dict(sorted(tally.items()))


# -------------------------------------------------------------------- gate


def negative_controls() -> list[str]:
    """Each injected corruption must fail with a witness."""
    import ybtwist as yb
    from ybtwist.matrices import ExactMatrix, rho_basis_entry
    from ybtwist.yangian import check_defining_relations, check_rtt

    def first_witness(rep):
        return None if rep.ok else rep.failures()[0].witness

    z4 = yb.validate_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
    radical = yb.validate_group([[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)])
    ctx = yb.algebra_from_brace(yb.validate_brace(z4, radical))

    def transposed(i):
        r, c = rho_basis_entry(ctx, i)
        return ExactMatrix(ctx.n, {(c, r): 1})

    flipped = dict(ctx.twist.coeffs)
    key = next(iter(flipped))
    flipped[key] = -flipped[key]
    swapped = dict(ctx.twisted_r_matrix.coeffs)
    k1, k2 = sorted(swapped)[:2]
    swapped[k1], swapped[k2] = swapped[k2] + 1, swapped[k1] - 1
    cocycle = yb.verify_twist_conditions(ctx, twist=ctx.tensor(2, flipped)).check("cocycle")

    controls = {
        "corrupted sigma braid": first_witness(yb.check_braid(yb.YBMap(
            3, tuple(tuple((b + a) % 3 for b in range(3)) for a in range(3)),
            tuple(tuple(range(3)) for _ in range(3))))),
        "transposed rho images": first_witness(yb.rho_is_homomorphism(ctx, images=transposed)),
        "flipped twist coefficient": None if cocycle.passed else cocycle.witness,
        "swapped R terms": first_witness(yb.verify_universal_ybe(ctx, rf=ctx.tensor(2, swapped))),
        "transposed defining relations": first_witness(
            check_defining_relations(2, 2, 2, transpose=True)),
        "shifted L pole": first_witness(check_rtt(2, corrupt_shift=2)),
    }
    return [f"negative control not detected: {name}"
            for name, witness in controls.items() if witness is None]


# ------------------------------------------------------------------ report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ybtwist" / "__init__.py").is_file():
        print(f"no ybtwist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)

    sampler = speed.SpeedSampler()
    cli, spec, setup_times = setup(args.workload, args.seed, work, sampler)
    problems: list[str] = []
    walls, verdicts, totals = [], [], []  # walls: (raw, nominal-speed) per pass
    attempted = failed = 0

    def measured(raw, nominal, results):
        nonlocal attempted, failed
        v, t, p = outcome(args.workload, spec, work, results)
        attempted += len(results)
        failed += len(results) if p else 0
        problems.extend(p)
        walls.append((raw, nominal))
        verdicts.append(v)
        totals.append(t)

    repeat(args.seconds, 1, lambda: measured(*run_pass(cli, spec, sampler)))
    untraced = len(walls)

    layer_runs = []
    if args.trace:
        tracer = tracing.Tracer()

        def traced_pass():
            # unsampled, so that no reference kernel runs inside a span
            first = len(tracer.spans)
            raw, _, results = run_pass(cli, spec, None)
            layer_runs.append(tracing.layer_metrics(tracer.spans, first, spec["subjects"], raw))
            layer_runs[-1]["trace.traced_wall_s"] = raw
            measured(raw, None, results)

        tracer.install()
        try:
            repeat(args.seconds, TRACED_PASSES, traced_pass)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.jsonl")

    try:
        problems += negative_controls()
    except Exception as exc:  # a control that raises has not failed for the right reason
        problems.append(f"negative controls raised {exc!r}")
    if any(v != verdicts[0] for v in verdicts):
        problems.append("verdicts differ between repeats of the same pass")
    for i, run in enumerate(layer_runs):
        run.update({f"suites.checks_{k}": v for k, v in totals[untraced + i].items()})
    for name in tracing.EXACT_COUNTS:
        if len({run[name] for run in layer_runs}) > 1:
            problems.append(f"{name} differs between traced passes")

    if args.trace:
        metrics = {name: (statistics.median([run[name] for run in layer_runs]), _unit(name))
                   for name in layer_runs[0]}
        untraced_raw = statistics.median(raw for raw, _ in walls[:untraced])
        metrics["trace.untraced_wall_s"] = (untraced_raw, "s")
        metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"][0] - untraced_raw, "s")
    else:
        wall = statistics.median(nominal for _, nominal in walls)
        executed = totals[0]["pass"] + totals[0]["fail"]
        metrics = {
            "wall_s": (wall, "s"),
            "braces_per_s": (spec["subjects"] / wall, "1/s"),
            "setup_s": (statistics.median(nominal for _, nominal in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_share": (totals[0]["pass"] / executed if executed else 0.0, "share"),
        }
        print(f"checks executed {executed}: pass {totals[0]['pass']}, fail {totals[0]['fail']}, "
              f"failed_share {totals[0]['fail'] / executed if executed else 0.0:.6f}; "
              f"skipped {totals[0]['skipped']}")
    print(f"workload {args.workload} seed {args.seed}: {spec['subjects']} subjects per pass; "
          f"raw/nominal pass walls {' '.join(f'{r:.3f}/{n or 0:.3f}' for r, n in walls)} s; "
          f"raw/nominal setups {' '.join(f'{r:.4f}/{n:.4f}' for r, n in setup_times)} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    try:
        for check, count in failing_checks(spec).items():
            print(f"  failing {check}: {count}")
    except (OSError, ValueError, KeyError) as exc:  # already a gate failure via outcome()
        print(f"  failing checks unreadable: {exc!r}")
    for p in problems:
        print(f"GATE FAIL: {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_brace"):
        return "1/brace"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
