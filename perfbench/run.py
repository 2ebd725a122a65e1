"""Pipeline benchmark for relexpl.

    python3 perfbench/run.py --workload {desk,paper} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The benchmark imports relexpl from the
checkout's `src/` (plain Python, nothing to build), generates its inputs
from --seed, and drives the pipeline in this one process through
`relexpl.cli.main`, closed loop: each command starts when the previous
one returns. BLAS runs on one thread.

A run sets up (input generation) five times, then twice more after each
repeat of the timed pipeline, and reports the median as setup_s. It
repeats the pipeline until --seconds have passed, at least three times,
and reports medians: over the repeats for pipeline_s and the train
rates, and over every eval, explain and expl-eval command (three a
repeat) for theirs. Each repeat runs the models one after another, all
four commands for each, so that samples of one command are spread over
the run. Outputs are checked once per run (ranking quality, finiteness,
a leave-one-out oracle, row counts), and every deterministic artifact
must repeat byte for byte across set-ups and across repeats.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repeats and prints the per-layer metrics
(see tracing.py). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed command or check
makes the run exit 1 after printing it; a checkout without relexpl's
sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import MODELS, REQUIRED_SPANS, TRACED_OPS, WORKLOADS

# One BLAS thread: with 2 vCPUs the interpreter needs the other one, and
# single-threaded BLAS gives steadier timings on these small matrices.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
# set-ups before the first repeat and after each one; spread over the run,
# their median does not hang on the host's speed in one short stretch
SETUP_REPS_FIRST = 5
SETUP_REPS_BETWEEN = 2
MIN_REPEATS = 3
METHODS = "attention,saliency,gi,loo"


class PipelineError(RuntimeError):
    """A CLI command failed; the repeat cannot continue."""


def _import_relexpl():
    """Import relexpl from this checkout's sources, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "relexpl", "__init__.py")):
        print(f"perfbench: no relexpl sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import relexpl
    if os.path.dirname(os.path.dirname(os.path.abspath(relexpl.__file__))) != SRC:
        print(f"perfbench: relexpl imported from {relexpl.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    from relexpl import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": min(BLAS_THREADS, nproc),
        "nproc": nproc,
        "kernel_route": "numba" if kernels.USING_NUMBA else "numpy",
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Bench:
    def __init__(self, workload, seed: int, trace: bool, work: str):
        """Paths and counters of one run; trace adds a tracer."""
        from relexpl.cli import main as cli_main
        from tracing import Tracer

        self.w = workload
        self.seed = str(seed)
        self.cli_main = cli_main
        self.tracer = Tracer() if trace else None
        self.tracing = False
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_dir = os.path.join(work, "setup")
        self.pipe_dir = os.path.join(work, "pipe")
        self.gen_dir = os.path.join(work, "gen")
        # one gen-data run per corpus; each config fills only the split read here
        self.train_corpus = os.path.join(self.setup_dir, "train", "train.jsonl")
        self.test_corpus = os.path.join(self.setup_dir, "test", "test.jsonl")
        self.explain_corpus = os.path.join(self.setup_dir, "explain", "test.jsonl")

    # -- bookkeeping --------------------------------------------------------

    def check(self, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failures.append("; ".join(failures))

    def cli(self, *argv, tag: str = "") -> float:
        argv = [str(a) for a in argv]
        self.attempted += 1
        gc.collect()  # garbage of the previous command is not this one's cost
        t0 = time.perf_counter()
        if self.tracing:
            with self.tracer.root(argv[0], tag):
                rc = self._call(argv)
        else:
            rc = self._call(argv)
        dt = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"relexpl {' '.join(argv)}: {rc}")
            raise PipelineError(self.failures[-1])
        return dt

    def _call(self, argv):
        try:
            return self.cli_main(argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            return f"raised {type(exc).__name__}: {exc}"

    def _traced(self, on: bool):
        if self.tracer is None:
            return
        if on:
            self.tracer.reset()
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.tracing = on

    def checkpoint(self, tag: str) -> str:
        return os.path.join(self.pipe_dir, tag, "checkpoint.json")

    def train(self, tag: str, out: str) -> float:
        return self.cli("train", "--corpus", self.train_corpus, "--out", out,
                        *MODELS[tag], *self.w.encoder, *self.w.train_flags(),
                        "--seed", self.seed, tag=tag)

    # -- set-up -------------------------------------------------------------

    def write_gen_configs(self):
        os.makedirs(self.gen_dir, exist_ok=True)
        for name, cfg in self.w.corpora.items():
            with open(os.path.join(self.gen_dir, f"{name}.json"), "w") as fh:
                json.dump(cfg, fh, sort_keys=True)

    def setup_once(self, traced: bool) -> tuple[float, dict]:
        """One set-up; returns (seconds, per-layer figures when traced)."""
        from tracing import setup_layers

        _rmtree(self.setup_dir)
        layers = {}
        t0 = time.perf_counter()
        self._traced(traced)
        try:
            for split in self.w.corpora:
                self.cli("gen-data", "--config", os.path.join(self.gen_dir, f"{split}.json"),
                         "--seed", self.seed, "--out", os.path.join(self.setup_dir, split))
        finally:
            if traced:
                layers = setup_layers(self.tracer)
            self._traced(False)
        return time.perf_counter() - t0, layers

    # -- one repeat of the timed pipeline ----------------------------------

    def pipeline(self) -> dict:
        from checks import read_csv_rows

        _rmtree(self.pipe_dir)
        os.makedirs(self.pipe_dir)
        train_s, eval_s, explain_s, expl_eval_s = {}, [], [], []
        t0 = time.perf_counter()
        # model by model, so that samples of each command are spread over the
        # repeat instead of bunched in one stretch of a host whose speed drifts
        for tag in MODELS:
            out = os.path.join(self.pipe_dir, tag)
            train_s[tag] = self.train(tag, out)
            eval_s.append(self.cli("eval", "--checkpoint", self.checkpoint(tag),
                                   "--corpus", self.test_corpus,
                                   "--out", os.path.join(out, "eval"),
                                   "--seed", self.seed, tag=tag))
            explain_s.append(self.cli("explain", "--checkpoint", self.checkpoint(tag),
                                      "--corpus", self.explain_corpus,
                                      "--out", os.path.join(out, "explain"),
                                      "--methods", METHODS, "--seed", self.seed, tag=tag))
            expl_eval_s.append(self.cli("expl-eval", "--checkpoint", self.checkpoint(tag),
                                        "--corpus", self.explain_corpus,
                                        "--scores", os.path.join(out, "explain", "scores.jsonl"),
                                        "--out", os.path.join(out, "expl-eval"),
                                        "--seed", self.seed, tag=tag))
        pipeline_s = time.perf_counter() - t0

        rows = []
        for tag in MODELS:
            with open(os.path.join(self.pipe_dir, tag, "explain", "scores.jsonl")) as fh:
                rows.append(sum(1 for line in fh if '"_header"' not in line))
        n_test = self.w.corpora["test"]["n_test_bags"]
        aucs, taus = [], []
        for tag in MODELS:
            with open(os.path.join(self.pipe_dir, tag, "eval", "metrics.json")) as fh:
                aucs.append(json.load(fh)["auc_04"])
        for tag in MODELS:
            for row in read_csv_rows(os.path.join(self.pipe_dir, tag, "expl-eval", "kendall.csv")):
                if row["method"] == "gi" and row["bucket"] == "overall":
                    taus.append(float(row["tau"]))
        # eval, explain and expl-eval give one sample per command, so a run
        # has three of each per repeat
        return {
            "pipeline_s": pipeline_s,
            "train_s": train_s,
            "eval_bags_per_s": [n_test / t for t in eval_s],
            "explain_rows_per_s": [n / t for n, t in zip(rows, explain_s)],
            "expl_eval_s": expl_eval_s,
            "auc_04": statistics.fmean(aucs),
            "tau_gi": statistics.fmean(taus),
        }

    def verify_outputs(self):
        """The once-per-run output checks, on the first repeat's artifacts."""
        import checks

        for tag in MODELS:
            model_dir = os.path.join(self.pipe_dir, tag)
            self.check(checks.ranking_quality(os.path.join(model_dir, "eval", "metrics.json"), tag))
            self.check(checks.finite_outputs(model_dir, tag))
            self.check(checks.finite_probabilities(self.checkpoint(tag), self.test_corpus, tag))
            scores = os.path.join(model_dir, "explain", "scores.jsonl")
            self.check(checks.score_rows(scores, self.explain_corpus,
                                         len(METHODS.split(",")), tag))
            self.check(checks.loo_oracle(self.checkpoint(tag), self.explain_corpus,
                                         scores, self.w.loo_spot_checks, tag))


def _rmtree(path: str):
    shutil.rmtree(path, ignore_errors=True)


def run(args, units: dict) -> tuple[dict, dict]:
    """Set up, repeat the pipeline, check; return (all metrics, extra record)."""
    from checks import digest_tree, same_digests
    from tracing import per_layer

    w = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(w, args.seed, bool(args.trace), work)
    metrics: dict = {}
    record: dict = {"failures": bench.failures}
    try:
        bench.write_gen_configs()
        setups, setup_layers = [], []
        first_setup = None

        def set_up(times: int, traced: bool):
            nonlocal first_setup
            for _ in range(times):
                seconds, layers = bench.setup_once(traced)
                setups.append(seconds)
                setup_layers.append(layers)
                digest = digest_tree(bench.setup_dir)
                if first_setup is None:
                    first_setup = digest
                else:
                    bench.check(same_digests(first_setup, digest, f"set-up {len(setups)}"))

        set_up(SETUP_REPS_FIRST, traced=bool(args.trace))

        samples = {False: [], True: []}
        layer_samples = []
        first_digest = None
        loop_start = time.perf_counter()
        durations = []
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            bench._traced(traced)
            try:
                sample = bench.pipeline()
            finally:
                bench._traced(False)
            durations.append(sample["pipeline_s"])
            samples[traced].append(sample)
            if traced:
                layer_samples.append(per_layer(bench.tracer, TRACED_OPS, list(MODELS)))
            digest = digest_tree(bench.pipe_dir)
            if first_digest is None:
                first_digest = digest
                bench.verify_outputs()
            else:
                bench.check(same_digests(first_digest, digest, f"repeat {i}"))
            set_up(SETUP_REPS_BETWEEN, traced=False)  # the tracer keeps the repeat's spans
            i += 1
            elapsed = time.perf_counter() - loop_start
            if i >= MIN_REPEATS and (elapsed >= args.seconds or
                                     elapsed + max(durations[-2:]) > 1.1 * args.seconds):
                break

        metrics["setup_s"] = statistics.median(setups)
        plain = samples[False]
        metrics["pipeline_s"] = statistics.median(s["pipeline_s"] for s in plain)
        for tag in MODELS:
            metrics[f"train_bags_per_s.{tag}"] = statistics.median(
                w.bags_stepped() / s["train_s"][tag] for s in plain)
        for key in ("eval_bags_per_s", "explain_rows_per_s", "expl_eval_s"):
            metrics[key] = statistics.median(x for s in plain for x in s[key])
        metrics["auc_04"] = plain[0]["auc_04"]
        metrics["tau_gi"] = plain[0]["tau_gi"]
        record["repeats"] = {"untraced": len(plain), "traced": len(samples[True])}
        record["samples"] = plain

        if args.trace:
            metrics.update(traced_metrics(bench, w, samples, layer_samples,
                                          setup_layers, units))
            record["ops_by_time"] = layer_samples[-1]["autodiff.ops_by_time"][:16]
            bench.tracer.write(os.path.join(WORK, f"{args.workload}.spans.tsv"))
    except PipelineError:
        pass
    finally:
        import resource
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _rmtree(work)
    metrics["op_failure_rate"] = len(bench.failures) / max(bench.attempted, 1)
    record["attempted"] = bench.attempted
    return metrics, record


# exact counts and ratios must repeat across traced repeats; times may not
TIME_UNITS = ("s", "ms")


def traced_metrics(bench, w, samples, layer_samples, setup_layers, units) -> dict:
    """Medians of the per-layer figures, with the traced-run checks."""
    out, unmeasured, unsteady = {}, [], []
    for name, unit in units.items():
        if name in ("trace.overhead_s", "op_failure_rate", "optim.checkpoint_bytes", "tau_gi"):
            continue  # measured outside the traced repeats
        source = setup_layers if name in setup_layers[0] else layer_samples
        values = [s[name] for s in source if name in s]
        if not values:
            unmeasured.append(name)
        elif unit in TIME_UNITS:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if len(set(values)) != 1:
                unsteady.append(f"{name} {values}")
    bench.check([f"per-layer metrics not computed: {unmeasured}"] if unmeasured else [])
    bench.check([f"exact counts differ across traced repeats: {unsteady}"] if unsteady else [])
    out["trace.overhead_s"] = (statistics.median(s["pipeline_s"] for s in samples[True])
                               - statistics.median(s["pipeline_s"] for s in samples[False]))
    out["optim.checkpoint_bytes"] = os.path.getsize(bench.checkpoint("ld"))

    first = layer_samples[0]
    calls = first["calls"]
    missing = [name for name in REQUIRED_SPANS if not calls.get(name)]
    missing += [name for name, v in setup_layers[0].items() if not v]
    bench.check([f"wrapped layer recorded zero calls: {missing}"] if missing else [])
    want = w.bags_stepped()
    wrong = {t: first[f"training.steps.{t}"] for t in MODELS
             if first[f"training.steps.{t}"] != want}
    bench.check([f"traced Adam steps {wrong} != {want} bags per model"] if wrong else [])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_relexpl()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench_spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench_spec["per_layer"]}
    listed = bench_spec["per_layer" if args.trace else "end_to_end"]

    env = environment(args.workload, args.seed, int(args.seconds), args.trace)
    env["why"] = next((x["why"] for x in bench_spec["workloads"]
                       if x["name"] == args.workload), "")
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)

    os.makedirs(WORK, exist_ok=True)
    metrics, record = run(args, units)
    failures = record["failures"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in listed if m["name"] in metrics}
    record["attempted"] += 1
    unmeasured = [m["name"] for m in listed if m["name"] not in metrics]
    if unmeasured:
        failures.append(f"metrics not measured: {unmeasured}")
    for name, entry in reported.items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(f"failed {len(failures)} of {record['attempted']} commands and checks")
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": reported,
    }
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "record": record, "result": result,
                   "all_metrics": {k: v for k, v in metrics.items()
                                   if isinstance(v, (int, float))}},
                  fh, sort_keys=True, indent=1)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
