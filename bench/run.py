#!/usr/bin/env python3
"""The patchlens benchmark: one command, three workloads.

    python3 bench/run.py --workload explain-cli --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from src/. Each run
draws its inputs from --seed, sets up (three times, reporting the median),
then runs whole rounds of one workload's CLI commands in a closed loop with
one client until --seconds have passed, and checks every distinct output
against the float64 reference in reference.py and the properties in
checks.py. A repeated command must reproduce its first output byte for
byte.

--trace 0 prints the end-to-end metrics, measured untraced. --trace 1
alternates untraced and traced commands and prints the per-layer metrics
from the traced ones, plus the tracing overhead. The last line of standard
output is the result as one JSON object; the spans of a traced run go to
bench/results/<workload>.spans.tsv. See README.md for the metrics.
"""
import os

# One process, one BLAS thread: fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

try:
    from patchlens.cli import main as cli_main
except ImportError:  # no program to measure; main() reports it
    cli_main = None

SETUPS = 3
TRACE_PAIRS = 2    # a traced run times every command at least this often each way
HELDOUT_STREAM = 1 << 20
EVAL_STREAM = 2 << 20
SGD_STREAM = 3 << 20


def _cli(argv) -> None:
    rc = cli_main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"patchlens {argv[0]} exited with {rc}")


def train_checkpoints(d: Path, seed: int) -> Path:
    """Shared set-up: 96 training images (48 per class), `train` 2 epochs."""
    synth.write_set(d / "train", seed, 0, [(i % 2, "train") for i in range(96)])
    _cli(["train", "--data", d / "train", "--epochs", 2, "--seed", seed, "--out", d / "run"])
    return d / "run" / "checkpoints"


def _stack(items):
    return np.stack([it["image"] for it in items]), np.array([it["label"] for it in items])


class ExplainCli:
    """`explain --metric all` with defaults on 8 held-out images, 4 per class,
    --mask on positives, with a checkpoint trained in set-up."""
    name = "explain-cli"
    units = 1               # explains per command
    images = 1              # images per command
    batch_checked = (0, 1)  # held-out images whose batch metrics are recomputed

    def setup(self, d: Path, seed: int) -> None:
        ckpt = train_checkpoints(d, seed)
        self.weights, self.manifest = ckpt / "epoch_002.nnwc", ckpt / "network.manifest"
        self.items = synth.write_set(d / "heldout", seed, HELDOUT_STREAM,
                                     [(1 - i % 2, "val") for i in range(8)])

    def round(self):
        for it in self.items:
            argv = ["explain", "--weights", self.weights, "--manifest", self.manifest,
                    "--image", it["ppm"], "--metric", "all"]
            if it["pgm"]:
                argv += ["--mask", it["pgm"]]
            yield it["name"], argv

    def check(self, key, out_dir):
        from patchlens.imageio import read_ppm
        from patchlens.network import forward, load_weights

        i = [it["name"] for it in self.items].index(key)
        it = self.items[i]
        net = reference.load_net(self.weights, self.manifest)
        out = checks.ExplainOutput(out_dir)
        problems = (checks.check_manifest(out_dir) + checks.check_scores(out)
                    + checks.check_ranking(out) + checks.check_patches(out, it["image"])
                    + checks.check_reconstructions(out, net, it["image"]))
        if it["mask"] is not None:
            problems += checks.check_localization(out, it["mask"])
        pred = forward(load_weights(self.weights, self.manifest), read_ppm(it["ppm"]))
        problems += checks.check_prediction(pred.predicted_class, pred.predicted_prob, net, it["image"])
        if i in self.batch_checked:
            problems += checks.check_batch_metrics(out, net, it["image"])
        return problems


class TrainSgd:
    """`train --data` on 128 training and 32 validation images, 3 epochs,
    batch 32, default lr."""
    name = "train-sgd"
    epochs = 3
    units = epochs          # epochs per command
    images = 128 * epochs   # image-epochs per command

    def setup(self, d: Path, seed: int) -> None:
        """Write the dataset, then warm the training path with one epoch."""
        rows = [(i % 2, "val" if (i // 2) % 5 == 0 else "train") for i in range(160)]
        items = synth.write_set(d / "data", seed, SGD_STREAM, rows)
        self.data, self.seed = d / "data", seed
        _cli(["train", "--data", self.data, "--epochs", 1, "--seed", seed, "--out", d / "warm"])
        self.train_x, self.train_y = _stack([it for it in items if it["split"] == "train"])
        self.val_x, self.val_y = _stack([it for it in items if it["split"] == "val"])

    def round(self):
        yield "train", ["train", "--data", self.data, "--epochs", self.epochs, "--seed", self.seed]

    def check(self, key, out_dir):
        return (checks.check_train(out_dir, self.epochs, self.train_x, self.train_y, self.val_x, self.val_y)
                + checks.check_loss_falls(out_dir, self.epochs, self.train_x, self.train_y))


class Harness:
    """`evaluate` over a two-checkpoint series (epochs 1 and 2 of the set-up
    training) on one masked positive and one negative, two batch metrics."""
    name = "harness"
    metrics = ("act-out-corr", "act-precision")
    units = 1
    images = 2              # validation images per evaluate pass

    def setup(self, d: Path, seed: int) -> None:
        ckpt = train_checkpoints(d, seed)
        self.series = d / "series"
        self.series.mkdir()
        for name in ("epoch_001.nnwc", "epoch_002.nnwc", "network.manifest"):
            shutil.copy(ckpt / name, self.series / name)
        items = synth.write_set(d / "evaldata", seed, EVAL_STREAM, [(1, "val"), (0, "val")])
        self.data = d / "evaldata"
        self.val_x, self.val_y = _stack(items)

    def round(self):
        yield "evaluate", ["evaluate", "--checkpoints", self.series, "--data", self.data,
                           "--metrics", ",".join(self.metrics)]

    def check(self, key, out_dir):
        manifest = self.series / "network.manifest"
        nets = {e: reference.load_net(self.series / f"epoch_{e:03d}.nnwc", manifest) for e in (1, 2)}
        return (checks.check_trajectory(out_dir, nets, self.val_x, self.val_y, self.metrics)
                + checks.check_harness_localization(out_dir, self.metrics, int(self.val_y.sum())))


WORKLOADS = {w.name: w for w in (ExplainCli, TrainSgd, Harness)}


def measure(wl, work: Path, seconds: float, tracer):
    """Whole rounds until `seconds` have passed. With a tracer, each command
    runs untraced, traced, traced, untraced over four rounds (the other way
    round at odd positions in the round), so that a steady drift of the
    host's speed falls on both ways alike; the run goes on for at least
    2 * TRACE_PAIRS rounds, so every command runs TRACE_PAIRS times each
    way. Returns the first output directory per command key, problems,
    per-key untraced and traced seconds, and the counts of attempted and
    failed commands."""
    firsts, problems = {}, []
    plain, traced = {}, {}
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        for i, (key, argv) in enumerate(wl.round()):
            use_tracer = tracer is not None and (i + (r + 1) // 2) % 2 == 1
            out = work / "out" / f"{key}-{attempted}"
            attempted += 1
            argv = [str(a) for a in argv] + ["--out", str(out)]
            t0 = time.perf_counter()
            try:
                rc = tracer.run_op(lambda: cli_main(argv)) if use_tracer else cli_main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            dt = time.perf_counter() - t0
            if rc != 0:
                failed += 1
                print(f"failed: patchlens {' '.join(argv)} -> {rc}", file=sys.stderr)
                continue
            (traced if use_tracer else plain).setdefault(key, []).append(dt)
            if key in firsts:
                problems += checks.compare_dirs(firsts[key], out)
                shutil.rmtree(out)
            else:
                firsts[key] = out
        r += 1
        if time.perf_counter() - start >= seconds and (tracer is None or r >= 2 * TRACE_PAIRS):
            break
    return firsts, problems, plain, traced, attempted, failed


def tracing_overhead_pct(plain: dict, traced: dict) -> float:
    """Cost of tracing, from matched commands: per command key, the median
    traced time over the median untraced time; the median of those ratios,
    minus one, in percent."""
    ratios = [statistics.median(traced[k]) / statistics.median(plain[k]) for k in traced if k in plain]
    return 100.0 * (statistics.median(ratios) - 1.0)


def peak_mem_mib(wl, work: Path):
    """Run the first command of a round once more, untimed, under tracemalloc.

    Returns (peak MiB the command allocated, numpy arrays included; its exit
    code; its key; its output directory). The process's peak RSS cannot
    serve: it is set by whichever phase peaks (the set-up's training, for
    explain-cli and harness), and the allocator makes it flip between about
    129 and 164 MiB across identical runs.
    """
    key, argv = next(iter(wl.round()))
    out = work / "out" / f"{key}-mem"
    tracemalloc.start()
    try:
        rc = cli_main([str(a) for a in argv] + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20, rc, key, out


def end_to_end_metrics(wl, setup_s, peak_mem, times) -> dict:
    """Median set-up seconds, peak allocated memory of one command, median
    seconds per unit of work (one explain, one epoch, one evaluate pass) and
    images per second of command wall time."""
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_mem_mib": (peak_mem, "MiB"),
        "op_p50_s": (statistics.median(t / wl.units for t in times), "s"),
        "images_per_s": (wl.images * len(times) / sum(times), "1/s"),
    }


def layer_metrics(tracer, units: int, overhead_pct: float) -> dict:
    """Per-layer metrics: medians over traced operations of per-op totals,
    divided by `units` (epochs per train command, 1 otherwise)."""
    ops = tracer.per_op()

    def med(get):
        return statistics.median(get(o) for o in ops) / units

    out = {}
    for _, _, span, _ in spans.TARGETS:
        if span.startswith("evaluation."):
            out[span + "_s"] = (med(lambda o: o["ms"][span]) / 1e3, "s")
        else:
            out[span + "_ms"] = (med(lambda o: o["ms"][span]), "ms")
    for layer in spans.LAYERS:
        out[f"{layer}.self_ms"] = (med(lambda o: o["self_ms"][layer]), "ms")
    out["network.conv_forward_calls"] = (med(lambda o: o["calls"]["network.conv_forward"]), "count")
    out["deconvnet.deconvolve_calls"] = (med(lambda o: o["calls"]["deconvnet.deconvolve"]), "count")
    out["pipeline.explain_calls"] = (med(lambda o: o["calls"]["pipeline.explain"]), "count")
    out["network.conv_gflop"] = (med(lambda o: o["flop"]) / 1e9, "GFLOP")
    conv_spans = ("network.conv_forward", "network.conv_input_grad", "network.conv_param_grad")
    conv_s = sum(o["ms"][s] for o in ops for s in conv_spans) / 1e3
    out["network.conv_gflop_per_s"] = (sum(o["flop"] for o in ops) / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s")
    calls = sum(o["deconv_calls"] for o in ops)
    out["deconvnet.distinct_neuron_ratio"] = (
        sum(o["deconv_distinct"] for o in ops) / calls if calls else 0.0, "ratio")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def _rounded(times: dict) -> dict:
    return {k: [round(t, 3) for t in ts] for k, ts in times.items()}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[workload]()
    work = HERE / "work" / f"{workload}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = []
        for k in range(SETUPS):
            d = work / f"setup{k}"
            t0 = time.perf_counter()
            wl.setup(d, seed)
            setup_s.append(time.perf_counter() - t0)
        tracer = spans.Tracer() if traced else None
        firsts, problems, plain, traced_s, attempted, failed = measure(wl, work, seconds, tracer)
        if not traced:
            peak, rc, mem_key, mem_out = peak_mem_mib(wl, work)
            attempted += 1
            if rc != 0:
                failed += 1
            elif mem_key in firsts:
                problems += checks.compare_dirs(firsts[mem_key], mem_out)
        for key, out in firsts.items():
            try:
                problems += [f"{key}: {p}" for p in wl.check(key, out)]
            except Exception as exc:
                traceback.print_exc()
                problems.append(f"{key}: check raised {exc!r}")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if traced:
            metrics = layer_metrics(tracer, wl.units, tracing_overhead_pct(plain, traced_s))
            if tracer.missing:
                print(f"not found in the program, reads 0: {', '.join(tracer.missing)}", file=sys.stderr)
            tracer.write(results / f"{workload}.spans.tsv")
        else:
            metrics = end_to_end_metrics(wl, setup_s, peak, [t for ts in plain.values() for t in ts])
        print(f"{workload}: seed {seed}, setups {[round(s, 3) for s in setup_s]} s, "
              f"untraced commands {_rounded(plain)} s, traced {_rounded(traced_s)} s, "
              f"threads {len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '?'}",
              file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(results / f"{workload}{'.trace' if traced else ''}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if cli_main is None or not (SRC / "patchlens").is_dir():
        print(f"benchmark: no patchlens source under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
