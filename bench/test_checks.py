"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest bench -q

The fixtures run the benchmark's own set-up and one command per workload
(about half a minute in all).
"""
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402


def _run(wl, tmp: Path, seed: int):
    wl.setup(tmp / "setup", seed)
    (key, argv), = list(wl.round())[:1]
    out = tmp / "out"
    assert run.cli_main([str(a) for a in argv] + ["--out", str(out)]) == 0
    return key, out


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    wl = run.ExplainCli()
    key, out = _run(wl, tmp_path_factory.mktemp("explain"), seed=3)
    return wl, key, out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    wl = run.TrainSgd()
    key, out = _run(wl, tmp_path_factory.mktemp("train"), seed=3)
    return wl, key, out


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    wl = run.Harness()
    key, out = _run(wl, tmp_path_factory.mktemp("harness"), seed=3)
    return wl, key, out


def _copy(src, tmp_path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_rows(path, edit, sep="\t"):
    """Rewrite a table file; edit(rows) mutates a list of field lists (row 0
    is the header)."""
    with open(path) as fh:
        rows = [line.split(sep) for line in fh.read().splitlines()]
    edit(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(sep.join(r) for r in rows) + "\n")


def _explain_state(explained):
    wl, key, out = explained
    item = next(it for it in wl.items if it["name"] == key)
    return wl, item, out, reference.load_net(wl.weights, wl.manifest)


# ---------------------------------------------------------------------------
# real output passes

def test_real_outputs_pass(explained, trained, evaluated):
    wl, key, out = explained
    assert key == wl.items[0]["name"] and wl.items[0]["mask"] is not None
    for wl, key, out in (explained, trained, evaluated):
        assert wl.check(key, out) == []


# ---------------------------------------------------------------------------
# shared checks

def test_compare_dirs_rejects_changed_byte(explained, tmp_path):
    _, _, out = explained
    copy = _copy(out, tmp_path)
    assert checks.compare_dirs(out, copy) == []
    data = bytearray((copy / "ranked.tsv").read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    (copy / "ranked.tsv").write_bytes(bytes(data))
    assert checks.compare_dirs(out, copy)


def test_manifest_rejects_missing_file(explained, tmp_path):
    copy = _copy(explained[2], tmp_path)
    os.remove(copy / "annotated_act-sum.ppm")
    assert checks.check_manifest(copy)


# ---------------------------------------------------------------------------
# explain

def test_scores_reject_r_outside_unit_interval(explained, tmp_path):
    copy = _copy(explained[2], tmp_path)
    _edit_rows(copy / "scores_act-out-corr.tsv", lambda rows: rows[1].__setitem__(3, "1.5"))
    assert checks.check_scores(checks.ExplainOutput(copy))


def _strictly_ordered_layer(out, metric):
    for (m, layer), rows in sorted(out.ranked.items()):
        if m == metric and len(rows) >= 2 and float(rows[0][2]) > float(rows[1][2]):
            return layer
    raise AssertionError("no layer with two distinct top values")


def test_ranking_rejects_swapped_picks(explained, tmp_path):
    copy = _copy(explained[2], tmp_path)
    layer = _strictly_ordered_layer(checks.ExplainOutput(copy), "act-sum")

    def swap(rows):
        idx = [i for i, r in enumerate(rows) if r[0] == "act-sum" and r[1] == str(layer)][:2]
        rows[idx[0]][3:], rows[idx[1]][3:] = rows[idx[1]][3:], rows[idx[0]][3:]
    _edit_rows(copy / "ranked.tsv", swap)
    assert checks.check_ranking(checks.ExplainOutput(copy))


def test_ranking_rejects_a_weaker_pick(explained, tmp_path):
    copy = _copy(explained[2], tmp_path)
    out = checks.ExplainOutput(copy)
    layer = 2
    picks = [ch for _, ch, _ in out.ranked[("weight-sum", layer)]]
    scores = out.scores["weight-sum"]
    weakest = min((ch for (lay, ch) in scores if lay == layer and ch not in picks),
                  key=lambda ch: scores[(layer, ch)][0])

    def replace_last(rows):
        i = max(i for i, r in enumerate(rows) if r[0] == "weight-sum" and r[1] == str(layer))
        rows[i][3], rows[i][4] = str(weakest), scores[(layer, weakest)][2]
    _edit_rows(copy / "ranked.tsv", replace_last)
    assert checks.check_ranking(checks.ExplainOutput(copy))


def test_patches_reject_changed_pixel(explained, tmp_path):
    wl, item, out, _ = _explain_state(explained)
    copy = _copy(out, tmp_path)
    p = checks.ExplainOutput(copy).patches[0]
    path = copy / f"{p['metric']}_{p['layer']}_{p['r']}.ppm"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x40
    path.write_bytes(bytes(data))
    assert checks.check_patches(checks.ExplainOutput(copy), item["image"])


def test_patches_reject_missing_patch(explained, tmp_path):
    wl, item, out, _ = _explain_state(explained)
    copy = _copy(out, tmp_path)
    _edit_rows(copy / "patches.tsv", lambda rows: rows.pop(1))
    assert checks.check_patches(checks.ExplainOutput(copy), item["image"])


def test_localization_rejects_hits_above_patches(explained, tmp_path):
    wl, item, out, _ = _explain_state(explained)
    copy = _copy(out, tmp_path)

    def inflate(rows):
        rows[1][3] = str(int(rows[1][2]) + 1)
    _edit_rows(copy / "localization.tsv", inflate)
    assert checks.check_localization(checks.ExplainOutput(copy), item["mask"])


def test_reconstructions_reject_bbox_missing_the_peak(explained, tmp_path):
    wl, item, out, net = _explain_state(explained)
    copy = _copy(out, tmp_path)
    parsed = checks.ExplainOutput(copy)
    metric = next(m for m in ("act-out-corr", "act-precision", "act-sum") if parsed.ranked.get((m, 2)))
    channel = parsed.ranked[(metric, 2)][0][1]
    assert parsed.patch_for(metric, 2, channel) is not None
    mag = np.abs(reference.deconvolve(net, item["image"], 2, channel)).max(axis=0)
    y, x = np.unravel_index(int(np.argmax(mag)), mag.shape)

    def move(rows):
        for r in rows[1:]:
            if (r[0], r[1], r[3]) == (metric, "2", str(channel)):
                r[4:8] = [str((y + 16) % 32), str((x + 16) % 32), "1", "1"]
    _edit_rows(copy / "patches.tsv", move)
    assert checks.check_reconstructions(checks.ExplainOutput(copy), net, item["image"])


def test_prediction_rejects_wrong_probability_and_class(explained):
    wl, item, _, net = _explain_state(explained)
    logits, probs, _, _ = reference.forward(net, item["image"][None])
    cls = int(np.argmax(logits[0]))
    assert checks.check_prediction(cls, float(probs[0, cls]), net, item["image"]) == []
    assert checks.check_prediction(cls, float(probs[0, cls]) + 1e-3, net, item["image"])
    if abs(logits[0, 0] - logits[0, 1]) >= checks.TIE_LOGIT:
        assert checks.check_prediction(1 - cls, float(probs[0, 1 - cls]), net, item["image"])


def test_batch_metrics_reject_shifted_values(explained, tmp_path):
    wl, item, out, net = _explain_state(explained)
    parsed = checks.ExplainOutput(out)
    assert checks.check_batch_metrics(parsed, net, item["image"]) == []
    ref = reference.batch_metrics(net, item["image"], checks.LAYERS)

    def corr_tol(r):
        return checks.corr_tolerance(r["out_std"])

    for metric, tol in (("act-out-corr", corr_tol), ("act-precision", lambda r: r["precision_tol"])):
        key = next(k for k, (v, degenerate, _) in sorted(parsed.scores[metric].items())
                   if not degenerate and ref[k]["corr_spread"] >= checks.CORR_MIN_SPREAD
                   and tol(ref[k]) < 0.005 * v)
        copy = _copy(out, tmp_path / metric)

        def edit(rows):
            row = next(r for r in rows[1:] if (int(r[0]), int(r[1])) == key)
            row[3] = f"{float(row[3]) * 0.99:.9g}"
        _edit_rows(copy / f"scores_{metric}.tsv", edit)
        assert checks.check_batch_metrics(checks.ExplainOutput(copy), net, item["image"])


def test_batch_metrics_reject_wrong_r_on_confident_image(tmp_path):
    """Seed 30's first held-out image is classified so confidently that its
    float32 probability cannot give |r| to better than 1; the check still
    accepts the reference's |r| and rejects one that is off by 0.3."""
    wl = run.ExplainCli()
    key, out = _run(wl, tmp_path, seed=30)
    item = next(it for it in wl.items if it["name"] == key)
    net = reference.load_net(wl.weights, wl.manifest)
    ref = reference.batch_metrics(net, item["image"], checks.LAYERS)
    out_std = next(iter(ref.values()))["out_std"]
    assert checks.CORR_ATOL + 2 * checks.F32_STEP / out_std >= 1.0
    assert checks.corr_tolerance(out_std) == checks.CORR_TOL_MAX

    def set_values(shift_key):
        def edit(rows):
            col, deg = rows[0].index("value"), rows[0].index("degenerate")
            for row in rows[1:]:
                key = (int(row[0]), int(row[1]))
                r = ref[key]["corr"]
                if r is None:
                    continue
                if key == shift_key:
                    r = r - 0.3 if r >= 0.5 else r + 0.3
                row[col], row[deg] = f"{r:.9g}", "0"
        return edit

    good = _copy(out, tmp_path / "good")
    _edit_rows(good / "scores_act-out-corr.tsv", set_values(None))
    assert checks.check_batch_metrics(checks.ExplainOutput(good), net, item["image"]) == []
    shifted_key = next(k for k in sorted(ref) if ref[k]["corr"] is not None
                       and ref[k]["corr_spread"] >= checks.CORR_MIN_SPREAD)
    bad = _copy(out, tmp_path / "bad")
    _edit_rows(bad / "scores_act-out-corr.tsv", set_values(shifted_key))
    problems = checks.check_batch_metrics(checks.ExplainOutput(bad), net, item["image"])
    assert [p for p in problems if p.startswith(f"act-out-corr layer {shifted_key[0]} channel {shifted_key[1]}:")]


# ---------------------------------------------------------------------------
# train

def test_train_log_rejects_wrong_val_acc(trained, tmp_path):
    wl, _, out = trained
    copy = _copy(out, tmp_path)

    def edit(rows):
        acc = float(rows[-1][2])
        rows[-1][2] = f"{acc - 2 / len(wl.val_y) if acc > 0.5 else acc + 2 / len(wl.val_y):.9g}"
    _edit_rows(copy / "train_log.tsv", edit)
    assert checks.check_train(copy, wl.epochs, wl.train_x, wl.train_y, wl.val_x, wl.val_y)


def test_loss_falls_rejects_swapped_checkpoints(trained, tmp_path):
    wl, _, out = trained
    assert checks.check_loss_falls(out, wl.epochs, wl.train_x, wl.train_y) == []
    copy = _copy(out, tmp_path)
    first, last = copy / "checkpoints" / "epoch_001.nnwc", copy / "checkpoints" / f"epoch_{wl.epochs:03d}.nnwc"
    a, b = first.read_bytes(), last.read_bytes()
    first.write_bytes(b)
    last.write_bytes(a)
    assert checks.check_loss_falls(copy, wl.epochs, wl.train_x, wl.train_y)
    assert [p for p in wl.check("train", copy) if p.startswith("training loss")]


# ---------------------------------------------------------------------------
# harness

def _harness_nets(wl):
    manifest = wl.series / "network.manifest"
    return {e: reference.load_net(wl.series / f"epoch_{e:03d}.nnwc", manifest) for e in (1, 2)}


def test_trajectory_rejects_wrong_val_accuracy(evaluated, tmp_path):
    wl, _, out = evaluated
    copy = _copy(out, tmp_path)

    def edit(rows):
        acc = float(rows[1][2])
        rows[1][2] = f"{acc - 0.5 if acc >= 0.5 else acc + 0.5:.9g}"
    _edit_rows(copy / "trajectory.csv", edit, sep=",")
    assert checks.check_trajectory(copy, _harness_nets(wl), wl.val_x, wl.val_y, wl.metrics)


def test_trajectory_rejects_jaccard_above_one(evaluated, tmp_path):
    wl, _, out = evaluated
    copy = _copy(out, tmp_path)
    _edit_rows(copy / "trajectory.csv", lambda rows: rows[1].__setitem__(3, "1.25"), sep=",")
    assert checks.check_trajectory(copy, _harness_nets(wl), wl.val_x, wl.val_y, wl.metrics)


def test_harness_localization_rejects_top5_above_top20(evaluated, tmp_path):
    wl, _, out = evaluated
    copy = _copy(out, tmp_path)

    def edit(rows):
        top5 = next(r for r in rows[1:] if r[1] == "5")
        top20 = next(r for r in rows[1:] if r[0] == top5[0] and r[1] == "20")
        top5[3], top5[4] = str(int(top20[3]) + 1), str(int(top20[4]) + 1)
        top5[2] = f"{int(top5[4]) / int(top5[3]):.9g}"
    _edit_rows(copy / "localization.csv", edit, sep=",")
    assert checks.check_harness_localization(copy, wl.metrics, int(wl.val_y.sum()))


def test_synthetic_inputs_follow_the_seed(tmp_path):
    a = synth.write_set(tmp_path / "a", 7, 0, [(1, "val"), (0, "val")])
    b = synth.write_set(tmp_path / "b", 7, 0, [(1, "val"), (0, "val")])
    c = synth.write_set(tmp_path / "c", 8, 0, [(1, "val"), (0, "val")])
    assert (tmp_path / "a" / "img_00000.ppm").read_bytes() == (tmp_path / "b" / "img_00000.ppm").read_bytes()
    assert not np.array_equal(a[0]["image"], c[0]["image"])
    assert np.array_equal(synth.read_pnm(a[0]["ppm"]), a[0]["image"])
    assert np.array_equal(synth.read_pnm(a[0]["pgm"]) > 0.5, a[0]["mask"])
    assert b[1]["mask"] is None


def test_traced_run_times_every_command_twice_each_way(tmp_path, monkeypatch):
    class TwoCommands:
        def round(self):
            yield "a", ["explain"]
            yield "b", ["explain"]

    def fake_cli(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "result.txt").write_text("same")
        return 0

    monkeypatch.setattr(run, "cli_main", fake_cli)
    _, problems, plain, traced, attempted, failed = run.measure(TwoCommands(), tmp_path, 0.0, spans.Tracer())
    assert problems == [] and failed == 0
    assert all(len(plain[k]) >= run.TRACE_PAIRS and len(traced[k]) >= run.TRACE_PAIRS for k in "ab")
    assert attempted == sum(map(len, plain.values())) + sum(map(len, traced.values()))


def test_tracing_overhead_compares_each_command_with_itself():
    plain = {"slow": [2.0, 2.0, 2.2], "fast": [0.5, 0.5]}
    traced = {"slow": [2.2, 2.2], "fast": [0.55, 0.55, 0.55]}
    assert abs(run.tracing_overhead_pct(plain, traced) - 10.0) < 1e-9


def test_benchmark_json_names_every_printed_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    tracer.run_op(lambda: 0)
    layer = run.layer_metrics(tracer, 1, 0.0)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    e2e = run.end_to_end_metrics(run.ExplainCli(), [1.0], 100.0, [0.5])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
