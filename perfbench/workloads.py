"""The three workloads: set-up, one closed-loop round through the CLI, and
the checks of their outputs against the reference in reference.py.

Each round calls ``fgseg.cli.main`` in-process with the argv a user would
type, so a change anywhere below the CLI shows up here unchanged.
"""

import contextlib
import hashlib
import io
import sys
from time import perf_counter

import numpy as np

from fgseg import cli, data, model, netpbm

import reference as ref

# train-64x64: one 64x64 scene, every frame labelled; the CLI's 80/20 split
# leaves 8 training frames, so a round is 8 x TRAIN_EPOCHS steps.
TRAIN_SIZE = (64, 64)            # (width, height)
TRAIN_FRAMES = 10
TRAIN_EPOCHS = 3
TRAIN_OBJECTS = 2

# segment-320x240: a short sequence through random weights whose output gain
# is raised so the probability maps spread over (0, 1) like a trained model's
# rather than sitting at 0.5; the compute is the same either way.
SEGMENT_SIZE = (320, 240)
SEGMENT_FRAMES = 3
SEGMENT_OBJECTS = 4
SEGMENT_OBJECT_SIZE = 24
SEGMENT_THRESHOLD = 0.8          # the CLI default
OUTPUT_GAIN = 400.0
FORWARD_TOL = 2e-5               # 1.3 quantisation steps of the 16-bit map

# score-cdtree: categories x videos of 320x240 sequences, a temporal ROI that
# skips the first SCORE_SKIP frames and a spatial ROI without the left band.
SCORE_CATEGORIES = ("c0", "c1")
SCORE_VIDEOS = ("v0", "v1")
SCORE_FRAMES = 16
SCORE_SKIP = 2
SCORE_ROI_BAND = 16
SCORE_MASK_THRESHOLD = 0.5
SWEEP_THRESHOLDS = tuple(round(0.1 * k, 1) for k in range(1, 10))


def run_cli(argv):
    """fgseg.cli.main(argv) with its output captured: (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:          # argparse usage errors
            code = e.code
        seconds = perf_counter() - start
    if code != 0:
        print(f"fgseg {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, seconds, out.getvalue()


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def frame_files(scene):
    return sorted((scene / "input").iterdir()), sorted((scene / "groundtruth").iterdir())


# ------------------------------------------------------------ train-64x64

def train_steps():
    val = max(1, int(TRAIN_FRAMES * 0.2))
    return (TRAIN_FRAMES - val) * TRAIN_EPOCHS


class Train:
    name = "train-64x64"

    @staticmethod
    def setup(root, seed):
        scene = root / "scene"
        width, height = TRAIN_SIZE
        data.write_synth_dataset(data.SynthConfig(width=width, height=height,
                                                  n_frames=TRAIN_FRAMES,
                                                  n_objects=TRAIN_OBJECTS, seed=seed), scene)
        net = model.build_model(seed=seed)
        encoder = model.ModelParams({n: p for n, p in net.layers.items() if n.startswith("enc.")},
                                    net.dtype)
        model.save_weights(encoder, root / "encoder.fgw")
        return {"root": root, "seed": seed, "scene": scene, "encoder": root / "encoder.fgw",
                "out": root / "trained.fgw", "hashes": []}

    @staticmethod
    def round(ctx):
        code, seconds, _ = run_cli(["train", "--data", ctx["scene"], "--frames", TRAIN_FRAMES,
                                    "--epochs", TRAIN_EPOCHS, "--seed", ctx["seed"],
                                    "--weights-in", ctx["encoder"], "--weights-out", ctx["out"]])
        if code == 0:
            ctx["hashes"].append(sha256(ctx["out"]))
        return train_steps(), seconds, code == 0

    @staticmethod
    def check(ctx):
        problems = []
        if len(set(ctx["hashes"])) > 1:
            problems.append(f"train rounds wrote {len(set(ctx['hashes']))} different .fgw files")
        trained = model.load_weights(ctx["out"])
        initial = model.build_model(encoder_weights=ctx["encoder"], seed=ctx["seed"])
        seeded = model.build_model(seed=ctx["seed"])
        for name, p in trained.layers.items():
            if name.startswith(("enc.b1.", "enc.b2.", "enc.b3.")):
                q = seeded[name]
                if not (p.weights.tobytes() == q.weights.tobytes()
                        and p.bias.tobytes() == q.bias.tobytes()):
                    problems.append(f"{name}: frozen layer differs from build_model(seed)")
            elif not (np.all(np.isfinite(p.weights)) and np.all(np.isfinite(p.bias))):
                problems.append(f"{name}: non-finite trained weights")
            elif np.array_equal(p.weights, initial[name].weights):
                problems.append(f"{name}: trainable weights never changed")
        history = ctx["out"].with_suffix(".history.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in history]
        val = [float(r[2]) for r in rows]
        marked = [int(r[0]) for r in rows if r[4] == "1"]
        if len(rows) != TRAIN_EPOCHS or len(marked) != 1 or val[marked[0]] != min(val):
            problems.append(f"history checkpoint rows {marked} are not the val-loss argmin of {val}")
        inputs, labels = frame_files(ctx["scene"])
        frames = [ref.read_frame(p) for p in inputs]
        raws = [ref.read_netpbm(p) for p in labels]

        def mean_bce(net):
            weights = {n: (p.weights, p.bias) for n, p in net.layers.items()}
            return np.mean([ref.bce(ref.forward(weights, f), r) for f, r in zip(frames, raws)])

        before, after = mean_bce(initial), mean_bce(trained)
        if not after < before:
            problems.append(f"reference BCE over the training frames rose: {before:.6f} -> {after:.6f}")
        return problems


# -------------------------------------------------------- segment-320x240

class Segment:
    name = "segment-320x240"

    @staticmethod
    def setup(root, seed):
        scene = root / "scene"
        width, height = SEGMENT_SIZE
        data.write_synth_dataset(data.SynthConfig(width=width, height=height,
                                                  n_frames=SEGMENT_FRAMES,
                                                  n_objects=SEGMENT_OBJECTS,
                                                  object_size=SEGMENT_OBJECT_SIZE, seed=seed),
                                 scene)
        net = model.build_model(seed=seed)
        net["dec.b9.t1x1"].weights *= OUTPUT_GAIN
        model.save_weights(net, root / "net.fgw")
        return {"root": root, "seed": seed, "scene": scene, "weights": root / "net.fgw",
                "masks": root / "masks", "probs": root / "probs",
                "net": {n: (p.weights, p.bias) for n, p in net.layers.items()}}

    @staticmethod
    def round(ctx):
        code, seconds, _ = run_cli(["segment", "--data", ctx["scene"],
                                    "--weights-in", ctx["weights"],
                                    "--out", ctx["masks"], "--probs", ctx["probs"]])
        return SEGMENT_FRAMES, seconds, code == 0

    @staticmethod
    def check(ctx):
        problems = []
        inputs, _ = frame_files(ctx["scene"])
        for n, path in enumerate(inputs, start=1):
            mask_path = ctx["masks"] / f"bin{n:06d}.pgm"
            prob_path = ctx["probs"] / f"prob{n:06d}.pgm"
            if not (mask_path.is_file() and prob_path.is_file()):
                problems.append(f"frame {n}: missing mask or probability map")
                continue
            q = ref.read_netpbm(prob_path)
            problems += ref.check_mask_against_probs(ref.read_netpbm(mask_path) > 127, q,
                                                     SEGMENT_THRESHOLD, f"frame {n} mask")
            if n == 1 + ctx["seed"] % len(inputs):
                want = ref.forward(ctx["net"], ref.read_frame(path))
                problems += ref.check_probs_match(q / 65535.0, want, FORWARD_TOL,
                                                  f"frame {n} probability map")
        return problems


# ----------------------------------------------------------- score-cdtree

def score_videos():
    return [(c, v) for c in SCORE_CATEGORIES for v in SCORE_VIDEOS]


def score_frames():
    """Ground-truth frames one round scores: evaluate plus sweep."""
    return 2 * len(score_videos()) * (SCORE_FRAMES - SCORE_SKIP)


class Score:
    name = "score-cdtree"

    @staticmethod
    def setup(root, seed):
        tree, masks, probs = root / "tree", root / "masks", root / "probs"
        rng = np.random.default_rng(seed)
        width, height = SEGMENT_SIZE
        roi = np.full((height, width), 255, np.uint8)
        roi[:, :SCORE_ROI_BAND] = 0
        for k, (cat, vid) in enumerate(score_videos()):
            video = tree / cat / vid
            data.write_synth_dataset(data.SynthConfig(width=width, height=height,
                                                      n_frames=SCORE_FRAMES,
                                                      n_objects=SEGMENT_OBJECTS,
                                                      object_size=SEGMENT_OBJECT_SIZE,
                                                      seed=seed * 100 + k), video)
            (video / "temporalROI.txt").write_text(f"{SCORE_SKIP + 1} {SCORE_FRAMES}\n")
            netpbm.write_pgm(video / "ROI.pgm", roi)
            (masks / cat / vid).mkdir(parents=True)
            (probs / cat / vid).mkdir(parents=True)
            _, labels = frame_files(video)
            for n, path in enumerate(labels, start=1):
                fg = ref.read_netpbm(path) == ref.FG_CODE
                p = np.clip(0.25 + 0.5 * fg + rng.normal(0.0, 0.2, fg.shape), 0.0, 1.0)
                p = p.astype(np.float32)
                data.write_prob_map(p, probs / cat / vid / f"prob{n:06d}.pgm")
                data.write_mask(p, SCORE_MASK_THRESHOLD, masks / cat / vid / f"bin{n:06d}.pgm")
        return {"root": root, "seed": seed, "tree": tree, "masks": masks, "probs": probs}

    @staticmethod
    def round(ctx):
        ok = True
        code, seconds, _ = run_cli(["evaluate", "--data", ctx["tree"], "--masks", ctx["masks"],
                                    "--out", ctx["root"] / "evaluate.csv"])
        ok &= code == 0
        for cat, vid in score_videos():
            code, dt, _ = run_cli(["sweep", "--data", ctx["tree"] / cat / vid,
                                   "--probs", ctx["probs"] / cat / vid,
                                   "--out", ctx["root"] / f"sweep-{cat}-{vid}.csv"])
            seconds += dt
            ok &= code == 0
        return score_frames(), seconds, ok

    @staticmethod
    def check(ctx):
        expected = score_expected(ctx)
        problems = []
        rows = {name: ref.metrics(e["counts"]) for name, e in expected.items()}
        for cat in SCORE_CATEGORIES:
            rows[cat] = ref.mean_rows([rows[f"{cat}/{vid}"] for vid in SCORE_VIDEOS])
        rows["Overall"] = ref.mean_rows([rows[cat] for cat in SCORE_CATEGORIES])
        problems += ref.check_rows(ref.read_csv_rows(ctx["root"] / "evaluate.csv"), rows,
                                   what="evaluate")
        for cat, vid in score_videos():
            got = ref.read_csv_rows(ctx["root"] / f"sweep-{cat}-{vid}.csv")
            want = {f"{t:.1f}": ref.metrics(c)
                    for t, c in zip(SWEEP_THRESHOLDS, expected[f"{cat}/{vid}"]["sweep_counts"])}
            problems += ref.check_rows(got, want, what=f"sweep {cat}/{vid}")
            problems += ref.check_recall_non_increasing(
                [got[k][0] for k in sorted(got)], f"sweep {cat}/{vid}")
        return problems


def score_expected(ctx):
    """Our own confusion counts per video, for the masks and at each sweep
    threshold, from the files on disk and the ROIs."""
    expected = {}
    for cat, vid in score_videos():
        video = ctx["tree"] / cat / vid
        first, last = map(int, (video / "temporalROI.txt").read_text().split())
        roi = ref.read_netpbm(video / "ROI.pgm") > 127
        _, labels = frame_files(video)
        total = (0, 0, 0, 0)
        sweep = [(0, 0, 0, 0)] * len(SWEEP_THRESHOLDS)
        for n in range(first, last + 1):
            raw = ref.labels_in_roi(ref.read_netpbm(labels[n - 1]), roi)
            mask = ref.read_netpbm(ctx["masks"] / cat / vid / f"bin{n:06d}.pgm") > 127
            total = ref.add(total, ref.counts(mask, raw))
            q = ref.read_netpbm(ctx["probs"] / cat / vid / f"prob{n:06d}.pgm").astype(np.int64)
            # q/65535 > k/10, decided exactly in integers
            sweep = [ref.add(s, ref.counts(10 * q > round(10 * t) * 65535, raw))
                     for s, t in zip(sweep, SWEEP_THRESHOLDS)]
        expected[f"{cat}/{vid}"] = {"counts": total, "sweep_counts": sweep}
    return expected


WORKLOADS = {w.name: w for w in (Train, Segment, Score)}
