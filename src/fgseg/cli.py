"""Command line surface: train, segment, evaluate, sweep, synth, info.

This module must not import numpy (directly or through a sibling module) at
import time: FGSEG_THREADS has to pin the BLAS thread pools before numpy
first loads, so all heavy imports happen inside main().
"""

import argparse
import csv
import os
import re
import sys
import time
from pathlib import Path

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "NUMEXPR_NUM_THREADS")


def pin_threads(environ=os.environ):
    """Apply FGSEG_THREADS to the BLAS pool variables that are still unset."""
    raw = environ.get("FGSEG_THREADS")
    if raw is None or raw == "":
        return None
    # ASCII digits only: str.isdigit also passes '٣' and '²'
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"FGSEG_THREADS must be a positive integer, got {raw!r}")
    n = int(raw)
    for var in THREAD_ENV_VARS:
        environ.setdefault(var, str(n))
    return n


THRESHOLD = 0.8   # probability above which a pixel is foreground
PRECISIONS = {"f32": "float32", "f64": "float64"}   # dtype names: numpy loads later


def _bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, `fgseg <cmd>: <message>`, and exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")

    def parse_args(self, args=None, namespace=None):
        ns, extra = self.parse_known_args(args, namespace)
        if extra:
            self.exit(2, f"{self.prog} {ns.command}: unrecognized arguments: "
                         f"{' '.join(extra)}\n")
        return ns


def _build_parser(training):
    """Defaults come from the library's own config dataclasses: TrainConfig's
    here, SynthConfig's when validate builds the scene from the flags given."""
    train = training.TrainConfig()
    parser = _Parser(
        prog="fgseg",
        description="Scene-specific foreground segmentation: train on a few "
                    "labeled frames of one sequence, then segment and score it.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, *flag_groups, **defaults):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="file of key=value lines, keys being "
                                        "long flag names; explicit flags win")
        for args, kwargs in flag_groups:
            p.add_argument(*args, **kwargs)
        p.set_defaults(**defaults)

    scene_flags = [
        (("--width",), dict(type=int, help="synthetic frame width")),
        (("--height",), dict(type=int, help="synthetic frame height")),
        (("--objects",), dict(type=int, help="synthetic object count")),
        (("--seed",), dict(type=int)),
    ]
    source = [
        (("--data",), dict(help="sequence root (input/ + groundtruth/)")),
        (("--synthetic",), dict(action="store_true",
                                help="use a generated scene instead of --data")),
        *scene_flags,
    ]
    add("train", "fit a model to one sequence", *source,
        (("--manifest",), dict(help="file of 0-based frame indices, one per line")),
        (("--frames",), dict(type=int, help="training frame count (not with --manifest)")),
        (("--epochs",), dict(type=int)),
        (("--lr",), dict(type=float)),
        (("--weights-in",), dict(dest="weights_in",
                                 help="container with pretrained encoder weights")),
        (("--weights-out",), dict(dest="weights_out")),
        (("--out",), dict(help="history CSV path (default: alongside weights)")),
        (("--precision",), dict(choices=tuple(PRECISIONS), default="f32")),
        lr=train.lr, seed=train.seed)
    add("segment", "write binary masks for every frame", *source,
        (("--frames",), dict(type=int, help="synthetic frame count")),
        (("--weights-in",), dict(dest="weights_in")),
        (("--threshold",), dict(type=float)),
        (("--out",), dict(help="mask output directory")),
        (("--probs",), dict(help="also dump 16-bit probability maps here")),
        threshold=THRESHOLD)
    add("evaluate", "score masks against ground truth",
        (("--data",), dict(help="sequence root or category tree")),
        (("--masks",), dict(help="mask directory (mirrors --data layout)")),
        (("--out",), dict(help="CSV output path")))
    add("sweep", "threshold sweep over probability dumps",
        (("--data",), dict(help="sequence root")),
        (("--probs",), dict(help="directory of 16-bit probability maps")),
        (("--out",), dict(help="CSV output path")))
    add("synth", "generate a synthetic sequence on disk",
        (("--out",), dict(help="output directory")),
        (("--frames",), dict(type=int)),
        *scene_flags)
    add("info", "print the parameter report")
    return parser


def _read_config_file(path):
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise ValueError(f"cannot read config file: {e}") from e
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _apply_config(parser, argv, args):
    """Parse again with the config file's lines as leading --key=value flags,
    so explicit flags win and file values pass the same checks as flags."""
    known = set(vars(args)) - {"command", "config"}
    flags = []
    for key, value in _read_config_file(args.config).items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if key == "synthetic":
            flags += ["--synthetic"] if _bool(value) else []
        else:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return parser.parse_args([args.command, *flags, *argv[1:]])


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{cfg.command} requires {flag}")


def validate(cfg):
    """All flag-combination checks run here, before any file is touched.
    The scene and training rules are the library configs' own: a synthetic
    scene's SynthConfig is built here from the flags given, as cfg.scene for
    the command to use; a flag left unset takes the SynthConfig default."""
    # main() has pinned the threads by now, so numpy may load
    from .data import SynthConfig, check_threshold
    from .training import TrainConfig
    if cfg.command in ("train", "segment"):
        if cfg.synthetic and cfg.data:
            raise ValueError("--data and --synthetic are mutually exclusive")
        if not cfg.synthetic and not cfg.data:
            raise ValueError(f"{cfg.command} requires --data or --synthetic")
        if cfg.data:  # train --data still draws --frames frames with --seed
            scene_only = ["width", "height", "objects"]
            scene_only += ["frames", "seed"] if cfg.command == "segment" else []
            for name in scene_only:
                if getattr(cfg, name) is not None:
                    raise ValueError(f"--{name} applies to a synthetic scene only, not to --data")
    if cfg.command == "train":
        _require(cfg, "weights_out")
        if not cfg.weights_out:   # Path("") is ".", which no file can replace
            raise ValueError("--weights-out is empty")
        if cfg.manifest and cfg.frames is not None:
            raise ValueError("--frames and --manifest are mutually exclusive")
        if cfg.frames is None:   # a synthetic scene's length under --manifest
            cfg.frames = TrainConfig.n_frames
        TrainConfig(n_frames=cfg.frames, epochs=cfg.epochs, lr=cfg.lr)
        weights = Path(cfg.weights_out)   # not with_suffix, which raises on "."
        cfg.out = cfg.out or str(weights.parent / f"{weights.stem}.history.csv")
        out, weights = Path(cfg.out).resolve(), weights.resolve()
        if out == weights:
            raise ValueError(f"--out and --weights-out both name {cfg.out}")
        if out.is_relative_to(weights) or weights.is_relative_to(out):
            raise ValueError(f"--out {cfg.out} and --weights-out {cfg.weights_out}: "
                             f"one lies below the other")
    elif cfg.command == "segment":
        _require(cfg, "weights_in", "out")
        check_threshold(cfg.threshold)
    elif cfg.command == "evaluate":
        _require(cfg, "data", "masks")
    elif cfg.command == "sweep":
        _require(cfg, "data", "probs")
    elif cfg.command == "synth":
        _require(cfg, "out")
    wants_dir = cfg.command in ("segment", "synth")   # the others write files
    for name in {"train": ("weights_out", "out"), "evaluate": ("out",), "sweep": ("out",),
                 "segment": ("out", "probs"), "synth": ("out",)}.get(cfg.command, ()):
        if not (path := getattr(cfg, name)):
            if path == "" and wants_dir:   # Path("") is the working directory
                raise ValueError(f"--{name} is empty")
            continue
        flag = f"--{name.replace('_', '-')} {path}"
        if Path(path).exists() and Path(path).is_dir() != wants_dir:
            raise ValueError(f"{flag} is {'not ' if wants_dir else ''}a directory")
        # the directory written in, or the nearest existing one that the
        # missing ones are made in; a file there leaves no way to make them
        ancestor = next(p for p in [Path(path)] * wants_dir + [*Path(path).parents]
                        if p.exists())
        if not ancestor.is_dir():
            raise ValueError(f"{flag}: {ancestor} is not a directory")
        if not os.access(ancestor, os.W_OK | os.X_OK):
            raise ValueError(f"{flag}: no permission to write in {ancestor}")
    if cfg.command == "synth" or getattr(cfg, "synthetic", False):
        given = dict(width=cfg.width, height=cfg.height, n_frames=cfg.frames,
                     n_objects=cfg.objects, seed=cfg.seed)
        cfg.scene = SynthConfig(**{k: v for k, v in given.items() if v is not None})
    return cfg


def _fmt(x):
    if isinstance(x, float) and x != 0 and abs(x) < 1e-3:
        mantissa, exponent = f"{x:e}".split("e")
        mantissa = mantissa.rstrip("0").rstrip(".")
        return f"{mantissa}e{int(exponent)}"
    return f"{x:g}" if isinstance(x, float) else str(x)


def _frame_number(path, index):
    digits = re.findall(r"\d+", Path(path).stem)
    return int(digits[-1]) if digits else index + 1


def _frame_file(directory, kind, number):
    """The file segment writes for frame number: kind "bin" for its mask,
    "prob" for its probability map."""
    return Path(directory) / f"{kind}{number:06d}.pgm"


def _scored_files(data, root, directory, kind, what):
    """The sequence at root, and (index, file) for each frame of its
    temporal ROI, the file being what segment wrote for that frame under
    directory; fails naming the first file missing."""
    handle = data.load_sequence(root)
    wanted = [(i, _frame_file(directory, kind, _frame_number(handle.frame_paths[i], i)))
              for i in range(*data.temporal_range(handle))]
    missing = [p for _, p in wanted if not p.exists()]
    if missing:
        raise ValueError(f"{root}: {len(wanted)} ground-truth frames but "
                         f"{len(wanted) - len(missing)} {what} under {directory} "
                         f"(first missing: {missing[0].name})")
    return handle, wanted


# ------------------------------------------------------------------ commands

def _training_examples(cfg, data, training):
    handle = None if cfg.synthetic else data.load_sequence(cfg.data)
    total = cfg.scene.n_frames if cfg.synthetic else len(handle)
    start, stop = (0, total) if cfg.synthetic else data.temporal_range(handle)
    if cfg.manifest:   # indices over the whole sequence, not its temporal ROI
        indices = training.read_manifest(cfg.manifest, total)
    else:
        indices = [start + i for i in training.select_frames(stop - start, cfg.frames, cfg.seed)]
    if cfg.synthetic:
        # the scene is drawn in order, and only the chosen frames are kept
        chosen = {i: pair for i, pair in enumerate(data.synth_frames(cfg.scene))
                  if i in indices}
        return training.examples_from_pairs(chosen, indices)
    return [training.TrainingExample(data.read_frame(handle, i),
                                     data.read_labels(handle, i), i)
            for i in indices]


def cmd_train(cfg, data, model, training):
    examples = _training_examples(cfg, data, training)
    net = model.build_model(encoder_weights=cfg.weights_in, seed=cfg.seed,
                            dtype=PRECISIONS[cfg.precision])
    tc = training.TrainConfig(n_frames=len(examples), epochs=cfg.epochs,
                              lr=cfg.lr, seed=cfg.seed)
    print(f"train: frames={len(examples)} epochs={tc.epochs} lr={_fmt(tc.lr)} "
          f"rho={_fmt(training.RHO)} eps={_fmt(training.EPSILON)} batch=1 "
          f"val-split={_fmt(training.VAL_SPLIT)} precision={cfg.precision} "
          f"seed={cfg.seed}")

    def report(state):
        print(f"epoch {len(state.val_loss)}/{tc.epochs} train={state.train_loss[-1]:.6f} "
              f"val={state.val_loss[-1]:.6f} lr={_fmt(state.lr[-1])}")

    net, state = training.train(tc, examples, net, progress=report)
    weights_path, history_path = Path(cfg.weights_out), Path(cfg.out)
    model.save_weights(net, weights_path)
    with data.atomic_write(history_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "train_loss", "val_loss", "lr", "checkpoint"))
        for epoch, (tl, vl, lr) in enumerate(zip(state.train_loss,
                                                 state.val_loss, state.lr)):
            writer.writerow((epoch, f"{tl:.8f}", f"{vl:.8f}", f"{lr:.8g}",
                             int(epoch == state.checkpoint_epoch)))
    print(f"checkpoint: epoch {state.checkpoint_epoch + 1} "
          f"(val={state.val_loss[state.checkpoint_epoch]:.6f})")
    print(f"wrote {weights_path} and {history_path}")
    return 0


def _segment_inputs(cfg, data):
    """Yields (mask number, frame tensor)."""
    if cfg.synthetic:
        for i, (frame, _) in enumerate(data.synth_frames(cfg.scene)):
            yield i + 1, frame
    else:
        handle = data.load_sequence(cfg.data)
        for i in range(len(handle)):
            yield (_frame_number(handle.frame_paths[i], i),
                   data.read_frame(handle, i))


def cmd_segment(cfg, data, model, pyramid):
    import numpy as np
    net = model.load_weights(cfg.weights_in)
    seconds = []
    for number, frame in _segment_inputs(cfg, data):
        start = time.perf_counter()
        probs = model.forward(net, pyramid.build_pyramid(frame))
        data.write_mask(probs, cfg.threshold, _frame_file(cfg.out, "bin", number))
        if cfg.probs:
            data.write_prob_map(probs, _frame_file(cfg.probs, "prob", number))
        seconds.append(time.perf_counter() - start)
    print(f"segment: wrote {len(seconds)} masks to {Path(cfg.out)} (threshold {_fmt(cfg.threshold)})")
    p50, p95 = np.percentile(seconds, [50, 95]) * 1e3
    print(f"segment: {len(seconds)} frames, {len(seconds) / sum(seconds):.3f} frames/s, "
          f"latency p50 {p50:.1f} ms p95 {p95:.1f} ms")
    return 0


def _report(cfg, rows, data, metrics, *lines):
    """The table, a note naming any 0/0 ratio, lines, then the CSV to --out."""
    print(metrics.format_table(rows))
    flagged = sorted({name for _, r in rows for name in r.degenerate})
    if flagged:
        print(f"degenerate ratios (0/0 reported as 0): {', '.join(flagged)}")
    for line in lines:
        print(line)
    if cfg.out:
        with data.atomic_write(cfg.out, "w", newline="") as fh:
            metrics.emit_csv(rows, fh)
        print(f"wrote {cfg.out}")


def _score_video(video_root, masks_dir, data, metrics):
    handle, wanted = _scored_files(data, video_root, masks_dir, "bin", "masks")
    counts = metrics.ConfusionCounts(0, 0, 0, 0)
    for i, mask_path in wanted:
        counts = counts + metrics.accumulate(data.read_mask(mask_path),
                                             data.read_labels(handle, i))
    return metrics.compute_metrics(counts)


def cmd_evaluate(cfg, data, metrics):
    root = Path(cfg.data)
    masks = Path(cfg.masks)
    rows = []
    if (root / "input").is_dir():
        report = _score_video(root, masks, data, metrics)
        tree = {root.name or "sequence": {root.name or "sequence": report}}
        rows.append((root.name or "sequence", report))
    else:
        tree = {}
        for cat in sorted(p for p in root.iterdir() if p.is_dir()):
            vids = sorted(v for v in cat.iterdir() if (v / "input").is_dir())
            if not vids:
                continue
            tree[cat.name] = {}
            for vid in vids:
                report = _score_video(vid, masks / cat.name / vid.name,
                                      data, metrics)
                tree[cat.name][vid.name] = report
                rows.append((f"{cat.name}/{vid.name}", report))
        if not tree:
            raise ValueError(f"{root}: no sequences found (missing input/ dirs)")
    per_category, overall = metrics.aggregate(tree)
    if len(tree) > 1 or len(next(iter(tree.values()))) > 1:
        rows.extend(sorted(per_category.items()))
    rows.append(("Overall", overall))
    _report(cfg, rows, data, metrics)
    return 0


def cmd_sweep(cfg, data, metrics):
    handle, wanted = _scored_files(data, cfg.data, cfg.probs, "prob", "probability maps")
    thresholds = tuple(round(0.1 * k, 1) for k in range(1, 10))
    # generators, so the sweep reads and counts one frame at a time
    result = metrics.threshold_sweep((data.read_prob_map(p) for _, p in wanted),
                                     (data.read_labels(handle, i) for i, _ in wanted),
                                     thresholds)
    rows = [(f"{t:.1f}", r) for t, r in zip(result.thresholds, result.reports)]
    _report(cfg, rows, data, metrics, f"best threshold: {result.best_threshold:.1f} "
                                      f"(F-Measure={result.best_f:.4f})")
    return 0


def cmd_synth(cfg, data):
    sc = cfg.scene
    data.write_synth_dataset(sc, cfg.out)
    print(f"synth: wrote {sc.n_frames} frames ({sc.width}x{sc.height}, "
          f"{sc.n_objects} objects, seed {sc.seed}) to {cfg.out}")
    return 0


def cmd_info(model):
    net = model.build_model()
    total, trainable, frozen = model.count_parameters(net)
    print(f"parameters: total={total:,} trainable={trainable:,} frozen={frozen:,}")
    header = ("layer", "kind", "weights", "params", "trainable", "l2")
    body = [(name, kind, "x".join(str(s) for s in shape), f"{params:,}",
             "yes" if is_trainable else "no", _fmt(l2))
            for name, kind, shape, params, is_trainable, l2 in model.layer_table(net)]
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in body:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return 0


def main(argv=None):
    try:
        pin_threads()
    except ValueError as e:
        print(f"fgseg: {e}", file=sys.stderr)
        return 2
    import numpy as np
    from . import data, metrics, model, pyramid, training
    parser = _build_parser(training)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        cfg = validate(_apply_config(parser, argv, args) if args.config else args)
    except ValueError as e:
        print(f"fgseg {args.command}: {e}", file=sys.stderr)
        return 2
    # the finite checks report overflow in one line, so numpy need not warn;
    # scoped, not np.seterr, so an in-process caller keeps its own settings
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.command == "train":
                return cmd_train(cfg, data, model, training)
            if cfg.command == "segment":
                return cmd_segment(cfg, data, model, pyramid)
            if cfg.command == "evaluate":
                return cmd_evaluate(cfg, data, metrics)
            if cfg.command == "sweep":
                return cmd_sweep(cfg, data, metrics)
            if cfg.command == "synth":
                return cmd_synth(cfg, data)
            return cmd_info(model)
    except (ValueError, OSError, ArithmeticError) as e:
        message = str(e).splitlines()[0] if str(e) else type(e).__name__
        print(f"fgseg {cfg.command}: {message}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports it
        print(f"fgseg {cfg.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
