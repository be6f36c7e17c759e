"""Check that two source trees write the same bytes.

    python3 tools/same_bytes.py PARENT_TREE

Runs one fixed list of fgseg commands in PARENT_TREE and in the tree
holding this script, each tree's package taken from its own src/ on one
BLAS thread, then compares the SHA-256 of every file the commands wrote.
Each stage writes below its own numbered path, so files compare in the
order their stages ran; then each command's printed output, as a file
stdout/NN-<command>, with segment's timings masked. Prints the first file
that differs and exits 1, or one line with the file count and exits 0.

The list covers training at 64x64 in f32 and f64, a 30x22 scene trained,
then segmented with probability maps, a 2-frame 320x240 segment,
evaluate and sweep over a category tree with spatial and temporal ROIs,
the 30x22 scene trained on the frames of a manifest file, and one epoch
of training at 320x240, where the streamed decoder layers run several
bands with a tape.
Standard library only.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN64 = ["--synthetic", "--width", "64", "--height", "64", "--frames", "10",
           "--epochs", "3", "--seed", "4"]
# the score tree: category/video -> synthetic scene seed
VIDEOS = {"c0/v0": 3, "c0/v1": 7, "c1/v0": 8}
WIDTH, HEIGHT = 30, 22
SCENE = ["--width", str(WIDTH), "--height", str(HEIGHT), "--frames", "12"]
ROI_BAND = 6        # left columns outside the spatial ROI
TEMPORAL_ROI = "3 12\n"
MANIFEST = "7\n0\n11\n# a comment\n3\n5\n9\n"   # 0-based, out of order
TIMING = re.compile(r"[\d.]+(?= (?:frames/s|ms)\b)")   # segment's speed line


def _write_rois(work):
    """Replace each tree video's full ROIs with a spatial ROI that leaves
    out the left band, and a temporal ROI that skips the first two frames."""
    row = bytes(ROI_BAND) + b"\xff" * (WIDTH - ROI_BAND)
    for video in VIDEOS:
        root = work / "08-tree" / video
        (root / "ROI.pgm").write_bytes(b"P5\n%d %d\n255\n" % (WIDTH, HEIGHT) + row * HEIGHT)
        (root / "temporalROI.txt").write_text(TEMPORAL_ROI)


def _write_manifest(work):
    (work / "12-manifest.txt").write_text(MANIFEST)


def steps():
    """The command list, in order: fgseg argv lists, and functions of the
    work directory."""
    yield ["train", *TRAIN64, "--weights-out", "01-train-f32/w.fgw"]
    yield ["train", *TRAIN64, "--precision", "f64", "--weights-out", "02-train-f64/w.fgw"]
    yield ["synth", "--out", "03-s30", *SCENE, "--seed", "3"]
    yield ["train", "--data", "03-s30", "--frames", "8", "--epochs", "2", "--seed", "5",
           "--weights-out", "04-s30-train/w.fgw"]
    yield ["segment", "--data", "03-s30", "--weights-in", "04-s30-train/w.fgw",
           "--out", "05-s30-segment/masks", "--probs", "05-s30-segment/probs"]
    yield ["synth", "--out", "06-s320", "--width", "320", "--height", "240",
           "--frames", "2", "--seed", "6"]
    yield ["segment", "--data", "06-s320", "--weights-in", "01-train-f32/w.fgw",
           "--out", "07-s320-segment/masks", "--probs", "07-s320-segment/probs"]
    for video, seed in VIDEOS.items():
        yield ["synth", "--out", f"08-tree/{video}", *SCENE, "--seed", str(seed)]
    yield _write_rois
    for video in VIDEOS:
        yield ["segment", "--data", f"08-tree/{video}", "--weights-in", "04-s30-train/w.fgw",
               "--out", f"09-tree-segment/masks/{video}",
               "--probs", f"09-tree-segment/probs/{video}"]
    yield ["evaluate", "--data", "08-tree", "--masks", "09-tree-segment/masks",
           "--out", "10-evaluate.csv"]
    video = next(iter(VIDEOS))
    yield ["sweep", "--data", f"08-tree/{video}", "--probs", f"09-tree-segment/probs/{video}",
           "--out", "11-sweep.csv"]
    yield _write_manifest
    yield ["train", "--data", "03-s30", "--manifest", "12-manifest.txt", "--epochs", "2",
           "--seed", "5", "--weights-out", "13-s30-manifest/w.fgw"]
    yield ["train", "--synthetic", "--width", "320", "--height", "240", "--frames", "5",
           "--epochs", "1", "--seed", "6", "--weights-out", "14-train-320/w.fgw"]


def run_list(tree, work):
    """Run every step with tree's package in work; (None, {stdout/NN-<command>:
    printed output, timings masked}), or (why it failed, None)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               FGSEG_THREADS="1")
    printed = {}
    for number, step in enumerate(steps()):
        if callable(step):
            step(work)
            continue
        proc = subprocess.run([sys.executable, "-m", "fgseg.cli", *step], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return f"fgseg {' '.join(step)} exited {proc.returncode}: {last}", None
        printed[f"stdout/{number:02d}-{step[0]}"] = TIMING.sub("#", proc.stdout).encode()
    return None, printed


def digests(work, printed):
    """{path relative to work: SHA-256} of every file below work, and of
    each printed output under its name."""
    files = {p.relative_to(work).as_posix(): p.read_bytes()
             for p in work.rglob("*") if p.is_file()}
    return {name: hashlib.sha256(data).hexdigest() for name, data in {**files, **printed}.items()}


def compare(parent, tree, work):
    """Run the list in both trees below work; (exit code, one-line verdict)."""
    found = {}
    for side, root in (("parent", parent), ("tree", tree)):
        (work / side).mkdir()
        failure, printed = run_list(root, work / side)
        if failure:
            return 1, f"{root}: {failure}"
        found[side] = digests(work / side, printed)
    a, b = found["parent"], found["tree"]
    for path in sorted(a.keys() | b.keys()):
        if path not in b or path not in a:
            return 1, f"differs: {path} written only in {parent if path in a else tree}"
        if a[path] != b[path]:
            return 1, (f"differs: {path} (sha256 {a[path][:12]} in {parent}, "
                       f"{b[path][:12]} in {tree})")
    return 0, f"same bytes: {len(a)} files"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parent = parser.parse_args(argv).parent
    if not (parent / "src" / "fgseg").is_dir():
        parser.error(f"{parent} holds no src/fgseg")
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as work:
        code, verdict = compare(parent.resolve(), Path(__file__).resolve().parents[1], Path(work))
    print(verdict)
    return code


if __name__ == "__main__":
    sys.exit(main())
