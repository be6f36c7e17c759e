import csv
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import fgseg
from fgseg import data, netpbm
from fgseg.cli import THREAD_ENV_VARS, main, pin_threads


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """run(), counting argparse's own exit as the code it exits with."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


# ------------------------------------------------------------- thread pinning

def test_thread_cap_fills_unset_blas_vars():
    env = {"FGSEG_THREADS": "2", "MKL_NUM_THREADS": "8"}
    assert pin_threads(env) == 2
    for var in THREAD_ENV_VARS:
        assert env[var] == ("8" if var == "MKL_NUM_THREADS" else "2")


def test_thread_cap_absent_is_a_no_op():
    env = {}
    assert pin_threads(env) is None
    assert env == {}


@pytest.mark.parametrize("bad", ["abc", "0", "-3", "1.5", "\u0663", "\u00b2"])
def test_thread_cap_rejects_garbage(bad):
    # '٣' (Arabic-Indic three) and '²' pass str.isdigit; a BLAS reads neither
    env = {"FGSEG_THREADS": bad}
    with pytest.raises(ValueError, match=r"^FGSEG_THREADS must be a positive integer, got "):
        pin_threads(env)
    assert env == {"FGSEG_THREADS": bad}


def test_thread_cap_writes_the_plain_number():
    env = {"FGSEG_THREADS": "007"}
    assert pin_threads(env) == 7
    assert all(env[var] == "7" for var in THREAD_ENV_VARS)


# ----------------------------------------------------------------- info/synth

def test_info_reports_exact_parameter_counts(capsys):
    assert run("info") == 0
    out = capsys.readouterr().out
    assert "total=8,222,401" in out
    assert "trainable=6,486,913" in out
    assert "frozen=1,735,488" in out
    lines = out.strip().splitlines()
    # counts line + table header + 21 parameterized layers
    assert len(lines) == 23


def test_synth_dataset_round_trips(tmp_path, capsys):
    out = tmp_path / "scene"
    assert run("synth", "--out", out, "--frames", 8, "--width", 16,
               "--height", 16) == 0
    handle = data.load_sequence(out)
    assert len(handle) == 8
    assert data.temporal_range(handle) == (0, 8)
    assert "wrote 8 frames" in capsys.readouterr().out


def test_usage_error_is_one_line(capsys):
    assert exit_code("train", "--precision", "f16") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("fgseg train: argument --precision: invalid choice")


def test_unknown_flag_names_the_command(capsys):
    # info takes only --config: its model is built the same way every time
    for flags in (("--bogus",), ("--seed", "3"), ("--precision", "f64")):
        assert exit_code("info", *flags) == 2
        err = capsys.readouterr().err
        assert err == f"fgseg info: unrecognized arguments: {' '.join(flags)}\n"


def test_synth_requires_out(tmp_path, capsys):
    assert run("synth", "--frames", 4) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--out" in err


# --------------------------------------------------------------------- train

TINY = ("--synthetic", "--width", "16", "--height", "16", "--frames", "6")


def test_interrupt_is_one_line_with_exit_130(tmp_path, monkeypatch, capsys):
    from fgseg import training

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "train", interrupted)
    assert run("train", *TINY, "--weights-out", tmp_path / "w.fgsn") == 130
    assert capsys.readouterr().err == "fgseg train: interrupted\n"
    assert list(tmp_path.iterdir()) == []


def test_train_banner_and_outputs(tmp_path, capsys):
    weights = tmp_path / "model.fgsn"
    assert run("train", *TINY, "--epochs", 2, "--weights-out", weights) == 0
    out = capsys.readouterr().out
    for token in ("lr=1e-4", "rho=0.9", "eps=1e-8", "val-split=0.2",
                  "batch=1"):
        assert token in out, token
    assert weights.exists()
    history = tmp_path / "model.history.csv"
    assert history.exists()
    with open(history) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_loss", "lr", "checkpoint"]
    assert len(rows) == 3
    assert sum(int(r[4]) for r in rows[1:]) == 1
    assert "checkpoint: epoch" in out


def test_small_frame_budget_defaults_to_sixty_epochs(tmp_path, capsys):
    # 5 manifest frames keep the run small while leaving epochs at the default
    manifest = tmp_path / "frames.txt"
    manifest.write_text("0\n1\n2\n3\n4\n")
    weights = tmp_path / "m.fgsn"
    assert run("train", *TINY[:-2], "--width", "12", "--height", "12",
               "--manifest", manifest, "--weights-out", weights) == 0
    out = capsys.readouterr().out
    assert "epochs=60" in out
    assert out.count("epoch ") == 60 + 1  # 60 progress lines + checkpoint line


def test_manifest_with_repeated_index_fails_before_training(tmp_path, capsys):
    # a repeated frame could land in both the train and validation splits
    manifest = tmp_path / "frames.txt"
    manifest.write_text("0\n1\n2\n3\n3\n")
    weights = tmp_path / "m.fgsn"
    assert run("train", *TINY[:-2], "--manifest", manifest, "--weights-out", weights) == 1
    err = capsys.readouterr().err
    assert err == f"fgseg train: {manifest}: duplicate frame indices [3]\n"
    assert not weights.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_frames_with_manifest_fail_before_any_work(tmp_path, capsys, where):
    # --manifest picks the frames, so --frames did nothing but was still
    # checked: 3 failed as too few, 40 trained on the manifest's 6 frames
    manifest = tmp_path / "frames.txt"
    manifest.write_text("0\n1\n2\n3\n4\n5\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("frames=40\n")
    frames = ("--frames", 40) if where == "flag" else ("--config", cfgfile)
    assert run("train", *TINY[:-2], *frames, "--manifest", manifest,
               "--weights-out", tmp_path / "w.fgsn") == 2
    assert capsys.readouterr() == ("", "fgseg train: --frames and --manifest are "
                                       "mutually exclusive\n")
    assert sorted(tmp_path.iterdir()) == [manifest, cfgfile]


@pytest.mark.parametrize("manifest", [False, True])
def test_train_frames_default_is_train_configs(tmp_path, monkeypatch, manifest):
    # with no --frames, a synthetic scene is TrainConfig's frame count long
    from fgseg.training import TrainConfig
    seen = []

    def stop(config):
        seen.append(config.n_frames)
        raise ValueError("stop before training")

    monkeypatch.setattr(data, "synth_frames", stop)
    (tmp_path / "m.txt").write_text("0\n1\n2\n3\n4\n")
    flags = ("--manifest", tmp_path / "m.txt") if manifest else ()
    assert run("train", *TINY[:-2], *flags, "--weights-out", tmp_path / "w.fgsn") == 1
    assert seen == [TrainConfig().n_frames] == [50]


def test_all_void_frame_fails_before_training(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 6, "--width", 16,
               "--height", 16) == 0
    netpbm.write_pgm(scene / "groundtruth" / "gt000004.pgm",
                     np.full((16, 16), data.CODE_UNKNOWN, np.uint8))
    capsys.readouterr()
    weights = tmp_path / "m.fgsn"
    assert run("train", "--data", scene, "--frames", 6, "--epochs", 1,
               "--weights-out", weights) == 1
    out, err = capsys.readouterr()
    assert err == "fgseg train: frame 3: no supervised pixels (all void)\n"
    assert "epoch 1/1" not in out
    assert not weights.exists()


def test_train_is_deterministic_end_to_end(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        weights = tmp_path / f"{name}.fgsn"
        history = tmp_path / f"{name}.csv"
        assert run("train", *TINY, "--epochs", 2, "--seed", 4,
                   "--weights-out", weights, "--out", history) == 0
        blobs.append((weights.read_bytes(), history.read_bytes()))
    assert blobs[0] == blobs[1]


def test_train_validates_before_writing(tmp_path, capsys):
    assert run("train", *TINY, "--epochs", 1) == 2
    err = capsys.readouterr().err
    assert "--weights-out" in err
    assert list(tmp_path.iterdir()) == []
    # TrainConfig's and SynthConfig's own rules, applied before any frame is
    # read or generated
    for flags, message in ((("--epochs", 0), "epochs must be at least 1, got 0"),
                           (("--epochs", -2), "epochs must be at least 1, got -2"),
                           (("--lr", 0), "lr must be positive, got 0.0"),
                           (("--frames", 3), "need at least 5 training frames "
                                             "for a 20% validation split, got 3"),
                           (("--width", 8, "--height", 8),
                            "object_size 10 does not fit in 8x8")):
        assert run("train", *TINY, *flags, "--weights-out", tmp_path / "w.fgsn") == 2
        assert capsys.readouterr().err == f"fgseg train: {message}\n"
        assert list(tmp_path.iterdir()) == []


def test_numeric_failure_is_one_line(tmp_path, capsys):
    weights = tmp_path / "w.fgsn"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning
        assert run("train", *TINY, "--epochs", 3, "--lr", "1e30",
                   "--weights-out", weights) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"fgseg train: epoch 1 step \d+ \(frame \d+\): "
                        r"(enc|dec)\.b\d\.\w+ on a \S+ input: [^\n]+\n", err)
    assert list(tmp_path.iterdir()) == []


def test_train_has_no_threshold(tmp_path, capsys):
    # a flag or config line that would reach only the banner is a usage error
    assert exit_code("train", *TINY, "--weights-out", tmp_path / "w.fgsn",
                     "--threshold", "0.5") == 2
    assert capsys.readouterr().err == \
        "fgseg train: unrecognized arguments: --threshold 0.5\n"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("threshold=0.5\n")
    assert run("train", *TINY, "--config", cfgfile,
               "--weights-out", tmp_path / "w.fgsn") == 2
    assert capsys.readouterr().err == "fgseg train: unknown config key 'threshold'\n"
    assert not (tmp_path / "w.fgsn").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("train", ("--weights-out", "w.fgw", "--out", "w.fgw"),
     "--out and --weights-out both name w.fgw"),
    ("train", ("--weights-out", "w.fgw", "--out", "d/../w.fgw"),
     "--out and --weights-out both name d/../w.fgw"),
    ("train", ("--weights-out", "d"), "--weights-out d is a directory"),
    ("train", ("--weights-out", "w.fgw", "--out", "d"), "--out d is a directory"),
    ("train", ("--weights-out", "h.fgw"), "--out h.history.csv is a directory"),
    ("evaluate", ("--data", "scene", "--masks", "m", "--out", "d"), "--out d is a directory"),
    ("sweep", ("--data", "scene", "--probs", "p", "--out", "d"), "--out d is a directory"),
])
def test_output_paths_fail_before_any_work(tmp_path, monkeypatch, capsys,
                                            command, flags, message):
    # unchecked, the history CSV would overwrite the weights, or writing to
    # a directory would fail only after every epoch had run
    monkeypatch.chdir(tmp_path)
    for name in ("d", "h.history.csv"):
        (tmp_path / name).mkdir()
    source = (*TINY, "--epochs", 1) if command == "train" else ()
    assert run(command, *source, *flags) == 2
    assert capsys.readouterr().err == f"fgseg {command}: {message}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["d", "h.history.csv"]


@pytest.mark.parametrize("flags,message", [
    (("--weights-out", ""), "--weights-out is empty"),
    (("--weights-out", "wt/afile/w.fgw"), "--weights-out wt/afile/w.fgw: "
                                          "wt/afile is not a directory"),
    (("--weights-out", "w.fgw", "--out", "wt/afile/sub/h.csv"),
     "--out wt/afile/sub/h.csv: wt/afile is not a directory"),
])
def test_unwritable_train_outputs_fail_before_epoch_one(tmp_path, monkeypatch, capsys,
                                                        flags, message):
    # unchecked, each ran every epoch and then failed to save: an empty
    # path names ".", and a file stands where a directory must be made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wt").mkdir()
    (tmp_path / "wt" / "afile").write_bytes(b"x")
    assert run("train", *TINY, "--epochs", 1, *flags) == 2
    out, err = capsys.readouterr()
    assert err == f"fgseg train: {message}\n"
    assert "train:" not in out
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "wt"]
    assert (tmp_path / "wt" / "afile").read_bytes() == b"x"


@pytest.mark.parametrize("command,flags,bad,locked", [
    ("train", ("--weights-out", "ro/w.fgw"), "--weights-out ro/w.fgw", "ro"),
    ("train", ("--weights-out", "w.fgw", "--out", "ro/new/h.csv"), "--out ro/new/h.csv", "ro"),
    ("evaluate", ("--data", "s", "--masks", "m", "--out", "ro/x.csv"), "--out ro/x.csv", "ro"),
    ("sweep", ("--data", "s", "--probs", "p", "--out", "ro/new/x.csv"), "--out ro/new/x.csv", "ro"),
    ("segment", ("--synthetic", "--weights-in", "w.fgw", "--out", "ro"), "--out ro", "ro"),
    ("segment", ("--synthetic", "--weights-in", "w.fgw", "--out", "m", "--probs", "ro/new"),
     "--probs ro/new", "ro"),
    ("synth", ("--out", "ro/new"), "--out ro/new", "ro"),
    ("synth", ("--out", "new"), "--out new", "."),
])
def test_outputs_in_an_unwritable_directory_fail_before_any_work(
        tmp_path, monkeypatch, capsys, command, flags, bad, locked):
    # the directory written in, or the nearest existing one, must be
    # writable and searchable; unchecked, train failed to save only after
    # every epoch.  Root passes every mode check, so os.access is stubbed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ro").mkdir()
    access, denied = os.access, (tmp_path / locked).resolve()
    monkeypatch.setattr(os, "access", lambda path, mode: (
        Path(path).resolve() != denied and access(path, mode)))
    source = (*TINY, "--epochs", 1) if command == "train" else ()
    assert run(command, *source, *flags) == 2
    assert capsys.readouterr() == ("", f"fgseg {command}: {bad}: no permission to "
                                       f"write in {locked}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["ro"]
    assert list((tmp_path / "ro").iterdir()) == []


@pytest.mark.parametrize("weights,out", [
    ("a/w.fgw", "a/w.fgw/h.csv"),   # the history below the weights
    ("b/h.csv/w.fgw", "b/h.csv"),   # the weights below the history
])
def test_nested_train_outputs_fail_before_epoch_one(tmp_path, monkeypatch, capsys,
                                                    weights, out):
    # unchecked, each ran every epoch and then failed to save: one path
    # needs a directory where the other is written as a file
    monkeypatch.chdir(tmp_path)
    assert run("train", *TINY, "--epochs", 1, "--weights-out", weights, "--out", out) == 2
    stdout, err = capsys.readouterr()
    assert err == (f"fgseg train: --out {out} and --weights-out {weights}: "
                   f"one lies below the other\n")
    assert "train:" not in stdout
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flags,message", [
    ("segment", ("--out", "f"), "--out f is not a directory"),
    ("segment", ("--out", "m", "--probs", "f/p"), "--probs f/p: f is not a directory"),
    ("synth", ("--out", "f"), "--out f is not a directory"),
    ("synth", ("--out", "f/scene"), "--out f/scene: f is not a directory"),
    ("segment", ("--out", ""), "--out is empty"),   # Path("") is the working directory
    ("synth", ("--out", ""), "--out is empty"),
])
def test_directory_outputs_fail_before_any_work(tmp_path, monkeypatch, capsys,
                                                command, flags, message):
    # unchecked, each file case failed at run time, segment after making its
    # --out, and each empty one wrote into the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_bytes(b"x")
    source = ("--synthetic", "--weights-in", "w.fgw") if command == "segment" else ()
    assert run(command, *source, *flags) == 2
    assert capsys.readouterr().err == f"fgseg {command}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert (tmp_path / "f").read_bytes() == b"x"


@pytest.mark.parametrize("command,flags,empty", [
    ("train", (*TINY, "--epochs", 1, "--weights-out", "w.fgw", "--config", ""), "--config"),
    ("train", (*TINY[:-2], "--epochs", 1, "--weights-out", "w.fgw", "--manifest", ""),
     "--manifest"),
    ("train", ("--data", "", "--weights-out", "w.fgw"), "--data"),
    ("train", (*TINY, "--epochs", 1, "--weights-out", "w.fgw", "--weights-in", ""),
     "--weights-in"),
    ("segment", ("--synthetic", "--weights-in", "", "--out", "m"), "--weights-in"),
    ("evaluate", ("--data", "", "--masks", "m"), "--data"),
    ("evaluate", ("--data", "s", "--masks", ""), "--masks"),
    ("sweep", ("--data", "s", "--probs", ""), "--probs"),
    ("sweep", ("--data", "s", "--probs", "p", "--config", ""), "--config"),
])
def test_empty_input_paths_fail_before_any_work(tmp_path, monkeypatch, capsys,
                                                command, flags, empty):
    # Path("") is the working directory: unchecked, an empty --manifest or
    # --config was ignored, and evaluate scanned the working directory
    monkeypatch.chdir(tmp_path)
    assert run(command, *flags) == 2
    assert capsys.readouterr() == ("", f"fgseg {command}: {empty} is empty\n")
    assert list(tmp_path.iterdir()) == []


def test_train_rejects_data_plus_synthetic(tmp_path, capsys):
    assert run("train", "--synthetic", "--data", tmp_path,
               "--weights-out", tmp_path / "w.fgsn") == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("train", "--width"), ("train", "--height"), ("train", "--objects"),
    ("segment", "--width"), ("segment", "--height"), ("segment", "--objects"),
    ("segment", "--frames"), ("segment", "--seed"),
])
def test_scene_flags_with_data_fail_before_any_work(tmp_path, capsys, command, flag):
    # a --data sequence has no synthetic scene for the flag to shape
    out = tmp_path / "out"
    flags = ("--weights-out", out / "w.fgsn") if command == "train" else \
        ("--weights-in", tmp_path / "w.fgsn", "--out", out)
    assert run(command, "--data", tmp_path / "scene", flag, 7, *flags) == 2
    assert capsys.readouterr().err == \
        f"fgseg {command}: {flag} applies to a synthetic scene only, not to --data\n"
    assert list(tmp_path.iterdir()) == []


def test_train_data_takes_frames_and_seed(tmp_path, capsys):
    # they pick the training frames, so only reading the missing sequence fails
    assert run("train", "--data", tmp_path / "scene", "--frames", 5, "--seed", 2,
               "--weights-out", tmp_path / "w.fgsn") == 1
    assert "scene" in capsys.readouterr().err


# ------------------------------------------------------------------- segment

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    weights = root / "model.fgsn"
    rc = main(["train", *TINY, "--epochs", "1", "--weights-out", str(weights)])
    assert rc == 0
    return weights


def test_segment_writes_one_mask_per_frame(tmp_path, trained, capsys):
    masks = tmp_path / "masks"
    probs = tmp_path / "probs"
    assert run("segment", *TINY, "--weights-in", trained, "--out", masks,
               "--probs", probs) == 0
    assert sorted(p.name for p in masks.iterdir()) == \
        [f"bin{i:06d}.pgm" for i in range(1, 7)]
    assert sorted(p.name for p in probs.iterdir()) == \
        [f"prob{i:06d}.pgm" for i in range(1, 7)]
    mask = data.read_mask(masks / "bin000001.pgm")
    assert mask.shape == (16, 16)
    pm = data.read_prob_map(probs / "prob000001.pgm")
    assert pm.shape == (16, 16) and pm.min() >= 0.0 and pm.max() <= 1.0


def test_segment_ends_with_throughput_and_latency(tmp_path, trained, capsys):
    assert run("segment", "--synthetic", "--width", 16, "--height", 16,
               "--frames", 2, "--weights-in", trained, "--out", tmp_path / "m") == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"segment: 2 frames, \d+\.\d{3} frames/s, "
                        r"latency p50 \d+\.\d ms p95 \d+\.\d ms", last), last


def test_segment_twice_is_byte_identical(tmp_path, trained):
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert run("segment", *TINY, "--weights-in", trained, "--out", out) == 0
        outs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
    assert outs[0] == outs[1]


def test_segment_numbering_mirrors_input_files(tmp_path, trained):
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 3, "--width", 16,
               "--height", 16) == 0
    masks = tmp_path / "masks"
    assert run("segment", "--data", scene, "--weights-in", trained,
               "--out", masks) == 0
    assert sorted(p.name for p in masks.iterdir()) == \
        ["bin000001.pgm", "bin000002.pgm", "bin000003.pgm"]


def test_every_command_takes_frames_of_any_size(tmp_path):
    # 30x22: neither side a multiple of 4
    size = ("--width", 30, "--height", 22)
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 6, *size) == 0
    weights = tmp_path / "w.fgsn"
    assert run("train", "--data", scene, "--frames", 5, "--epochs", 1,
               "--weights-out", weights) == 0
    assert run("train", "--synthetic", *size, "--frames", 5, "--epochs", 1,
               "--weights-out", tmp_path / "synthetic.fgsn") == 0
    for name, source in (("data", ("--data", scene)),
                         ("synthetic", ("--synthetic", *size, "--frames", 2))):
        masks, probs = tmp_path / name / "masks", tmp_path / name / "probs"
        assert run("segment", *source, "--weights-in", weights, "--out", masks,
                   "--probs", probs) == 0
        written = sorted(masks.iterdir()) + sorted(probs.iterdir())
        assert len(written) == 2 * (6 if name == "data" else 2)
        assert all(netpbm.read_netpbm(p).shape == (22, 30) for p in written)


def test_segment_missing_weights_is_one_line(tmp_path, capsys):
    assert run("segment", *TINY, "--weights-in", tmp_path / "nope.fgsn",
               "--out", tmp_path / "m") == 1
    err = capsys.readouterr().err
    assert err.startswith("fgseg segment:")
    assert err.count("\n") == 1


# ---------------------------------------------------------- evaluate / sweep

def perfect_masks(scene, masks_dir):
    handle = data.load_sequence(scene)
    masks_dir.mkdir(parents=True, exist_ok=True)
    for i in range(len(handle)):
        labels = data.read_labels(handle, i)
        netpbm.write_pgm(masks_dir / f"bin{i + 1:06d}.pgm",
                         labels.foreground.astype(np.uint8) * 255)


def test_evaluate_perfect_masks_scores_one(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 5, "--width", 16,
               "--height", 16) == 0
    perfect_masks(scene, tmp_path / "masks")
    out_csv = tmp_path / "scores.csv"
    assert run("evaluate", "--data", scene, "--masks", tmp_path / "masks",
               "--out", out_csv) == 0
    stdout = capsys.readouterr().out
    assert "Overall" in stdout
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Name", "Recall", "Specificity", "FPR", "FNR", "PWC",
                       "Precision", "F-Measure", "MCC"]
    overall = dict(zip(rows[0], rows[-1]))
    assert overall["Name"] == "Overall"
    assert overall["F-Measure"] == "1.000000"
    assert overall["PWC"] == "0.000000"
    assert overall["MCC"] == "1.000000"


def test_evaluate_category_tree_aggregates(tmp_path, capsys):
    root = tmp_path / "dataset"
    masks = tmp_path / "masks"
    for vid in ("vidA", "vidB"):
        scene = root / "cat" / vid
        seed = 1 if vid == "vidA" else 2
        assert run("synth", "--out", scene, "--frames", 3, "--width", 16,
                   "--height", 16, "--seed", seed) == 0
        perfect_masks(scene, masks / "cat" / vid)
    capsys.readouterr()
    assert run("evaluate", "--data", root, "--masks", masks) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()[2:]]
    assert names == ["cat/vidA", "cat/vidB", "cat", "Overall"]


def test_evaluate_reports_missing_masks(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 4, "--width", 16,
               "--height", 16) == 0
    perfect_masks(scene, tmp_path / "masks")
    (tmp_path / "masks" / "bin000003.pgm").unlink()
    assert run("evaluate", "--data", scene, "--masks", tmp_path / "masks") == 1
    err = capsys.readouterr().err
    assert "4 ground-truth frames but 3 masks" in err
    assert "bin000003.pgm" in err


def test_sweep_emits_nine_rows_and_best_line(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 4, "--width", 16,
               "--height", 16) == 0
    probs = tmp_path / "probs"
    probs.mkdir()
    handle = data.load_sequence(scene)
    for i in range(len(handle)):
        labels = data.read_labels(handle, i)
        pm = np.where(labels.foreground, 0.95, 0.05).astype(np.float32)
        data.write_prob_map(pm, probs / f"prob{i + 1:06d}.pgm")
    out_csv = tmp_path / "sweep.csv"
    assert run("sweep", "--data", scene, "--probs", probs, "--out", out_csv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("best threshold:")
    assert out[-1] == f"wrote {out_csv}"
    assert not any(line.startswith("degenerate") for line in out)
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 10  # header + 9 thresholds
    assert [r[0] for r in rows[1:]] == [f"{k / 10:.1f}" for k in range(1, 10)]
    # no map exceeds a threshold: Precision, F-Measure and MCC are 0/0, and
    # the report says so, as evaluate's does
    for i in range(len(handle)):
        data.write_prob_map(np.full((16, 16), 0.05, np.float32),
                            probs / f"prob{i + 1:06d}.pgm")
    assert run("sweep", "--data", scene, "--probs", probs) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["degenerate ratios (0/0 reported as 0): F-Measure, MCC, Precision",
                        "best threshold: 0.1 (F-Measure=0.0000)"]


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_report_makes_the_missing_directories_of_out(tmp_path, monkeypatch, capsys, command):
    # train makes its outputs' directories; these two failed after the
    # table, naming atomic_write's temp file
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "scene", "--frames", 3, "--width", 16, "--height", 16) == 0
    perfect_masks(tmp_path / "scene", tmp_path / "m")
    for i in range(3):
        data.write_prob_map(np.full((16, 16), 0.5, np.float32), tmp_path / "m" / f"prob{i + 1:06d}.pgm")
    flag = "--masks" if command == "evaluate" else "--probs"
    assert run(command, "--data", "scene", flag, "m", "--out", "nodir/sub/x.csv") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote nodir/sub/x.csv"
    assert (tmp_path / "nodir" / "sub" / "x.csv").read_text().startswith("Name,")


def test_sweep_holds_one_probability_map_at_a_time(tmp_path, monkeypatch, capsys):
    scene, probs = tmp_path / "scene", tmp_path / "probs"
    assert run("synth", "--out", scene, "--frames", 6, "--width", 16,
               "--height", 16) == 0
    probs.mkdir()
    for i in range(6):
        data.write_prob_map(np.full((16, 16), 0.1 * i, np.float32),
                            probs / f"prob{i + 1:06d}.pgm")
    live, reads = [], []
    read_prob_map = data.read_prob_map

    def counted(path):
        arr = read_prob_map(path)
        live.append(path)
        reads.append(len(live))
        weakref.finalize(arr, live.remove, path)
        return arr

    monkeypatch.setattr(data, "read_prob_map", counted)
    assert run("sweep", "--data", scene, "--probs", probs) == 0
    assert reads == [1] * 6  # maps alive as each is read: never two at once
    assert "best threshold:" in capsys.readouterr().out


def test_sweep_reports_missing_probability_maps(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert run("synth", "--out", scene, "--frames", 3, "--width", 16,
               "--height", 16) == 0
    (tmp_path / "probs").mkdir()
    assert run("sweep", "--data", scene, "--probs", tmp_path / "probs") == 1
    assert capsys.readouterr().err == (
        f"fgseg sweep: {scene}: 3 ground-truth frames but 0 probability maps under "
        f"{tmp_path / 'probs'} (first missing: prob000001.pgm)\n")


# -------------------------------------------------------------- config files

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nseed = 3\nframes=4\nwidth=16\nheight=16\n")
    assert run("synth", "--config", cfgfile, "--out", tmp_path / "a") == 0
    assert "wrote 4 frames (16x16, 2 objects, seed 3)" in capsys.readouterr().out
    assert run("synth", "--config", cfgfile, "--out", tmp_path / "b",
               "--seed", 9, "--frames", 2) == 0
    assert "wrote 2 frames (16x16, 2 objects, seed 9)" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["precision=f16", "frames=abc", "synthetic=maybe",
                                  "thresh=0.5", "config=x"])
def test_config_file_values_pass_the_flag_checks(tmp_path, line):
    # a config value gets the same type and choice checks as the flag, and
    # keys are exact long flag names of the command (no abbreviations)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    assert exit_code("train", *TINY, "--epochs", 1, "--config", cfgfile,
                     "--weights-out", tmp_path / "w.fgsn") == 2
    assert list(tmp_path.iterdir()) == [cfgfile]


def test_train_config_objects_reach_the_synthetic_scene(tmp_path, monkeypatch):
    seen = []

    def stop(config):
        seen.append(config.n_objects)
        raise ValueError("stop before training")

    monkeypatch.setattr(data, "synth_frames", stop)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("objects=3\n")
    assert run("train", *TINY, "--config", cfgfile,
               "--weights-out", tmp_path / "w.fgsn") == 1
    assert seen == [3]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("learning_rate=0.1\n")
    assert run("info", "--config", cfgfile) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "segment"])
def test_scene_too_small_fails_before_any_work(tmp_path, capsys, command):
    flags = ("--weights-in", tmp_path / "w.fgsn", "--synthetic") \
        if command == "segment" else ()
    assert run(command, *flags, "--width", 8, "--height", 8,
               "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == \
        f"fgseg {command}: object_size 10 does not fit in 8x8\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_threshold_fails_before_any_work(tmp_path, capsys):
    assert run("segment", *TINY, "--weights-in", tmp_path / "w.fgsn",
               "--out", tmp_path / "m", "--threshold", "1.5") == 2
    assert "threshold" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


# -----------------------------------------------------------------scripting

def test_module_entry_point_runs_in_a_fresh_process():
    # A minimal environment, so that no inherited BLAS thread variable can
    # stand in for FGSEG_THREADS; PYTHONPATH points the child at the same
    # copy of the package that this process imported (checkout or install).
    # Passing PYTHONDONTWRITEBYTECODE on keeps a no-bytecode run from
    # leaving a __pycache__ in the source tree.
    env = {"PATH": "/usr/bin:/bin", "FGSEG_THREADS": "1",
           "PYTHONPATH": str(Path(fgseg.__file__).resolve().parents[1])}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-m", "fgseg.cli", "info"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "total=8,222,401" in proc.stdout

    # FGSEG_THREADS can only take effect if importing the CLI leaves numpy
    # unloaded; pytest has numpy loaded already, so check in a fresh child.
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, fgseg.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=300)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
