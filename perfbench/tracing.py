"""Spans, per-layer probes and the sgemm ceiling for the traced run.

fgseg carries no instrumentation.  The traced run calls the modules' public
functions itself and records a span around each call.  Where a call is made
from inside fgseg (``training.train`` calling ``forward``, ``model.forward``
calling ``encode_scale``), the function is wrapped for the duration of the
probe in every fgseg module namespace that refers to it, then restored.  A
probe whose entry points no longer exist is skipped and reported absent.
"""

import math
import os
import platform
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from fgseg import data, kernels, metrics, model, netpbm, pyramid, training

import reference as ref
import workloads as wl

KERNEL_REPEATS = 3      # timed calls per kernel per round at 64x64; median kept
ROOFLINE_SHARE = 0.5    # a layer reaching this share of sgemm is compute-bound
SGEMM_N = 1024


# -------------------------------------------------------------------- spans

class Tracer:
    """Spans kept in memory: [name, start, end, parent index, round]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.round = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.round])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def timed(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations_ms(self, name):
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def self_ms(self, name):
        """Duration of each `name` span minus the time its children cover."""
        child = {}
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        return [1e3 * (s[2] - s[1] - child.get(i, 0.0))
                for i, s in enumerate(self.spans) if s[0] == name]

    def per_round_sum_ms(self, names):
        totals = {}
        for s in self.spans:
            if s[0] in names:
                totals[s[4]] = totals.get(s[4], 0.0) + 1e3 * (s[2] - s[1])
        return list(totals.values())

    def dump(self):
        return [{"name": n, "start": a, "end": b, "parent": p, "round": r}
                for n, a, b, p, r in self.spans]


@contextmanager
def wrapped(tracer, module, attr, namer):
    """Wrap module.attr in a span named namer(args, kwargs) wherever an fgseg
    module refers to that function, and restore it afterwards."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(namer(args, kwargs)):
            return original(*args, **kwargs)

    homes = [m for name, m in list(sys.modules.items())
             if name.split(".")[0] == "fgseg" and getattr(m, attr, None) is original]
    for m in homes:
        setattr(m, attr, wrapper)
    try:
        yield
    finally:
        for m in homes:
            setattr(m, attr, original)


def missing(needs):
    return [f"{m.__name__}.{a}" for m, a in needs if not hasattr(m, a)]


# ------------------------------------------------------------- environment

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def sgemm_gflops(repeats=10):
    """Best float32 GEMM rate at n=1024, the ceiling layers are set against."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((SGEMM_N, SGEMM_N)).astype(np.float32)
    b = rng.standard_normal((SGEMM_N, SGEMM_N)).astype(np.float32)
    best = math.inf
    for _ in range(repeats):
        t = perf_counter()
        a @ b
        best = min(best, perf_counter() - t)
    return 2.0 * SGEMM_N ** 3 / best / 1e9


# -------------------------------------------------------------- MAC counts

def layer_macs(height, width):
    """[(layer, scale or None, MACs)] for one forward at height x width:
    h*w*k^2*cin*cout on each layer's input grid, from model's LayerDefs."""
    rows = []
    for s in range(3):
        h, w = height >> s, width >> s
        for d in model.ENCODER_DEFS:
            rows.append((d.name, s, h * w * d.kernel ** 2 * d.in_ch * d.out_ch))
            if d.pool_after:
                h, w = h // 2, w // 2
    h, w = height // 4, width // 4
    for d in model.DECODER_DEFS:
        rows.append((d.name, None, h * w * d.kernel ** 2 * d.in_ch * d.out_ch))
        if d.upscale:
            h, w = 2 * h, 2 * w
    return rows


def layer_key(name, scale):
    return name if scale is None else f"{name}.s{scale}"


def block_of(name):
    return name.rsplit(".", 1)[0]


# ----------------------------------------------------------- kernel probes

KERNEL_NEEDS = [(kernels, "conv2d_forward"), (kernels, "conv2d_backward"),
                (kernels, "tconv2d_forward"), (kernels, "tconv2d_backward"),
                (kernels, "pointwise_activation"), (kernels, "maxpool2x2_forward"),
                (kernels, "upsample_nearest"), (kernels, "concat_depth"),
                (model, "ENCODER_DEFS"), (model, "DECODER_DEFS")]


def kernel_pass(tracer, net, pyr, prefix, repeats, backward):
    """Run the network layer by layer through the kernels on real
    activations (inference mode), timing each conv/tconv call as a span
    `<prefix>.<layer>[.s<k>].fwd`; with backward, also time the backward
    kernels of the trained layers as `.bwd` spans."""
    def timed(name, fn, *args, **kwargs):
        for _ in range(repeats):
            out = tracer.timed(name, fn, *args, **kwargs)
        return out

    rng = np.random.default_rng(0)
    first_trained = next(d.name for d in model.ENCODER_DEFS if not d.frozen)
    h0 = pyr.scales[0].shape[1]
    feats = []
    for s, image in enumerate(pyr.scales):
        x = np.ascontiguousarray(image, dtype=net.dtype)
        for d in model.ENCODER_DEFS:
            p = net[d.name]
            key = f"{prefix}.{d.name}.s{s}"
            y, ctx = timed(key + ".fwd", kernels.conv2d_forward, x, p.weights, p.bias, d.spec())
            if backward and not d.frozen:
                g = rng.standard_normal(y.shape).astype(y.dtype)
                timed(key + ".bwd", kernels.conv2d_backward, g, ctx,
                      need_input_grad=d.name != first_trained)
            x, _ = kernels.pointwise_activation(y, "relu")
            if d.pool_after:
                x, _ = kernels.maxpool2x2_forward(x)
        x = kernels.upsample_nearest(x, 2 ** s)
        feats.append(x[:, :h0 // 4, :pyr.scales[0].shape[2] // 4])
    x = kernels.concat_depth(feats)
    last = model.DECODER_DEFS[-1].name
    for d in model.DECODER_DEFS:
        p = net[d.name]
        key = f"{prefix}.{d.name}"
        y, ctx = timed(key + ".fwd", kernels.tconv2d_forward, x, p.weights, p.bias, d.spec())
        if backward:
            g = rng.standard_normal(y.shape).astype(y.dtype)
            timed(key + ".bwd", kernels.tconv2d_backward, g, ctx)
        x, _ = kernels.pointwise_activation(y, "sigmoid" if d.name == last else "relu")


# ------------------------------------------------------------------ probes

TRAIN_NEEDS = [(training, "train"), (training, "TrainConfig"), (training, "TrainingExample"),
               (training, "forward"), (training, "backward"), (training, "weighted_bce"),
               (training, "rmsprop_step"), (training, "get_state"),
               (training, "build_pyramid"), (model, "build_model"),
               (data, "load_sequence"), (data, "read_frame"), (data, "read_labels")]


def probe_train(tracer, ctx):
    """training.train on the train-64x64 inputs with its calls wrapped, then
    the 64x64 kernel pass.  Returns (steps, problems)."""
    handle = data.load_sequence(ctx["scene"])
    examples = [training.TrainingExample(data.read_frame(handle, i),
                                         data.read_labels(handle, i), i)
                for i in range(len(handle))]
    net = model.build_model(encoder_weights=ctx["encoder"], seed=ctx["seed"])
    before = {p.name: p.weights.copy() for p in net.trainable_layers()}
    config = training.TrainConfig(n_frames=len(examples), epochs=wl.TRAIN_EPOCHS,
                                  seed=ctx["seed"])

    def forward_name(args, kwargs):
        is_training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return "model.forward_train" if is_training else "model.forward_eval"

    with wrapped(tracer, training, "forward", forward_name), \
            wrapped(tracer, training, "backward", lambda a, k: "model.backward"), \
            wrapped(tracer, training, "weighted_bce", lambda a, k: "training.loss"), \
            wrapped(tracer, training, "rmsprop_step", lambda a, k: "training.rmsprop"), \
            wrapped(tracer, training, "get_state", lambda a, k: "model.get_state"), \
            wrapped(tracer, training, "build_pyramid", lambda a, k: "pyramid.64.build"):
        with tracer.span("trace.train.call"):
            net, _ = training.train(config, examples, net)
    problems = [f"traced train: {p.name} unchanged or non-finite"
                for p in net.trainable_layers()
                if not np.all(np.isfinite(p.weights)) or np.array_equal(p.weights, before[p.name])]
    if not missing(KERNEL_NEEDS):
        pyr = pyramid.build_pyramid(examples[0].frame)
        kernel_pass(tracer, net, pyr, "kernels.64", KERNEL_REPEATS, backward=True)
    return wl.train_steps(), problems


SEGMENT_NEEDS = [(model, "load_weights"), (model, "forward"), (model, "encode_scale"),
                 (data, "load_sequence"), (data, "read_frame"), (data, "pad_to_multiple_of_4"),
                 (data, "crop_back"), (data, "write_mask"), (data, "write_prob_map"),
                 (pyramid, "build_pyramid")]


def probe_segment(tracer, ctx):
    """One frame of the segment loop with spans, encode_scale wrapped per
    scale, then the 320x240 kernel pass.  Returns (frames, problems)."""
    out = ctx["root"] / "traced"
    out.mkdir(exist_ok=True)
    handle = data.load_sequence(ctx["scene"])
    i = tracer.round % len(handle)
    height = wl.SEGMENT_SIZE[1]

    def scale_name(args, kwargs):
        return f"model.encode_scale.s{round(math.log2(height / args[1].shape[-2]))}"

    net = tracer.timed("model.load_weights", model.load_weights, ctx["weights"])
    with wrapped(tracer, model, "encode_scale", scale_name), tracer.span("trace.segment.frame"):
        frame = tracer.timed("data.read_frame", data.read_frame, handle, i)
        padded, extents = data.pad_to_multiple_of_4(frame)
        pyr = tracer.timed("pyramid.320x240.build", pyramid.build_pyramid, padded)
        probs = data.crop_back(tracer.timed("model.forward", model.forward, net, pyr), extents)
        tracer.timed("data.write_mask", data.write_mask, probs, wl.SEGMENT_THRESHOLD,
                     out / "mask.pgm")
        tracer.timed("data.write_prob_map", data.write_prob_map, probs, out / "prob.pgm")
    mask = ref.read_netpbm(out / "mask.pgm") > 127
    problems = ref.check_mask_against_probs(mask, ref.read_netpbm(out / "prob.pgm"),
                                            wl.SEGMENT_THRESHOLD, "traced mask")
    if not missing(KERNEL_NEEDS):
        kernel_pass(tracer, net, pyr, "kernels.320x240", 1, backward=False)
    return 1, problems


SCORE_NEEDS = [(data, "load_sequence"), (data, "temporal_range"), (data, "read_mask"),
               (data, "read_labels"), (data, "read_prob_map"), (netpbm, "read_netpbm"),
               (metrics, "ConfusionCounts"), (metrics, "accumulate"),
               (metrics, "threshold_sweep")]


def probe_score(tracer, ctx):
    """The evaluate and sweep loops over the whole tree with spans around
    each reader and metric call.  Returns (scored frames, problems)."""
    problems = []
    frames = 0
    with tracer.span("trace.score.round"):
        for cat, vid in wl.score_videos():
            video = ctx["tree"] / cat / vid
            handle = data.load_sequence(video)
            start, stop = data.temporal_range(handle)
            total = metrics.ConfusionCounts(0, 0, 0, 0)
            for i in range(start, stop):
                mask = tracer.timed("data.read_mask", data.read_mask,
                                    ctx["masks"] / cat / vid / f"bin{i + 1:06d}.pgm")
                labels = tracer.timed("data.read_labels", data.read_labels, handle, i)
                total = total + tracer.timed("metrics.accumulate", metrics.accumulate,
                                             mask, labels)
            maps, labels = [], []
            for i in range(start, stop):
                path = ctx["probs"] / cat / vid / f"prob{i + 1:06d}.pgm"
                tracer.timed("netpbm.read", netpbm.read_netpbm, path)
                maps.append(tracer.timed("data.read_prob_map", data.read_prob_map, path))
                labels.append(tracer.timed("data.read_labels", data.read_labels, handle, i))
            sweep = tracer.timed("metrics.threshold_sweep", metrics.threshold_sweep,
                                 maps, labels, wl.SWEEP_THRESHOLDS)
            frames += 2 * (stop - start)
            want = ctx["expected"][f"{cat}/{vid}"]
            got = (total.tp, total.fp, total.fn, total.tn)
            if got != want["counts"]:
                problems.append(f"traced {cat}/{vid}: counts {got} != {want['counts']}")
            got = [(c.tp, c.fp, c.fn, c.tn) for c in sweep.counts]
            if got != want["sweep_counts"]:
                problems.append(f"traced {cat}/{vid}: sweep counts differ")
    return frames, problems


PROBES = (("train-64x64", probe_train, TRAIN_NEEDS),
          ("segment-320x240", probe_segment, SEGMENT_NEEDS),
          ("score-cdtree", probe_score, SCORE_NEEDS))


# ----------------------------------------------------------------- metrics

def _median(values):
    return statistics.median(values) if values else None


def per_layer_metrics(tracer, ceiling):
    """{metric name: (value, unit)} from the spans; absent probes give no rows."""
    out = {"env.sgemm_gflops": (ceiling, "GFLOP/s")}

    def put(name, values, unit="ms"):
        value = _median(values)
        if value is not None:
            out[name] = (value, unit)

    for name in ("pyramid.64.build", "model.forward_train", "training.loss",
                 "model.backward", "training.rmsprop", "model.forward_eval",
                 "model.get_state", "model.load_weights", "data.read_frame",
                 "pyramid.320x240.build", "model.encode_scale.s0",
                 "model.encode_scale.s1", "model.encode_scale.s2",
                 "data.write_mask", "data.write_prob_map", "data.read_mask",
                 "data.read_labels", "data.read_prob_map", "netpbm.read",
                 "metrics.accumulate", "metrics.threshold_sweep"):
        put(name + "_ms", tracer.durations_ms(name))
    if tracer.durations_ms("model.encode_scale.s0"):
        put("model.decode_ms", tracer.self_ms("model.forward"))
    put("trace.train.step_ms",
        [t / wl.train_steps() for t in tracer.durations_ms("trace.train.call")])
    put("trace.segment.frame_ms", tracer.durations_ms("trace.segment.frame"))
    rounds = tracer.durations_ms("trace.score.round")
    if rounds:
        sweeps = tracer.per_round_sum_ms({"metrics.threshold_sweep"})
        put("trace.score.frame_ms", [r / wl.score_frames() for r in rounds])
        put("metrics.threshold_sweep_share", [100.0 * s / r for s, r in zip(sweeps, rounds)], "%")

    for prefix, (h, w), backward in (("kernels.64", wl.TRAIN_SIZE[::-1], True),
                                     ("kernels.320x240", wl.SEGMENT_SIZE[::-1], False)):
        macs = layer_macs(h, w)
        layer_ms = {}
        for name, scale, _ in macs:
            key = layer_key(name, scale)
            layer_ms[key] = _median(tracer.durations_ms(f"{prefix}.{key}.fwd"))
        if None in layer_ms.values():
            continue
        total_ms = sum(layer_ms.values())
        put(f"{prefix}.fwd_gflops", [2.0 * sum(m for *_, m in macs) / total_ms / 1e6], "GFLOP/s")
        if backward:
            for name, scale, _ in macs:
                key = layer_key(name, scale)
                out[f"{prefix}.{key}.fwd_ms"] = (layer_ms[key], "ms")
                put(f"{prefix}.{key}.bwd_ms", tracer.durations_ms(f"{prefix}.{key}.bwd"))
            out[f"{prefix}.frozen_fwd_ms"] = (sum(
                layer_ms[layer_key(n, s)] for n, s, _ in macs
                if n in {d.name for d in model.ENCODER_DEFS if d.frozen}), "ms")
        else:
            blocks = {}
            for name, scale, _ in macs:
                blocks.setdefault(layer_key(block_of(name), scale), set()).add(
                    f"{prefix}.{layer_key(name, scale)}.fwd")
            for key, names in blocks.items():
                put(f"{prefix}.{key}.fwd_ms", tracer.per_round_sum_ms(names))
    return out


def roofline_rows(tracer, ceiling):
    """(kernel, MACs, median ms, GFLOP/s, share of sgemm, label) per conv/tconv."""
    rows = []
    for prefix, (h, w) in (("kernels.64", wl.TRAIN_SIZE[::-1]),
                           ("kernels.320x240", wl.SEGMENT_SIZE[::-1])):
        for name, scale, macs in layer_macs(h, w):
            key = f"{prefix}.{layer_key(name, scale)}"
            ms = _median(tracer.durations_ms(key + ".fwd"))
            if ms is None:
                continue
            gflops = 2.0 * macs / ms / 1e6
            share = gflops / ceiling
            rows.append((key, macs, ms, gflops, share,
                         "compute-bound" if share >= ROOFLINE_SHARE else "overhead-bound"))
    return rows


def absent_probes():
    """{probe: [missing entry points]} for probes that cannot run."""
    gone = {name: missing(needs) for name, _, needs in PROBES}
    gone["kernels"] = missing(KERNEL_NEEDS)
    return {k: v for k, v in gone.items() if v}
