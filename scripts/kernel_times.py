#!/usr/bin/env python3
"""Print the minimum-of-N time of each conv and max-pool kernel.

Kernels: the conv forward as the walks run it (`network.conv_forward`),
`conv_input_grad`, `conv_param_grad`, `maxpool_forward` and
`maxpool_backward`. Shapes: every conv and pool of the reference network at
batch 8 (one chunk of an explain's perturbation batch) and at batch 32 (one
training minibatch), and the 16x16 secondary classifier at batch 32. Each
time is the minimum over --repeat runs of the kernel, in ms; sums per
kernel and batch follow the rows, then nproc and the numpy version.

--budget-mib runs every conv kernel once per listed patch-matrix budget,
one column each, by setting `network._COLS_BYTES` in this process only;
the pool kernels do not read it. Set one BLAS thread for stable numbers:

    OPENBLAS_NUM_THREADS=1 python3 scripts/kernel_times.py --budget-mib 0.5,1,2,4.5

The package is imported from this script's own tree, whatever PYTHONPATH
says.
"""
import argparse
import os
import sys
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from patchlens import network  # noqa: E402
from patchlens.evaluation import secondary_network  # noqa: E402
from patchlens.network import ConvLayer, MaxPoolLayer, reference_network  # noqa: E402
from patchlens.tensor import DTYPE, Rng  # noqa: E402


def cases():
    """(net name, batch, layer, input shape, output shape) of each conv and
    pool the walks run, the reference net at batches 8 and 32 and the
    secondary net at batch 32."""
    nets = [("reference", reference_network(Rng(0, 2)), (8, 32)),
            ("secondary", secondary_network(Rng(0, 5)), (32,))]
    for name, net, batches in nets:
        for n in batches:
            for pos, layer in enumerate(net.layers):
                if isinstance(layer, (ConvLayer, MaxPoolLayer)):
                    yield name, n, pos, layer, (n,) + net.in_shapes[pos], (n,) + net.out_shapes[pos]


def kernels(layer, in_shape, out_shape, seed):
    """{kernel name: zero-argument call} for one layer at one shape."""
    rng = Rng(seed, 0)
    x = np.maximum(rng.split(0).normal(0, 1, in_shape), 0).astype(DTYPE)
    dout = rng.split(1).normal(0, 1, out_shape).astype(DTYPE)
    if isinstance(layer, ConvLayer):
        return {"conv_forward": lambda: network.conv_forward(x, layer),
                "conv_input_grad": lambda: network.conv_input_grad(dout, layer, in_shape),
                "conv_param_grad": lambda: network.conv_param_grad(dout, x, layer)}
    switches = network.maxpool_forward(x, layer)[1]
    return {"maxpool_forward": lambda: network.maxpool_forward(x, layer),
            "maxpool_backward": lambda: network.maxpool_backward(dout, switches, in_shape, layer)}


def best_ms(call, repeat: int) -> float:
    call()  # first call outside the timing: page faults, lazy set-up
    timer = timeit.Timer(call)
    number = max(1, timer.autorange()[0] // 10)  # about 20 ms per run
    return min(timer.repeat(repeat, number)) / number * 1e3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--budget-mib", default=None,
                    help="comma list of patch-matrix budgets in MiB; default: the program's own")
    args = ap.parse_args()
    budgets = ([float(b) for b in args.budget_mib.split(",")] if args.budget_mib
               else [network._COLS_BYTES / 2 ** 20])
    header = ["net", "batch", "pos", "kernel", "input"] + [f"{b:g}MiB_ms" for b in budgets]
    print("\t".join(header))
    sums: dict[tuple, list[float]] = {}
    for k, (name, n, pos, layer, in_shape, out_shape) in enumerate(cases()):
        calls = kernels(layer, in_shape, out_shape, k)
        for kernel, call in calls.items():
            row = []
            for b in budgets:
                network._COLS_BYTES = int(b * 2 ** 20)
                row.append(best_ms(call, args.repeat))
            key = (name, n, kernel)
            sums[key] = [a + t for a, t in zip(sums.get(key, [0.0] * len(budgets)), row)]
            print("\t".join([name, str(n), str(pos), kernel, "x".join(map(str, in_shape))]
                            + [f"{t:.3f}" for t in row]))
    print()
    for (name, n, kernel), row in sums.items():
        print("\t".join([name, str(n), "sum", kernel, ""] + [f"{t:.3f}" for t in row]))
    print()
    print(f"nproc {os.cpu_count()}  numpy {np.__version__}  "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


if __name__ == "__main__":
    main()
