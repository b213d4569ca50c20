"""Calibration probe: prints the anchor numbers the paper reports.

Run after touching any constant in repro/device/calibration.py or the
per-kernel efficiency attributes.  Each anchor lists the paper's
approximate value (read off the figures) next to the simulated one.
"""


from repro import Device, OpOptions, VBatch, potrf_batched_fixed
from repro.core.interface import potrf_vbatched_max
from repro.distributions import uniform_sizes
from repro.flops import batch_flops, gflops


def fixed_gflops(n, prec, approach, batch=1000):
    dev = Device(execute_numerics=False)
    b = VBatch.allocate(dev, [n] * batch, prec)
    dev.reset_clock()
    potrf_batched_fixed(dev, b, n, approach=approach)
    return gflops(batch_flops([n] * batch, "potrf", prec), dev.synchronize())


def vbatched_gflops(nmax, prec, batch=800, seed=0, **opts):
    dev = Device(execute_numerics=False)
    sizes = uniform_sizes(batch, nmax, seed=seed)
    b = VBatch.allocate(dev, sizes, prec)
    dev.reset_clock()
    r = potrf_vbatched_max(dev, b, nmax, OpOptions(**opts))
    return r.gflops


def main():
    print("== Fig 4 fixed-size: fused vs separated-BLAS (batch 1000) ==")
    print(f"{'prec':5}{'n':>5}{'fused':>9}{'blas':>9}{'speedup':>9}   paper: SP<=13x, DP<=7x, <1 at large n")
    for prec in ("s", "d"):
        for n in (8, 16, 32, 64, 128, 256, 384, 512):
            f = fixed_gflops(n, prec, "fused")
            bl = fixed_gflops(n, prec, "blas")
            print(f"{prec:5}{n:>5}{f:>9.1f}{bl:>9.1f}{f / bl:>9.2f}")

    print("\n== Fig 5-ish: vbatched fused best-config, uniform batch 3000 ==")
    print("paper: SP ~300 at Nmax 512; DP ~110 at Nmax 512")
    for prec, target in (("s", 300), ("d", 110)):
        g = vbatched_gflops(512, prec, batch=3000, approach="fused", etm="aggressive", sorting=True)
        print(f"  {prec}: {g:.1f}  (paper ~{target})")

    print("\n== Fig 7-ish: vbatched batch 800 uniform, fused vs separated ==")
    print("paper DP: separated ~220 at Nmax 1000; crossover ~430")
    for prec in ("s", "d"):
        for nmax in (128, 256, 384, 512, 768, 1000, 1500, 2000):
            row = [f"  {prec} {nmax:>5}"]
            for ap in ("fused", "separated"):
                try:
                    row.append(f"{vbatched_gflops(nmax, prec, approach=ap):9.1f}")
                except Exception:
                    row.append(f"{'n/a':>9}")
            print("".join(row))


if __name__ == "__main__":
    main()
