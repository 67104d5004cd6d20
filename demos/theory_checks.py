"""Numerical spot checks of the geometric claims behind the kernels.

Everything here is a Monte Carlo or closed-form identity with no classifier
in sight: sphere moments, the ordering of subspace kernel expectations, and
the product-cosine form of the covariant kernel.
"""

import numpy as np

from covkern import data as dt
from covkern import kernel as kn
from covkern import simcore as sc
from covkern import theory as th


def main():
    print("second moment of one coordinate of a random unit vector (= 1/d):")
    for dim in (2, 4, 8):
        mean, se = th.sphere_inner_moment(dim, 200_000, seed=dim)
        print(f"  d={dim}: {mean:.5f} +- {se:.5f}  (1/d = {1 / dim:.5f})")

    print("\nkernel expectation by subspace layout (dim 3, 100k trials):")
    rows = th.subspace_kernel_expectations([3], trials=100_000, seed=1)
    for row in rows:
        print(f"  {row.case:<22} dims ({row.dim_x},{row.dim_y}): "
              f"{row.mean:.5f} +- {row.stderr:.5f}")
    margins = th.expectation_ordering_margins(rows)
    print(f"  same-subspace mean exceeds every cross layout by "
          f">= {margins[3]:.1f} sigma")

    print("\nclosed form vs statevector for the product-rotation kernel:")
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, (6, 4))
    closed = th.cosine_product_kernel(xs, xs)
    direct = kn.overlap_kernel_from_state(sc.zero_state(4), 2.0 * np.pi * xs)
    print(f"  max |difference| over a 6x6 Gram: {np.abs(closed - direct).max():.2e}")

    structure = th.bell_structure()
    dev, ok = th.verify_delta_kernel(dt.bell_pair_dataset(30, seed=0),
                                     structure.fiducial)
    print(f"\ntwo-qubit covariant kernel vs class indicator: deviation {dev:.1e} "
          f"({'ok' if ok else 'BROKEN'})")


if __name__ == "__main__":
    main()
