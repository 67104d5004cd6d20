"""The two-qubit covariant construction, checked end to end.

Verifies the group-theoretic preconditions (fiducial invariance, coset
membership, coset orthogonality), confirms the kernel equals the class
indicator, and trains a classifier that separates the cosets perfectly.
Then starts from random fiducial parameters and lets alignment rediscover
the construction.
"""

import numpy as np

from covkern import align as al
from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import svc
from covkern import theory as th


def main():
    structure = th.bell_structure()
    ds = dt.bell_pair_dataset(24, seed=2)
    circuits = th.class_circuits_from_dataset(ds)
    report = th.check_covariance(structure, circuits)
    print("covariance preconditions:")
    print(f"  fiducial invariance violations   {len(report.invariance_violations)}")
    print(f"  coset membership violations      {len(report.membership_violations)}")
    print(f"  coset orthogonality violations   {len(report.orthogonality_violations)}")
    print(f"  overall: {'ok' if report.passed else 'BROKEN'}")

    dev, ok = th.verify_delta_kernel(ds, structure.fiducial)
    print(f"\nkernel vs class indicator on 48 samples: max deviation {dev:.2e} "
          f"({'ok' if ok else 'BROKEN'})")

    train, test = dt.split_dataset(ds, 0.5, seed=0)
    psi = structure.fiducial
    k_train = kn.overlap_kernel_from_state(psi, train.features)
    k_test = kn.overlap_kernel_from_state(psi, test.features, train.features)
    model = svc.fit_multiclass(k_train, train.labels, c=1.0)
    print(f"SVC on the indicator kernel: train "
          f"{svc.accuracy(train.labels, svc.predict(model, k_train)):.0%}, test "
          f"{svc.accuracy(test.labels, svc.predict(model, k_test)):.0%}")

    # same data, but now the fiducial is unknown: a parametrized circuit on a
    # two-qubit line, tuned by alignment against the class labels
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    config = kn.KernelConfig()
    init = np.random.default_rng((0, 5)).uniform(0.0, 2.0 * np.pi, spec.n_params)
    spsa = al.SPSAConfig(a=1.0, c=0.2, iterations=80, seed=0)
    trace = al.align_kernel(train.features, train.labels, spec, init, spsa, config)
    print(f"\nalignment from a random start: loss {trace.losses[0]:.3f} -> "
          f"{trace.best_loss:.3f} over {len(trace.losses)} iterations")

    k_aligned = kn.repair_psd(
        kn.assemble_matrix(train.features, spec, trace.best_params, config))
    aligned_model = svc.fit_multiclass(k_aligned.values, train.labels, c=1.0)
    k_cross = kn.assemble_cross(test.features, train.features, spec,
                                trace.best_params, config)
    print(f"aligned-kernel SVC: test "
          f"{svc.accuracy(test.labels, svc.predict(aligned_model, k_cross)):.0%}")


if __name__ == "__main__":
    main()
