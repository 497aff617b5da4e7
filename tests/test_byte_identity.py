"""Byte identity of run outputs against a committed manifest.

Short runs of the three builtins on both backends, made through
``cli.main`` as ``slidingesc run`` makes them, are compared with
``tests/byte_identity.json``: the SHA-256 of every output file, the
``metrics.json`` scalars at full precision, and the ``verify all``
scenario and sweep detail strings.

OpenBLAS picks its kernels at run time, and the kernel changes the last
bits of a matrix product, which the relay amplifies.  So file hashes and
the kernel-dependent scalars are compared only when this process runs
the BLAS and core type the manifest was written on; elsewhere the test
runs the narrower check that holds on every kernel and prints which
comparisons ran.

Regenerate the manifest (after a change that is meant to move outputs):

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).resolve().with_name("byte_identity.json")
SCENARIOS = Path(__file__).resolve().parent.parent / "src/slidingesc/scenarios"

# the runs, by id: (builtin, backend, overrides); the first logs every
# one of 5000 steps, so its CSV is written by two processes
SHORT = ("sim.horizon=2", "sim.log_stride=10")
RUNS = {
    "coupled_bowl/auto": ("coupled_bowl", "auto",
                          ("sim.horizon=5", "sim.log_stride=1")),
    "coupled_bowl/python": ("coupled_bowl", "python", SHORT),
    "coupled_bowl_ic2/auto": ("coupled_bowl_ic2", "auto", SHORT),
    "coupled_bowl_ic2/python": ("coupled_bowl_ic2", "python", SHORT),
    "residual_sweep/auto": ("residual_sweep", "auto", SHORT),
    "residual_sweep/python": ("residual_sweep", "python", SHORT),
}
# metrics.json scalars equal to the last bit under the SkylakeX, Haswell
# and Prescott kernels (OPENBLAS_CORETYPE) on the host that wrote the
# manifest; residual_amp and mean_residual move in their last digits
KERNEL_FREE_SCALARS = ("t_reach_delta", "bounded")


def blas_kernel() -> dict:
    """The BLAS numpy was built with and the core type OpenBLAS chose at
    run time ("unknown" where the library does not say)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"blas": blas["name"], "version": blas["version"], "core": core}


def run_outputs(run_id: str, out: Path) -> dict:
    """The hashes of every file one ``slidingesc run`` writes and its
    metrics.json scalars."""
    from slidingesc import cli

    name, backend, overrides = RUNS[run_id]
    argv = ["run", "--config", str(SCENARIOS / f"{name}.json"),
            "--out", str(out), "--backend", backend]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == cli.EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    return {
        "rows": len((out / "trajectory.csv").read_bytes().splitlines()) - 1,
        "files": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(out.iterdir())},
        "metrics": {key: value for key, value in metrics.items()
                    if key != "sliding_segments"},
    }


def test_two_process_writer_runs():
    from slidingesc._tables import SPLIT_ROWS

    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert manifest["runs"]["coupled_bowl/auto"]["rows"] >= SPLIT_ROWS


def test_outputs_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    kernel = blas_kernel()
    same_kernel = kernel == manifest["kernel"]
    scalars = None if same_kernel else KERNEL_FREE_SCALARS
    print(f"kernel {kernel}, manifest {manifest['kernel']}: "
          + ("file hashes and all metrics.json scalars compared"
             if same_kernel else
             f"file hashes not compared; metrics.json scalars {scalars}"))
    assert sorted(manifest["runs"]) == sorted(RUNS)
    for run_id, want in manifest["runs"].items():
        got = run_outputs(run_id, tmp_path / run_id.replace("/", "_"))
        assert got["rows"] == want["rows"], run_id
        assert sorted(got["files"]) == sorted(want["files"]), run_id
        for key in scalars or want["metrics"]:
            assert got["metrics"][key] == want["metrics"][key], (run_id, key)
        if same_kernel:
            assert got["files"] == want["files"], run_id


def test_verify_details_match_manifest(scenario_results, sweep_results):
    # the acceptance fixtures' results; equal on every kernel tried
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert {name: r.detail for name, r in scenario_results.items()} == \
        manifest["verify"]["scenario"]
    assert {name: r.detail for name, r in sweep_results.items()} == \
        manifest["verify"]["sweep"]


def regenerate() -> None:
    import tempfile

    from slidingesc.verify import scenario_suite, sweep_suite

    with tempfile.TemporaryDirectory() as tmp:
        runs = {run_id: run_outputs(run_id, Path(tmp) / run_id.replace("/", "_"))
                for run_id in RUNS}
    manifest = {
        "regenerate": "PYTHONPATH=src python tests/test_byte_identity.py",
        "kernel": blas_kernel(),
        "runs": runs,
        "verify": {"scenario": {r.name: r.detail for r in scenario_suite()},
                   "sweep": {r.name: r.detail for r in sweep_suite()}},
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    regenerate()
