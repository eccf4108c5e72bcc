"""Out-of-core worker: build, then decompose under a hard address-space cap.

Run as a subprocess by ``tests/test_outofcore.py`` (and the CI
``out-of-core`` job), once per mode:

``--mode build``
    Stream deterministic random edges through the external-sort builder
    into ``--dir`` (uncapped: the builder's chunk buffers are the build
    memory knob, not the claim under test).

``--mode serve``
    Fresh process: clamp the ``RLIMIT_AS`` soft limit to the current
    ``VmSize`` plus ``--slack-mb`` — a slack *smaller than the on-disk
    arrays* — then open the graph and decompose on the disk backend.  An
    engine that materialised the flat arrays would exceed the cap and die
    with ``MemoryError``; finishing is the memory-boundedness proof, and
    the printed λ/hierarchy hashes let the parent check the answer
    matches the in-memory CSR engine bit for bit.  The build and serve
    phases must be separate processes: freed build memory stays mapped in
    the building process, so a same-process cap would not be binding.

``--mode materialise``
    Control: under the identical cap, load the arrays fully into memory.
    Exits 0 only if that dies with ``MemoryError`` — proving the cap the
    serve mode survived really is too small for the in-memory strategy.

Each mode prints one JSON object on stdout; non-zero exit on any
violated precondition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def edge_arrays(seed: int, n: int, m_target: int):
    """Deterministic random edge endpoints (lo, hi) — shared with the
    in-process reference run so both sides decompose the same graph."""
    import numpy as np

    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m_target * 2)
    v = rng.integers(0, n, m_target * 2)
    mask = u != v
    u, v = u[mask][:m_target], v[mask][:m_target]
    return np.minimum(u, v), np.maximum(u, v)


def lam_sha(lam) -> str:
    return hashlib.sha256(",".join(map(str, lam)).encode()).hexdigest()


def canonical_sha(hierarchy) -> str:
    # sorted: a set's repr follows its insertion order, which differs
    # between engines that number their tree nodes differently
    nuclei = sorted((k, sorted(cells))
                    for k, cells in hierarchy.canonical_nuclei())
    return hashlib.sha256(repr(nuclei).encode()).hexdigest()


def vm_size_bytes() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def clamp_address_space(slack_mb: int) -> int:
    """Soft-clamp RLIMIT_AS to VmSize + slack; returns the cap."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = vm_size_bytes() + slack_mb * (1 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def run_build(args) -> int:
    from repro.external.build import build_diskcsr

    lo, hi = edge_arrays(args.seed, args.n, args.m)
    start = time.perf_counter()
    disk = build_diskcsr(zip(lo.tolist(), hi.tolist()), args.dir, n=args.n)
    m = disk.m
    disk.close()
    print(json.dumps({
        "mode": "build", "n": args.n, "m": m,
        "file_bytes": dir_bytes(args.dir),
        "build_seconds": round(time.perf_counter() - start, 3),
    }))
    return 0


def run_serve(args) -> int:
    from repro.backends import decompose
    from repro.external.diskcsr import DiskCSRGraph

    file_bytes = dir_bytes(args.dir)
    slack = args.slack_mb * (1 << 20)
    cap = None
    if not args.skip_cap:
        if file_bytes <= slack:
            print(f"working set {file_bytes} <= slack {slack}: the cap "
                  "would prove nothing", file=sys.stderr)
            return 3
        cap = clamp_address_space(args.slack_mb)

    soft0, hard0 = resource.getrlimit(resource.RLIMIT_AS)
    start = time.perf_counter()
    with DiskCSRGraph(args.dir) as disk:
        m = disk.m
        result = decompose(disk, 1, 2, algorithm="fnd", backend="disk")
    decompose_seconds = time.perf_counter() - start
    if cap is not None:  # hashing large results is not part of the claim
        resource.setrlimit(resource.RLIMIT_AS,
                           (resource.RLIM_INFINITY
                            if hard0 == resource.RLIM_INFINITY else hard0,
                            hard0))

    print(json.dumps({
        "mode": "serve", "n": args.n, "m": m,
        "file_bytes": file_bytes,
        "cap_bytes": cap, "slack_mb": args.slack_mb,
        "max_lambda": result.max_lambda,
        "lam_sha": lam_sha(result.lam),
        "canonical_sha": canonical_sha(result.hierarchy),
        "decompose_seconds": round(decompose_seconds, 3),
    }))
    return 0


def run_materialise(args) -> int:
    import numpy as np

    cap = clamp_address_space(args.slack_mb)
    try:
        arrays = [np.load(os.path.join(args.dir, name))
                  for name in ("indices.npy", "eids.npy",
                               "esrc.npy", "etgt.npy")]
        loaded = int(sum(a.nbytes for a in arrays))
    except MemoryError:
        print(json.dumps({"mode": "materialise", "oom": True,
                          "cap_bytes": cap}))
        return 0
    print(f"in-memory load of {loaded} bytes fit under the cap: the cap "
          "is not binding", file=sys.stderr)
    return 4


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["build", "serve", "materialise"],
                        required=True)
    parser.add_argument("--dir", required=True,
                        help="the .diskcsr directory (created by build)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n", type=int, default=60000)
    parser.add_argument("--m", type=int, default=1_500_000)
    parser.add_argument("--slack-mb", type=int, default=24)
    parser.add_argument("--skip-cap", action="store_true",
                        help="serve uncapped (the small ungated smoke mode)")
    args = parser.parse_args()
    if args.mode == "build":
        return run_build(args)
    if args.mode == "serve":
        return run_serve(args)
    return run_materialise(args)


if __name__ == "__main__":
    sys.exit(main())
