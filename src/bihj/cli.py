"""Command line interface: simulate, compose, reconstruct, verify, oracle, figure."""
import argparse
import ctypes
import sys
from pathlib import Path

from .errors import BihjError
from .scenario import (
    CASES,
    bundled_scenario,
    load_config,
    parse_config,
    run_compose,
    run_figure,
    run_oracle_table,
    run_reconstruct,
    run_simulate,
)


# glibc's mallopt parameters, and values measured on the bundled scenario:
# arrays under 512 KiB, which a command makes and frees many times, are reused
# from the heap, and the heap keeps up to 4 MiB free at its top rather than
# give back and fault in the same pages again and again
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 512 * 1024, 4 * 1024 * 1024


def _fix_malloc_thresholds():
    """Hold glibc's mmap and trim thresholds at fixed values, and give back
    the free heap pages that earlier work in the process left.

    glibc raises its mmap threshold to the size of each mmapped block it
    frees (up to 32 MiB) and its trim threshold to twice that; then later
    arrays up to that size come from the heap, which keeps and fragments
    what they free, and peak resident memory follows the order of earlier
    allocations more than what a command holds.  Fixed thresholds turn that
    off.  The free pages inside the heap stay resident, so a command run
    after another in one process would start on what the earlier one left;
    ``malloc_trim(0)`` returns them.  Without glibc's mallopt and
    malloc_trim this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    malloc_trim(0)


def _load(args):
    if args.config:
        config = load_config(args.config)
    else:
        config = parse_config(bundled_scenario())
    if args.mode:
        doc = dict(config.echo)
        doc["mode"] = args.mode
        config = parse_config(doc)
    return config


def _out_dir(args, config, command):
    if args.out:
        return Path(args.out)
    base = config.output_dir or "out"
    return Path(base) / command


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bihj",
        description="Trajectory laboratory for 1D Schrodinger dynamics: "
                    "propagate the coupled action-pair congruences, rebuild the "
                    "wavefunction from accumulated actions, and verify the "
                    "composition and conservation analysis against closed forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("simulate", "reference solution, fields and trajectory ensembles"),
            ("compose", "integral-curve composition and source terms"),
            ("reconstruct", "wavefunction from trajectory data against the reference"),
            ("verify", "full acceptance suite"),
            ("oracle", "closed-form table for the gaussian scenario"),
            ("figure", "plot-ready CSV series")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--out", metavar="DIR", default=None, help="output directory")
        if name == "verify":  # its scenarios are fixed: the bundled one and variants of it
            p.set_defaults(config=None, mode=None)
            continue
        p.add_argument("--config", metavar="PATH", default=None,
                       help="scenario JSON (default: bundled gaussian scenario)")
        if name == "simulate":  # the one command that reads the mode
            p.add_argument("--mode", choices=("reference", "autonomous"), default=None,
                           help="override the scenario mode")
        else:
            p.set_defaults(mode=None)
        if name == "compose":
            p.add_argument("--case", choices=CASES, default=None,
                           help="composition case (default: from the scenario)")
        if name == "figure":
            p.add_argument("--id", dest="figure_id", choices=("fig2", "fig3"),
                           required=True, help="which figure data set")
    return parser


def main(argv=None):
    _fix_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mode == "reference":
        args.mode = "reference_driven"
    try:
        config = _load(args)
        if args.command == "oracle":
            print(run_oracle_table(config))
            return 0
        out_dir = _out_dir(args, config, args.command)
        if args.command == "simulate":
            manifest, bundle = run_simulate(config, out_dir)
        elif args.command == "compose":
            manifest, bundle = run_compose(config, out_dir, case=args.case)
        elif args.command == "reconstruct":
            manifest, bundle = run_reconstruct(config, out_dir)
        elif args.command == "figure":
            manifest, bundle = run_figure(config, out_dir, args.figure_id)
        elif args.command == "verify":
            from .acceptance import AcceptanceContext, run_verify
            _, results = run_verify(AcceptanceContext(out_dir / "scratch"), out_dir)
            n_fail = sum(not r.passed for r in results)
            print(f"{len(results) - n_fail}/{len(results)} acceptance checks passed; "
                  f"outputs in {out_dir}")
            return 0 if n_fail == 0 else 1
        for name in sorted(bundle.files):
            print(f"wrote {out_dir / name}")
        return 0 if bundle.all_passed else 1
    except BihjError as err:
        stage = f"[{err.stage}] " if err.stage else ""
        print(f"error: {stage}{err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
