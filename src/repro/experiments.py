"""Programmatic and command-line access to the paper's experiment sweeps.

The bench suite (``benchmarks/``) asserts the paper's claims; this module
exposes the same sweeps as plain functions returning data (for notebooks
and downstream studies) and as a small CLI:

    python -m repro.experiments list
    python -m repro.experiments fig8 --sizes 50 100 200
    python -m repro.experiments fig9 --sizes 30 60
    python -m repro.experiments theorem1 --ntiles 240
    python -m repro.experiments scaling --ntiles 72
    python -m repro.experiments breakdown --r 8 --ntiles 60
    python -m repro.experiments trace --r 8 --ntiles 40 --trace-path run.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .comm import (
    bc2d_cholesky_volume,
    cholesky_message_count,
    cholesky_volume_exact,
    sbc_cholesky_volume,
)
from .config import bora
from .distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from .graph import build_cholesky_graph
from .runtime import critical_path_breakdown, simulate

__all__ = [
    "fig8_volumes",
    "fig9_performance",
    "theorem1_table",
    "strong_scaling",
    "spine_breakdown",
    "trace_run",
    "main",
]

B_DEFAULT = 500


def fig8_volumes(
    sizes: Sequence[int] = (25, 50, 100, 200, 400, 600), b: int = B_DEFAULT
) -> dict[str, list[float]]:
    """Figure 8 series: exact POTRF volume (GB) per tile count."""
    dists = {
        "SBC r=7": SymmetricBlockCyclic(7),
        "2DBC 5x4": BlockCyclic2D(5, 4),
        "2DBC 7x3": BlockCyclic2D(7, 3),
    }
    return {
        name: [cholesky_volume_exact(d, N, b) / 1e9 for N in sizes]
        for name, d in dists.items()
    }


def fig9_performance(
    sizes: Sequence[int] = (30, 60, 100), b: int = B_DEFAULT,
    store=None,
) -> dict[str, list[float]]:
    """Figure 9 series: simulated GFlop/s per node for the P~28 configs.

    Runs as a thin client of the sweep service
    (:class:`repro.service.SweepClient`): every point is a content-
    addressed :class:`~repro.service.JobSpec`, so re-runs against the
    same ``store`` (a path, a ``ResultStore``, or None for
    ``$REPRO_SWEEP_STORE`` / a temp directory) are pure cache hits — 0
    simulations.  Results are bit-identical to the direct ``simulate``
    calls this replaced (the engines are equality-pinned).
    """
    from .service import JobSpec, SweepClient

    configs = [
        ("2D SBC r=8", 28, SymmetricBlockCyclic(8), {}),
        ("2DBC 7x4", 28, BlockCyclic2D(7, 4), {}),
        ("2.5D SBC c=3", 24,
         TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 3), {}),
        ("2.5D BC c=3", 27, TwoDotFiveD(BlockCyclic2D(3, 3), 3), {}),
        ("COnfCHOX-like", 32, BlockCyclic2D(8, 4), {"policy": "fork-join"}),
    ]
    specs = [
        JobSpec.make(algorithm="cholesky", ntiles=N, b=b, dist=dist,
                     machine=bora(P), **kw)
        for _name, P, dist, kw in configs
        for N in sizes
    ]
    client = SweepClient(store=store)
    try:
        results = client.sweep(specs)
    finally:
        client.close()
    out: dict[str, list[float]] = {}
    it = iter(results)
    for name, _P, _dist, _kw in configs:
        out[name] = [
            next(it).raise_for_status().report.gflops_per_node for _ in sizes
        ]
    return out


def theorem1_table(ntiles: int = 240) -> list[tuple[str, int, int, float]]:
    """(name, counted, formula, ratio) rows for the Theorem 1 comparison."""
    rows = []
    for r in (6, 7, 8, 9):
        d = SymmetricBlockCyclic(r)
        counted = cholesky_message_count(d, ntiles)
        formula = sbc_cholesky_volume(ntiles, r)
        rows.append((d.name, counted, int(formula), counted / formula))
    for p, q in ((5, 4), (7, 4), (6, 6)):
        d = BlockCyclic2D(p, q)
        counted = cholesky_message_count(d, ntiles)
        formula = bc2d_cholesky_volume(ntiles, p, q)
        rows.append((d.name, counted, int(formula), counted / formula))
    return rows


def strong_scaling(ntiles: int = 72, b: int = B_DEFAULT,
                   store=None) -> list[tuple[str, int, float]]:
    """Figure 11 rows: (config, P, GFlop/s per node) at fixed matrix size.

    A sweep-service thin client like :func:`fig9_performance`: pass
    ``store=`` (or set ``$REPRO_SWEEP_STORE``) to make repeat runs pure
    cache hits.
    """
    from .service import JobSpec, SweepClient

    dists = [SymmetricBlockCyclic(r) for r in (6, 7, 8, 9)]
    dists += [BlockCyclic2D(p, q) for p, q in ((4, 4), (5, 4), (7, 4), (6, 6))]
    specs = [
        JobSpec.make(algorithm="cholesky", ntiles=ntiles, b=b, dist=d,
                     machine=bora(d.num_nodes))
        for d in dists
    ]
    client = SweepClient(store=store)
    try:
        results = client.sweep(specs)
    finally:
        client.close()
    return [
        (d.name, d.num_nodes, res.raise_for_status().report.gflops_per_node)
        for d, res in zip(dists, results)
    ]


def spine_breakdown(r: int = 8, ntiles: int = 60, b: int = B_DEFAULT):
    """Realized-critical-path breakdown for SBC vs the matched 2DBC."""
    from .distributions import best_rectangle

    sbc = SymmetricBlockCyclic(r)
    bc = best_rectangle(sbc.num_nodes)
    out = {}
    for d in (sbc, bc):
        g = build_cholesky_graph(ntiles, b, d)
        rep = simulate(g, bora(d.num_nodes), trace=True)
        out[d.name] = critical_path_breakdown(g, rep)
    return out


def trace_run(r: int = 8, ntiles: int = 40, b: int = B_DEFAULT,
              trace_path: str = None):
    """One traced SBC simulation; optionally export a Perfetto JSON.

    Returns the :class:`~repro.runtime.simulator.SimReport` whose ``obs``
    attribute carries the event trace and metrics registry (see
    ``docs/observability.md``).
    """
    from .obs import write_chrome_trace

    d = SymmetricBlockCyclic(r)
    rep = simulate(build_cholesky_graph(ntiles, b, d), bora(d.num_nodes),
                   trace=True)
    if trace_path:
        write_chrome_trace(rep.obs, trace_path)
    return rep


def _print_series(series: dict[str, list[float]], sizes: Sequence[int], b: int,
                  unit: str) -> None:
    names = list(series)
    print(f"{'n':>8} " + " ".join(f"{n:>14}" for n in names))
    for i, N in enumerate(sizes):
        print(f"{N * b:>8} " + " ".join(f"{series[n][i]:>14.1f}" for n in names))
    print(f"({unit})")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiment sweeps from the command line.",
    )
    parser.add_argument("experiment",
                        choices=["list", "fig8", "fig9", "theorem1", "scaling",
                                 "breakdown", "trace"])
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="tile counts N to sweep")
    parser.add_argument("--ntiles", type=int, default=None, help="tile count N")
    parser.add_argument("--b", type=int, default=B_DEFAULT, help="tile size")
    parser.add_argument("--r", type=int, default=8, help="SBC parameter r")
    parser.add_argument("--trace-path", default=None, metavar="PATH",
                        help="write a Perfetto/chrome://tracing JSON of the "
                             "traced run (trace experiment)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="sweep-service result store for fig9/scaling "
                             "(default: $REPRO_SWEEP_STORE or a temp dir)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("fig8      exact communication volumes (SBC r=7 vs 2DBC)")
        print("fig9      simulated performance at P ~ 28 (2D/2.5D, baseline)")
        print("theorem1  counted volumes vs the closed forms")
        print("scaling   strong scaling across P = 15..36")
        print("breakdown realized-critical-path analysis, SBC vs 2DBC")
        print("trace     traced simulation: metrics summary + optional "
              "--trace-path Perfetto export")
        return 0
    if args.experiment == "fig8":
        sizes = args.sizes or [25, 50, 100, 200, 400, 600]
        _print_series(fig8_volumes(sizes, args.b), sizes, args.b, "GB")
        return 0
    if args.experiment == "fig9":
        sizes = args.sizes or [30, 60]
        _print_series(fig9_performance(sizes, args.b, store=args.store),
                      sizes, args.b, "GFlop/s per node")
        return 0
    if args.experiment == "theorem1":
        for name, counted, formula, ratio in theorem1_table(args.ntiles or 240):
            print(f"{name:>20} counted {counted:>9} formula {formula:>9} "
                  f"ratio {ratio:.3f}")
        return 0
    if args.experiment == "scaling":
        for name, P, gf in strong_scaling(args.ntiles or 72, args.b,
                                          store=args.store):
            print(f"{name:>18} P={P:<3} {gf:>8.1f} GFlop/s/node")
        return 0
    if args.experiment == "breakdown":
        for name, bd in spine_breakdown(args.r, args.ntiles or 60, args.b).items():
            print(f"{name}: {bd}")
        return 0
    if args.experiment == "trace":
        rep = trace_run(args.r, args.ntiles or 40, args.b, args.trace_path)
        print(rep)
        print(rep.obs.metrics.summary())
        if args.trace_path:
            print(f"wrote {args.trace_path} — open it at https://ui.perfetto.dev "
                  "or chrome://tracing")
        return 0
    return 1  # pragma: no cover - argparse guards choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
