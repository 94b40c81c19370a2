"""Figure 9 — Cholesky performance with 2D/2.5D BC and SBC at P ~ 28.

The paper's central performance figure: per-node GFlop/s versus matrix
size for the r = 8 case (P = 28), comparing 2DBC (7x4 and 6x5), 2D SBC,
the 2.5D variants (c = 3 slices), and the COnfCHOX baseline (P = 32,
which we model as block-cyclic under the ``fork-join`` scheduler
policy — its static fork-join schedule is what the paper identifies as
its handicap).

Matrix sizes are scaled to keep the Python DES tractable (the paper goes
to n = 300000 = 36M tasks); REPRO_FULL extends the sweep.  The figure's
qualitative content is asserted: 2.5D SBC > 2.5D BC and 2D SBC > 2DBC,
with COnfCHOX far below, and everyone climbing towards the StarPU peak
as n grows.
"""

from conftest import FULL, print_header, sizes

from repro.config import bora
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.graph import build_cholesky_graph, build_cholesky_graph_25d
from repro.runtime import simulate

B = 500
NS = sizes([30, 60, 100], [30, 60, 100, 140, 180])


def configs():
    return [
        ("2D SBC r=8", 28, lambda N: build_cholesky_graph(N, B, SymmetricBlockCyclic(8)), {}),
        ("2DBC 7x4", 28, lambda N: build_cholesky_graph(N, B, BlockCyclic2D(7, 4)), {}),
        ("2DBC 6x5", 30, lambda N: build_cholesky_graph(N, B, BlockCyclic2D(6, 5)), {}),
        ("2.5D SBC c=3", 24,
         lambda N: build_cholesky_graph_25d(
             N, B, TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 3)), {}),
        ("2.5D BC c=3", 27,
         lambda N: build_cholesky_graph_25d(N, B, TwoDotFiveD(BlockCyclic2D(3, 3), 3)), {}),
        ("COnfCHOX 8x4", 32, lambda N: build_cholesky_graph(N, B, BlockCyclic2D(8, 4)),
         {"scheduler": "fork-join"}),
    ]


def sweep():
    out = {}
    for name, P, builder, kw in configs():
        machine = bora(P)
        out[name] = [simulate(builder(N), machine, **kw).gflops_per_node for N in NS]
    return out


def test_fig9_perf(run_once):
    series = run_once(sweep)
    names = [c[0] for c in configs()]
    print_header(
        "Figure 9: POTRF GFlop/s per node, P ~ 28 (b=500)",
        f"{'n':>8} " + " ".join(f"{n:>13}" for n in names),
    )
    for i, N in enumerate(NS):
        print(f"{N * B:>8} " + " ".join(f"{series[n][i]:>13.1f}" for n in names))

    for i in range(len(NS)):
        # SBC beats the equal-P 2DBC at every size.
        assert series["2D SBC r=8"][i] > series["2DBC 7x4"][i]
        # The 2.5D variants improve on their 2D counterparts.
        assert series["2.5D SBC c=3"][i] > series["2D SBC r=8"][i]
        assert series["2.5D SBC c=3"][i] > series["2.5D BC c=3"][i]
        # The static synchronized baseline trails everything.
        assert series["COnfCHOX 8x4"][i] < series["2DBC 7x4"][i]
    # Per-node performance grows with n towards the peak (right side of
    # the paper's figure).
    for name in names:
        assert series[name][-1] > series[name][0]
