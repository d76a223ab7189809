"""The corpus sweep, the CLI and the endomorphism algebras leave no reference
cycles: every algebra they build, and its opposite, is freed by reference
count when its last user lets go, not later by the cyclic collector."""

import gc
import weakref

from quivalg import cli, verify
from quivalg.endo import EndomorphismContext, gabriel_quiver, is_qf2_algebra
from quivalg.enumeration import CorpusBounds, enumerate_monomial_algebras
from quivalg.nakayama import KupischSeries, kupisch_to_algebra, uniserial_module
from quivalg.quiver import QuiverShape

from conftest import branching_example


def test_sweep_cli_and_endo_leave_no_cyclic_garbage(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(cli.paper_example_text())
    cli.build_parser()  # built once and cached; argparse's formatters are cyclic
    gc.collect()
    gc.disable()
    try:
        for algebra in enumerate_monomial_algebras(CorpusBounds(3, 3, 2)):
            verify.algebra_facts(algebra)
        for argv in (["check"], ["domdim"], ["nakayama"], ["qf2"], ["base"], ["dc"],
                     ["coresolve", "--terms", "3"]):
            assert cli.main([argv[0], str(path), *argv[1:]]) == 0
        assert cli.main(["endo", "--kupisch", "linear:3,2,1",
                         "--summands", "P1 P2 P3 I2/s"]) == 0
        series = kupisch_to_algebra(KupischSeries(QuiverShape.CYCLIC, (3, 2)))
        ctx = EndomorphismContext([uniserial_module(series, t, l)
                                   for t, l in ((0, 3), (1, 2), (0, 1), (1, 1))])
        end = ctx.endo_algebra([0, 1, 2])
        gabriel_quiver(end)
        is_qf2_algebra(end)
        del series, ctx, end
        capsys.readouterr()
        cyclic = gc.collect()  # before an automatic collection can run
    finally:
        gc.enable()
    assert cyclic == 0


def test_opposite_refers_back_weakly():
    algebra = branching_example()
    presentation = (algebra.quiver, algebra.relations)
    opp = algebra.opposite()
    gone = weakref.ref(algebra)
    del algebra
    assert gone() is None  # freed by reference count, no collection needed
    again = opp.opposite()
    assert (again.quiver, again.relations) == presentation
    assert again.opposite() is opp
    assert opp.opposite() is again
