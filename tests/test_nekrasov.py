from vertexcalc.nekrasov import (sun_framing, sun_phi_model,
                                 sun_residual, sun_tuple_identity, tuple_sweep,
                                 verify_fiber_swap, verify_su2,
                                 verify_sun_pair_consistency, z_su2)
from vertexcalc.partitions import kappa, weight
from vertexcalc.series import LaurentFraction


def test_sweeps():
    assert tuple_sweep(2, 1) == [((), ()), ((), (1,)), ((1,), ())]
    assert len(list(tuple_sweep(3, 1))) == 4


def test_rank2_partition_function_shape():
    z = z_su2(0, 1, 2)
    assert z.dims == (1, 2)
    assert z.get((0, 0)) == 1


def test_rank2_framings():
    for m in (0, 1, 2):
        assert verify_su2(m, 2, 3)


def test_rank2_fiber_swap():
    assert verify_fiber_swap(2, 3)


def test_sun_framing_monomial():
    mus = ((1,), (2,), ())
    fr = sun_framing(3, 1, mus)
    w = sum(weight(m) for m in mus)
    k = sum((3 + 1 - 2 * (i + 1)) * kappa(m) for i, m in enumerate(mus))
    assert fr == LaurentFraction.monomial((-1) ** ((3 + 1) * w), (k,))


def test_sun_residual_trivial_at_empty():
    assert sun_residual(2, ((), ())) == LaurentFraction.one()
    assert sun_residual(3, ((), (), ())) == LaurentFraction.one()


def test_rank3_tuple_identities():
    sweep = tuple_sweep(3, 1)
    assert len(sweep) == 4
    for mus in sweep:
        assert sun_tuple_identity(3, mus, (2, 2))
        assert sun_phi_model(3, mus)


def test_rank2_chain_consistency():
    assert verify_sun_pair_consistency((), (), 3)
    assert verify_sun_pair_consistency((1,), (), 3)
    assert verify_sun_pair_consistency((1,), (1,), 3)
    assert verify_sun_pair_consistency((2,), (1,), 2)
