"""Column-native sweep enumeration (``ConfigColumns``).

``MatmulGPUApp.sweep_configs`` builds the ``(BS, G, R)`` columns with
NumPy.  Each case here is checked against a pure-Python oracle that
runs the nested ``for bs … for g in divisors(T)`` loop the enumeration
replaced, element for element and in order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.matmul_gpu import (
    ConfigColumns,
    MatmulConfig,
    MatmulGPUApp,
    divisors,
)
from repro.machines import K40C, P100
from repro.simgpu.kernel import max_group_size
from repro.store.columnar import pack_config, pack_configs
from repro.sweep.keys import FIELD_MAX
from repro.sweep.plan import SweepRequest

DEVICES = {"k40c": K40C, "p100": P100}
PRODUCTS = (1, 2, 7, 24, 97, 120, 360, 720, 5040)
MIN_BS = (None, 1, 4, 17, 32)


def oracle(spec, total_products, *, bs_range=(1, 32), g_cap=8, min_bs=None):
    """The reference sweep order: BS outer, admissible G ascending."""
    lo, hi = bs_range
    lo = max(lo, max(lo, 4) if min_bs is None else min_bs)
    out = []
    for bs in range(lo, hi + 1):
        gmax = max_group_size(spec, bs, g_cap)
        for g in divisors(total_products):
            if g <= gmax:
                out.append(MatmulConfig(bs=bs, g=g, r=total_products // g))
    return out


def assert_columns_equal(cols: ConfigColumns, expected: list[MatmulConfig]):
    assert isinstance(cols, ConfigColumns)
    assert cols.bs.tolist() == [c.bs for c in expected]
    assert cols.g.tolist() == [c.g for c in expected]
    assert cols.r.tolist() == [c.r for c in expected]
    assert cols.packed.tolist() == [pack_config(c.bs, c.g, c.r) for c in expected]
    assert all(a.dtype == np.int64 for a in (cols.bs, cols.g, cols.r, cols.packed))


class TestEnumerationParity:
    @pytest.mark.parametrize("min_bs", MIN_BS)
    @pytest.mark.parametrize("total_products", PRODUCTS)
    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_sweep_configs_match_oracle(self, device, total_products, min_bs):
        spec = DEVICES[device]
        app = MatmulGPUApp(spec, total_products=total_products)
        assert_columns_equal(
            app.sweep_configs(min_bs=min_bs),
            oracle(spec, total_products, min_bs=min_bs),
        )

    @pytest.mark.parametrize("g_cap", [1, 8])
    @pytest.mark.parametrize("bs_range", [(1, 32), (6, 19), (12, 12)])
    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_narrowed_bs_range_and_g_cap(self, device, bs_range, g_cap):
        spec = DEVICES[device]
        app = MatmulGPUApp(spec, total_products=720, bs_range=bs_range, g_cap=g_cap)
        for min_bs in MIN_BS:
            assert_columns_equal(
                app.sweep_configs(min_bs=min_bs),
                oracle(spec, 720, bs_range=bs_range, g_cap=g_cap, min_bs=min_bs),
            )

    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_valid_configs_iterates_the_same_columns(self, device):
        spec = DEVICES[device]
        app = MatmulGPUApp(spec, total_products=120, min_bs=2)
        assert list(app.valid_configs()) == oracle(spec, 120, min_bs=2)
        assert list(app.valid_configs(min_bs=9)) == oracle(spec, 120, min_bs=9)

    def test_request_configs_are_the_app_columns(self):
        req = SweepRequest("k40c", 4096, 360, min_bs=8)
        assert_columns_equal(req.configs(), oracle(K40C, 360, min_bs=8))

    def test_empty_range_gives_empty_columns(self):
        cols = MatmulGPUApp(P100, bs_range=(1, 8)).sweep_configs(min_bs=9)
        assert len(cols) == 0 and list(cols) == []
        assert pack_configs(cols)[0].shape == (0,)

    @pytest.mark.parametrize("total_products", [FIELD_MAX + 1, 3_000_000])
    def test_out_of_range_products_raise(self, total_products):
        app = MatmulGPUApp(P100, total_products=total_products)
        with pytest.raises(ValueError, match="packable range"):
            app.sweep_configs()

    def test_largest_packable_products_enumerates(self):
        cols = MatmulGPUApp(P100, total_products=FIELD_MAX).sweep_configs()
        assert_columns_equal(cols, oracle(P100, FIELD_MAX))


class TestSequenceContract:
    @pytest.fixture
    def cols(self) -> ConfigColumns:
        return MatmulGPUApp(P100, total_products=24).sweep_configs()

    @pytest.fixture
    def ref(self) -> list[MatmulConfig]:
        return oracle(P100, 24)

    def test_len_and_int_indexing(self, cols, ref):
        assert len(cols) == len(ref)
        assert cols[0] == ref[0]
        assert cols[-1] == ref[-1]
        assert cols[-len(ref)] == ref[0]
        assert cols[np.int64(3)] == ref[3]
        with pytest.raises(IndexError):
            cols[len(ref)]
        with pytest.raises(TypeError):
            cols[1.0]

    def test_slicing_yields_columns(self, cols, ref):
        for sl in (slice(None, 10), slice(-5, None), slice(3, 40, 7), slice(None, None, -1)):
            part = cols[sl]
            assert isinstance(part, ConfigColumns)
            assert_columns_equal(part, ref[sl])

    def test_iteration_yields_matmul_configs(self, cols, ref):
        items = list(cols)
        assert all(type(c) is MatmulConfig for c in items)
        assert all(type(c.bs) is int for c in items)
        assert items == ref

    def test_equality(self, cols, ref):
        assert cols == ref
        assert ref == cols
        assert cols == tuple(ref)
        assert cols == MatmulGPUApp(P100, total_products=24).sweep_configs()
        assert cols != ref[:-1]
        assert cols != ref[::-1]
        assert cols != cols[1:]
        assert cols != 42

    def test_columns_are_not_writeable(self, cols):
        for col in (cols.bs, cols.g, cols.r, cols.packed):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1

    def test_construction_copies_the_caller_arrays(self):
        bs = np.array([4, 5], dtype=np.int64)
        ConfigColumns(bs, [1, 1], [24, 24])
        assert bs.flags.writeable

    def test_pack_configs_returns_the_columns(self, cols):
        packed, bs, g, r = pack_configs(cols)
        assert packed is cols.packed and bs is cols.bs
        assert g is cols.g and r is cols.r
        for a, b in zip(pack_configs(cols), pack_configs(list(cols))):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "bs,g,r",
        [
            ([4], [1], [FIELD_MAX + 1]),
            ([0], [1], [24]),
            ([4], [-1], [24]),
        ],
    )
    def test_range_check_runs_at_construction(self, bs, g, r):
        with pytest.raises(ValueError, match="packable range"):
            ConfigColumns(bs, g, r)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            ConfigColumns([4, 5], [1], [24, 24])
        with pytest.raises(ValueError, match="one length"):
            ConfigColumns([4, 5], 1, [24, 24])
