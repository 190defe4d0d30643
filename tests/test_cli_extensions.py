"""Tests for the newest CLI commands, pinned GPU clocks, and the report."""

from __future__ import annotations

import pytest

from repro.analysis.summary import generate_report
from repro.cli import main
from repro.machines import K40C, P100
from repro.simgpu.device import GPUDevice
from repro.simgpu.occupancy import REGISTERS_PER_SM, compute_occupancy


class TestPinnedClock:
    @pytest.fixture(scope="class")
    def dev(self):
        return GPUDevice(P100)

    def test_pinned_clock_held_when_cool(self, dev):
        r = dev.run_matmul(4096, 24, pinned_clock_hz=900e6)
        assert r.clock_hz == pytest.approx(900e6)
        assert not r.throttled

    def test_lower_pin_slower_but_cheaper(self, dev):
        lo = dev.run_matmul(6144, 32, pinned_clock_hz=900e6)
        hi = dev.run_matmul(6144, 32, pinned_clock_hz=1300e6)
        assert lo.time_s > hi.time_s
        assert lo.dynamic_energy_j < hi.dynamic_energy_j

    def test_hot_pin_respects_power_cap(self, dev):
        # A boost-clock pin on a long hot kernel still gets throttled.
        r = dev.run_matmul(14336, 32, r=24, pinned_clock_hz=P100.boost_clock_hz)
        assert r.throttled
        assert r.clock_hz < P100.boost_clock_hz

    def test_pin_outside_ladder_rejected(self, dev):
        with pytest.raises(ValueError, match="ladder"):
            dev.run_matmul(4096, 16, pinned_clock_hz=100e6)
        with pytest.raises(ValueError, match="ladder"):
            dev.run_matmul(4096, 16, pinned_clock_hz=2e9)

    def test_k40c_pin_works_too(self):
        dev = GPUDevice(K40C)
        r = dev.run_matmul(4096, 16, pinned_clock_hz=600e6)
        assert r.clock_hz == pytest.approx(600e6)


class TestRegisterOccupancy:
    def test_register_limit_binds(self):
        # 128 regs x 256 threads = 32K regs/block -> 2 blocks/SM.
        occ = compute_occupancy(P100, 256, 0, regs_per_thread=128)
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "registers"

    def test_light_kernel_unaffected(self):
        free = compute_occupancy(P100, 1024, 2 * 1024 * 8)
        light = compute_occupancy(P100, 1024, 2 * 1024 * 8, regs_per_thread=30)
        assert light.blocks_per_sm == free.blocks_per_sm

    def test_register_file_launch_limit(self):
        with pytest.raises(ValueError, match="register file"):
            compute_occupancy(P100, 1024, 0, regs_per_thread=128)

    def test_negative_registers_rejected(self):
        with pytest.raises(ValueError):
            compute_occupancy(P100, 256, 0, regs_per_thread=-1)

    def test_register_budget_respected(self):
        occ = compute_occupancy(P100, 100, 0, regs_per_thread=200)
        assert occ.blocks_per_sm * 200 * 100 <= REGISTERS_PER_SM


class TestReport:
    def test_core_report_contains_all_artifacts(self):
        text = generate_report(include_extras=False)
        for marker in (
            "Table I", "Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4",
            "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Headline",
        ):
            assert marker in text
        assert "```" in text

    def test_cli_report_writes_file(self, tmp_path, capsys):
        out = tmp_path / "R.md"
        assert main(["report", "--output", str(out)]) == 0
        assert out.exists()
        assert "Reproduction report" in out.read_text()
        assert "wrote" in capsys.readouterr().out


class TestNewExperimentIds:
    @pytest.mark.parametrize("exp", ["fig3", "fig5"])
    def test_figure_ids(self, exp, capsys):
        assert main(["experiment", exp]) == 0
        assert capsys.readouterr().out.strip()


class TestFFTDeviceDifferentiation:
    def test_gpu_series_not_identical(self):
        from repro.experiments import fig1_strong_ep

        result = fig1_strong_ep.run()
        by_dev = {s.device: s for s in result.studies}
        assert (
            by_dev["k40c"].result.max_relative_deviation
            != by_dev["p100"].result.max_relative_deviation
        )


class TestSweepSaveAndFront:
    def test_save_then_front(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048", "--save", str(out)]
        ) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["front", str(out)]) == 0
        text = capsys.readouterr().out
        assert "front = " in text
        assert "Trade-offs" in text

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "no such file"),
            ("{not json", "not a JSON document"),
            ("{}", "unsupported document format"),
        ],
        ids=["missing", "malformed", "foreign"],
    )
    def test_front_rejects_bad_input(self, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["front", str(bad)])
        text = str(exc.value.code)
        assert text.startswith("repro front: ") and message in text
        assert "\n" not in text

    def test_energy_model_id(self, capsys):
        assert main(["experiment", "energy-model"]) == 0
        assert "LOOCV" in capsys.readouterr().out
