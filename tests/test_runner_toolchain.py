"""Tests for the CLI fit/consolidate toolchain."""

import json

import pytest

from repro.core.types import VMSpec
from repro.experiments.runner import main
from repro.workload.io import load_instance, save_traces
from repro.workload.onoff_generator import demand_trace, ensemble_states
from tests.helpers import load_placement


@pytest.fixture
def trace_file(tmp_path):
    vms = [VMSpec(0.02, 0.1, 10.0, 8.0), VMSpec(0.01, 0.09, 5.0, 12.0)]
    states = ensemble_states(vms, 30_000, start_stationary=True, seed=0)
    path = tmp_path / "mon.csv"
    save_traces(path, demand_trace(vms, states))
    return path


class TestFitCommand:
    def test_fit_prints_table(self, trace_file, capsys):
        assert main(["fit", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "p_on" in out and "transitions" in out
        assert out.count("\n") >= 3  # header + two VMs

    def test_fit_writes_instance(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "inst.json"
        assert main(["fit", str(trace_file), "-o", str(out_path)]) == 0
        vms, pms = load_instance(out_path)
        assert len(vms) == 2
        assert vms[0].r_base == pytest.approx(10.0, abs=0.3)
        assert all(p.capacity == 100.0 for p in pms)

    def test_fit_hmm_variant(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "inst.json"
        assert main(["fit", str(trace_file), "--hmm", "-o", str(out_path)]) == 0
        vms, _ = load_instance(out_path)
        assert vms[1].r_extra == pytest.approx(12.0, abs=0.5)

    def test_fit_margin_is_conservative(self, trace_file, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        margin = tmp_path / "margin.json"
        main(["fit", str(trace_file), "-o", str(plain)])
        main(["fit", str(trace_file), "--margin", "0.95", "-o", str(margin)])
        vms_plain, _ = load_instance(plain)
        vms_margin, _ = load_instance(margin)
        for a, b in zip(vms_margin, vms_plain):
            assert a.r_peak >= b.r_peak - 1e-9

    def test_pm_capacity_flag(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "inst.json"
        main(["fit", str(trace_file), "-o", str(out_path),
              "--pm-capacity", "55.5"])
        _, pms = load_instance(out_path)
        assert all(p.capacity == 55.5 for p in pms)


class TestConsolidateCommand:
    @pytest.fixture
    def instance_file(self, trace_file, tmp_path):
        path = tmp_path / "inst.json"
        main(["fit", str(trace_file), "-o", str(path)])
        return path

    def test_consolidate_reports_packing(self, instance_file, capsys):
        assert main(["consolidate", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "QUEUE" in out and "PMs" in out

    def test_consolidate_writes_valid_placement(self, instance_file, tmp_path,
                                                capsys):
        out_path = tmp_path / "map.json"
        assert main(["consolidate", str(instance_file),
                     "-o", str(out_path)]) == 0
        placement = load_placement(out_path)
        assert placement.all_placed

    def test_exact_variant(self, instance_file, capsys):
        assert main(["consolidate", str(instance_file), "--exact"]) == 0
        assert "QUEUE-HET" in capsys.readouterr().out

    def test_rho_flag_respected(self, instance_file, capsys):
        assert main(["consolidate", str(instance_file), "--rho", "0.5"]) == 0
        assert "rho=0.5" in capsys.readouterr().out


class TestValidationSurface:
    """Bad inputs exit with code 2 and an actionable message, no traceback."""

    def test_fit_missing_trace_file_exits_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_consolidate_missing_instance_exits_2(self, tmp_path, capsys):
        assert main(["consolidate", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_consolidate_bad_vm_params_exit_2_with_location(
            self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "vms": [{"p_on": 0.1, "p_off": 0.2,
                     "r_base": 10.0, "r_extra": 20.0},
                    {"p_on": 1.5, "p_off": 0.2,
                     "r_base": 10.0, "r_extra": 20.0}],
            "pms": [{"capacity": 100.0}],
        }))
        assert main(["consolidate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "vms[1]" in err          # which entry is broken
        assert "p_on" in err            # which field
        assert "(0, 1]" in err          # what would be accepted
        assert "Traceback" not in err

    def test_consolidate_bad_pm_capacity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "vms": [{"p_on": 0.1, "p_off": 0.2,
                     "r_base": 10.0, "r_extra": 20.0}],
            "pms": [{"capacity": -5.0}],
        }))
        assert main(["consolidate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "pms[0]" in err and "capacity" in err

    def test_vmspec_message_names_the_contract(self):
        with pytest.raises(ValueError) as exc_info:
            VMSpec(0.0, 0.5, 10.0, 5.0)
        msg = str(exc_info.value)
        assert "invalid VMSpec" in msg and "p_on" in msg and "(0, 1]" in msg

    def test_pmspec_message_names_the_contract(self):
        from repro.core.types import PMSpec
        with pytest.raises(ValueError) as exc_info:
            PMSpec(0.0)
        msg = str(exc_info.value)
        assert "invalid PMSpec" in msg and "capacity" in msg
