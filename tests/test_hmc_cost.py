"""scripts/hmc_cost.py on a tiny input."""

import importlib.util
from pathlib import Path

from waferspr import iwmm

_spec = importlib.util.spec_from_file_location(
    "hmc_cost", Path(__file__).resolve().parents[1] / "scripts" / "hmc_cost.py")
hmc_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hmc_cost)


def test_table_counts_one_covariance_and_a_field_per_leapfrog_step(capsys):
    fields, energies = iwmm._nystrom_field, iwmm._gplvm_ll
    hmc_cost.main(["--sizes", "8,12", "--repeats", "2", "--transitions", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for n, line in zip((8, 12), lines[2:]):
        size, transition_ms, field_ms, field_calls, energy_ms, energy_calls = (
            cell.strip() for cell in line.strip("|").split("|"))
        assert size == str(n)
        assert float(transition_ms) > float(field_ms) > 0 and float(energy_ms) > 0
        assert (field_calls, energy_calls) == (str(iwmm.McmcConfig().leapfrog_steps), "1")
    # the timers are taken off again
    assert iwmm._nystrom_field is fields and iwmm._gplvm_ll is energies
