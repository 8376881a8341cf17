"""The walkthrough script runs end to end on the public API."""

import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"


def test_demo_reports_three_si_snr_lines(capsys):
    spec = importlib.util.spec_from_file_location("run_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(["--seconds", "1"]) == 0
    stages = [line.split("SI-SNR")[0].strip()
              for line in capsys.readouterr().out.splitlines() if "SI-SNR" in line]
    assert stages == ["reference mic", "iva speech chan", "full pipeline"]
