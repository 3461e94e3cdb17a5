"""Smoke tests: every example script runs clean through its main().

Examples are part of the public deliverable; importing them directly
(rather than shelling out) keeps failures debuggable and coverage
visible.  The heavier closed-loop ones are marked slow.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    """Import an example module from the examples directory."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_at_least_seven_examples(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 7
        names = {s.stem for s in scripts}
        assert "quickstart" in names

    def test_all_have_docstrings_and_mains(self):
        for script in EXAMPLES_DIR.glob("*.py"):
            text = script.read_text()
            assert text.lstrip().startswith(('"""', '#!')), script
            assert "def main()" in text, script
            assert '__name__ == "__main__"' in text, script


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Nash equilibrium under proportional" in out
        assert "Nash equilibrium under fair-share" in out

    @pytest.mark.slow
    def test_malicious_flooder(self, capsys):
        load_example("malicious_flooder").main()
        out = capsys.readouterr().out
        assert "protection bound" in out

    @pytest.mark.slow
    def test_ftp_vs_telnet(self, capsys):
        """A flow with zero throughput gets no 0/0 delay."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            load_example("ftp_vs_telnet").main()
        out = capsys.readouterr().out
        assert "telnet mean delay" in out

    @pytest.mark.slow
    def test_tandem_network(self, capsys):
        load_example("tandem_network").main()
        out = capsys.readouterr().out
        assert "Poisson approximation check" in out

    @pytest.mark.slow
    def test_adaptive_switch(self, capsys):
        load_example("adaptive_switch").main()
        out = capsys.readouterr().out
        assert "Adaptive rate estimates" in out
