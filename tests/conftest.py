"""Shared pytest wiring: the acceptance gate's end-of-run verdict block and
a counter of deconvolution walks."""
import pytest

verdict_lines = []


def pytest_terminal_summary(terminalreporter):
    if verdict_lines:
        terminalreporter.write_sep("=", "acceptance gate")
        for line in verdict_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def walked_neurons(monkeypatch):
    """(layer, channel) of every neuron the deconvolution reverse walk runs
    on, in walk order."""
    from patchlens import deconvnet

    real = deconvnet.deconvolve_channels
    seen = []

    def counting(net, trace, layer, channels):
        seen.extend((layer, int(ch)) for ch in channels)
        return real(net, trace, layer, channels)

    monkeypatch.setattr(deconvnet, "deconvolve_channels", counting)
    return seen
