"""Shared pytest wiring: the acceptance gate's end-of-run verdict block and
counters of conv forwards and deconvolution walks."""
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


@pytest.fixture
def conv_calls(monkeypatch):
    """Batch size of every conv forward, one per conv layer per walked chunk."""
    from patchlens import network

    calls = []
    real = network.conv_forward_cols

    def counting(x, layer):
        calls.append(len(x))
        return real(x, layer)

    monkeypatch.setattr(network, "conv_forward_cols", counting)
    return calls
