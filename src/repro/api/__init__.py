"""Stable typed client API for the reproduction.

This package is the supported programmatic surface: everything else
(:mod:`repro.analysis.specs`, :mod:`repro.campaign`, the simulators)
may shift between PRs, but requests, envelopes, and the client here
only change with the envelope ``schema_version`` rules.

Three-line quickstart::

    from repro.api import ReproClient, SimulateRequest

    client = ReproClient()
    envelope = client.simulate(SimulateRequest(mix="W1", policy="acg"))

The same surface is exposed over HTTP by ``python -m repro serve``
(see :mod:`repro.api.service`) and echoed by every CLI ``--json`` flag.
"""

from repro import lazy_exports

#: Public name -> the submodule defining it.  Names load on first use,
#: so importing one submodule (``repro.api.http`` from the jobs client,
#: say) does not load the HTTP service and the jobs layer.
_EXPORTS = {
    "ReproClient": "client",
    "metrics_from_result": "client",
    "SCHEMA_VERSION": "envelope",
    "Provenance": "envelope",
    "ResultEnvelope": "envelope",
    "check_schema_compatible": "envelope",
    "dumps_canonical": "envelope",
    "results_document": "envelope",
    "scenarios_document": "envelope",
    "REQUEST_TYPES": "requests",
    "CampaignRequest": "requests",
    "CompareRequest": "requests",
    "ScenarioRequest": "requests",
    "ServerRequest": "requests",
    "SimulateRequest": "requests",
    "request_from_dict": "requests",
    "request_to_dict": "requests",
    "ReproService": "service",
    "serve": "service",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
