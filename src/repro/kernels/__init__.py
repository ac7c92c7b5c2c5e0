"""Hot-path kernels: the counting fixpoint, the simulator, demand tables.

This package is a *leaf*: it imports nothing from :mod:`repro.csp`,
:mod:`repro.baselines` or :mod:`repro.analysis`, so any layer can call
into it without cycles.

* :mod:`repro.kernels.fixpoint` — the batched counting rows the search
  engine updates inline; pure Python, because a numpy call costs
  microseconds of dispatch overhead on a per-event hot path.
* :mod:`repro.kernels.simulate` — the block-stepping priority
  simulator; pure Python, because its speed comes from stepping whole
  blocks of slots, not from the history buffer it fills.
* :mod:`repro.kernels.demand` — the interval-load demand tables.  This
  is the one kernel with two implementations: a numpy path over the
  whole ``T x T`` table and a pure-Python rolling sweep with
  byte-identical results.  The numpy path wins on the screening
  campaigns, so it is the default; the environment variable
  ``REPRO_NO_NUMPY`` forces the sweep, which is how CI pins it against
  rot (see the ``kernel-parity`` stage).

numpy itself is a required dependency of the package (the model,
schedule and encoding layers use it); only the demand kernel consults
the gate helpers below.

* :func:`numpy_or_none` — the single numpy access point for kernels;
* :func:`have_numpy` — boolean convenience.
"""

from __future__ import annotations

import os

__all__ = ["numpy_or_none", "have_numpy"]

_cached = None
_probed = False


def numpy_or_none():
    """The numpy module, or ``None`` when absent or masked.

    ``REPRO_NO_NUMPY`` (any non-empty value) masks numpy for every
    kernel; it is read per call so tests can flip it with
    ``monkeypatch.setenv`` without re-importing anything.  The import
    itself is probed once per process.
    """
    global _cached, _probed
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    if not _probed:
        _probed = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via the env mask
            numpy = None
        _cached = numpy
    return _cached


def have_numpy() -> bool:
    """True iff the numpy-backed kernel paths are currently usable."""
    return numpy_or_none() is not None
