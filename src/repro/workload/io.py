"""Persistence for problem instances and traces.

Experiments become shareable when their inputs are files:

- **instances** (VM + PM specs) round-trip through JSON
  (:func:`save_instance` / :func:`load_instance`);
- **demand traces** round-trip through CSV with a one-line header
  (:func:`save_traces` / :func:`load_traces`), one row per VM — the format
  monitoring exporters typically emit, and what
  :func:`repro.workload.estimation.fit_fleet` consumes;
- **placements** are written as JSON including the instance dimensions
  (:func:`save_placement`), so a placement can be checked against its
  instance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec

_FORMAT_VERSION = 1


def save_instance(path: str | Path, vms: Sequence[VMSpec],
                  pms: Sequence[PMSpec]) -> None:
    """Write an instance as JSON (schema versioned for forward-compat)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "vms": [
            {"p_on": v.p_on, "p_off": v.p_off,
             "r_base": v.r_base, "r_extra": v.r_extra}
            for v in vms
        ],
        "pms": [{"capacity": p.capacity} for p in pms],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_instance(path: str | Path) -> tuple[list[VMSpec], list[PMSpec]]:
    """Read an instance written by :func:`save_instance`.

    Raises
    ------
    ValueError
        On a missing/unsupported format version or malformed entries (the
        :class:`VMSpec`/:class:`PMSpec` constructors validate the values).
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported instance format version {version!r}; "
            f"expected {_FORMAT_VERSION}"
        )
    vms: list[VMSpec] = []
    pms: list[PMSpec] = []
    for section, cls, out in (("vms", VMSpec, vms), ("pms", PMSpec, pms)):
        if section not in payload:
            raise ValueError(
                f"malformed instance file {path}: missing {section!r} list")
        for i, entry in enumerate(payload[section]):
            try:
                out.append(cls(**entry))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed instance file {path}: "
                    f"{section}[{i}]: {exc}") from exc
    return vms, pms


def save_traces(path: str | Path, traces: np.ndarray) -> None:
    """Write an ``(n_vms, T)`` demand matrix as CSV (one row per VM)."""
    m = np.asarray(traces, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"traces must be 2-D (n_vms, T), got shape {m.shape}")
    header = f"repro-traces v{_FORMAT_VERSION} n_vms={m.shape[0]} T={m.shape[1]}"
    np.savetxt(Path(path), m, delimiter=",", header=header, fmt="%.10g")


def load_traces(path: str | Path) -> np.ndarray:
    """Read a trace matrix written by :func:`save_traces`.

    A single-VM file loads back as shape ``(1, T)``.
    """
    first = Path(path).read_text().splitlines()[:1]
    if not first or not first[0].lstrip("# ").startswith("repro-traces"):
        raise ValueError(f"{path} is not a repro trace file")
    m = np.loadtxt(Path(path), delimiter=",", ndmin=2)
    return m


def save_placement(path: str | Path, placement: Placement) -> None:
    """Write a placement (assignment + dimensions) as JSON."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "n_vms": placement.n_vms,
        "n_pms": placement.n_pms,
        "assignment": placement.assignment.tolist(),
    }
    Path(path).write_text(json.dumps(payload))
