"""Workload definitions shared by ``run.py`` and its child processes.

Nothing here imports ``repro``: the ``run.py`` process stays light and only
the children (fresh interpreters, see ``child.py``) load the program.
"""

from __future__ import annotations

import random

#: The three experiment workloads run ``swcc run`` exactly as a user
#: types it (serial, default manifest and checkpoint on), with the
#: registered experiments' own preset seeds.  ``trace-file`` is the
#: measure-then-predict flow on trace files; only it takes the seed.
WORKLOADS: dict[str, dict] = {
    "repro-fast": {
        "cli": ["run", "all", "--fast"],
        # Every layer runs here except the trace-file loader.
        "expect": (
            "trace.synthetic", "trace.stats", "trace.flushing",
            "trace.derived", "sim.machine", "sim.onepass", "sim.measure",
            "sim.netsim", "core.bus", "core.network", "experiments.surface",
            "obs", "experiments.run",
        ),
        "forbid": ("trace.io",),
    },
    "validation-full": {
        "cli": ["run", "figure1", "figure2", "figure3"],
        "expect": (
            "trace.synthetic", "trace.stats", "trace.derived",
            "sim.machine", "sim.onepass", "sim.measure", "core.bus",
            "obs", "experiments.run",
        ),
        "forbid": ("trace.io", "sim.netsim"),
    },
    "network-full": {
        "cli": [
            "run", "extension-network-validation", "figure10", "figure11",
        ],
        # The no-change control for every trace or replay change.
        "expect": ("sim.netsim", "obs", "experiments.run"),
        "forbid": (
            "trace.synthetic", "trace.stats", "trace.flushing",
            "trace.derived", "trace.io", "sim.machine", "sim.onepass",
            "sim.measure",
        ),
    },
    "trace-file": {
        "cli": None,
        "expect": (
            "trace.io", "trace.stats", "trace.derived", "sim.machine",
            "sim.measure", "core.bus",
        ),
        "forbid": (
            "trace.synthetic", "trace.flushing", "sim.onepass",
            "sim.netsim", "obs", "experiments.run",
        ),
    },
}

#: ``trace-file`` inputs: per preset, FILES_PER_PRESET files drawn by
#: the benchmark seed from a pool of POOL_SIZE recorded file seeds, so
#: every seed's inputs have a reference digest in ``reference.json``.
PRESETS = ("pero", "pero8", "pops", "thor")
POOL_SIZE = 16
FILES_PER_PRESET = 2
RECORDS_PER_CPU = 30_000
CACHE_KB = (16, 64, 256)
SCHEMES = ("base", "nocache", "swflush", "dragon")

#: Kept out of development and tuning; a later performance claim must
#: also hold on it (see README.md).
RESERVED_SEED = 7919


def file_seed(preset_name: str, slot: int) -> int:
    """Generator seed of pool entry ``slot`` of ``preset_name``."""
    return 1000 * (PRESETS.index(preset_name) + 1) + slot


def pool_entry_id(preset_name: str, slot: int) -> str:
    return f"{preset_name}-{slot:02d}"


def trace_file_inputs(seed: int) -> list[tuple[str, str, int]]:
    """``(op id, preset, generator seed)`` of the files for ``seed``.

    Files are ordered round-robin over the presets, so the 8-CPU preset
    is spread through the run rather than bunched at one end.
    """
    rng = random.Random(seed)
    slots = {
        name: sorted(rng.sample(range(POOL_SIZE), FILES_PER_PRESET))
        for name in PRESETS
    }
    return [
        (pool_entry_id(name, slots[name][k]), name,
         file_seed(name, slots[name][k]))
        for k in range(FILES_PER_PRESET)
        for name in PRESETS
    ]
