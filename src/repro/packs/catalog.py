"""The pack catalog: discovering and loading scenario manifests.

Built-in packs live in the repository's ``packs/`` directory, one
manifest per scenario, named after the file stem.  ``REPRO_PACKS_DIR``
points the catalog somewhere else (tests use it; deployments can ship
their own pack sets) — the override *replaces* the built-in directory,
keeping resolution unambiguous.

The chaos scenario catalog (``repro.chaos.SCENARIOS``) is **derived**
from the chaos-kind packs here: each ``kind = "chaos"`` manifest
becomes one :class:`~repro.chaos.scenarios.ChaosScenario` whose rule
factory resolves the manifest's fractional fault windows against the
requested duration — producing the exact
:class:`~repro.chaos.faults.FaultRule` tuples the legacy hand-written
catalog built.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import PackError
from repro.packs.manifest import SUFFIXES, load_manifest, load_scenario
from repro.packs.schema import ScenarioSpec

#: Environment override for the pack directory.
PACKS_DIR_ENV = "REPRO_PACKS_DIR"

#: The ROADMAP's reliability stories lead the chaos catalog in their
#: narrative order; packs added later follow alphabetically.
_CHAOS_ORDER = ("bmc_dark", "daemon_wedge", "bus_noise")


_BUILTIN_PACKS_DIR = Path(__file__).resolve().parents[3] / "packs"


def packs_dir() -> Path:
    """The active pack directory (built-in unless overridden)."""
    override = os.environ.get(PACKS_DIR_ENV)
    if override:
        return Path(override)
    return _BUILTIN_PACKS_DIR


def pack_paths() -> dict[str, Path]:
    """Pack name -> manifest path, sorted by name."""
    root = packs_dir()
    try:
        with os.scandir(root) as entries:
            names = sorted(entry.name for entry in entries if entry.is_file())
    except (FileNotFoundError, NotADirectoryError):
        return {}
    paths: dict[str, Path] = {}
    for name in names:
        stem, suffix = os.path.splitext(name)
        if suffix not in SUFFIXES:
            continue
        if stem in paths:
            raise PackError(
                f"pack {stem!r}: both {paths[stem].name} and "
                f"{name} exist in {root}")
        paths[stem] = root / name
    return paths


def pack_path(name: str) -> Path:
    """The manifest path for one named pack; unknown names fail loudly."""
    paths = pack_paths()
    path = paths.get(name)
    if path is None:
        raise PackError(
            f"pack {name!r}: not in the catalog at {packs_dir()} "
            f"(have: {', '.join(paths) or 'none'})")
    return path


def load_pack(name: str) -> ScenarioSpec:
    """Load and validate one catalog pack by name."""
    return load_scenario(pack_path(name))


def raw_pack(name: str) -> dict:
    """One catalog pack's raw manifest mapping (cache identity)."""
    return load_manifest(pack_path(name))


def all_packs() -> dict[str, ScenarioSpec]:
    """Every catalog pack, validated, sorted by name."""
    return {name: load_scenario(path)
            for name, path in pack_paths().items()}


def chaos_packs() -> dict[str, ScenarioSpec]:
    """The chaos-kind packs, in catalog (story, then name) order."""
    packs = {name: spec for name, spec in all_packs().items()
             if spec.kind == "chaos"}
    ordered = [name for name in _CHAOS_ORDER if name in packs]
    ordered += [name for name in packs if name not in _CHAOS_ORDER]
    return {name: packs[name] for name in ordered}


def chaos_scenarios() -> dict:
    """``repro.chaos.SCENARIOS``, derived from the chaos-kind packs."""
    from repro.chaos.scenarios import ChaosScenario
    from repro.packs.runtime import fault_rules

    catalog = {}
    for name, spec in chaos_packs().items():
        faults = spec.faults

        def rules(duration_s: float, rate: float, _faults=faults):
            return fault_rules(_faults, duration_s, rate)

        catalog[name] = ChaosScenario(
            name=name,
            summary=spec.summary,
            rules=rules,
            default_rate=faults.default_rate,
        )
    return catalog
