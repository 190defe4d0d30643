"""Name-keyed device registry over ``repro-device/1`` files.

The registry is the single source of device truth for every layer that
resolves a device *name*: ``repro.machines.get_machine`` falls through
to it, ``repro.simgpu.calibration.calibration_for`` resolves non-core
specs through it, the CLI derives its ``--device`` choices from it,
and the store names it in unknown-device diagnostics.  A V100- or
A100-class part becomes sweepable by dropping one JSON/TOML file into
``$REPRO_DEVICE_DIR`` — no new Python module.

Resolution sources, in order:

1. the bundled definitions under ``repro/devices/data/`` (K40c, P100,
   Haswell — validated bit-identical to the legacy in-code constants
   by :func:`validate_bundled` and the CI ``repro devices validate
   --all`` gate);
2. every ``*.json`` / ``*.toml`` file in ``$REPRO_DEVICE_DIR``
   (``os.pathsep``-separated list of directories).

A duplicate key or spec name across sources is a hard
:class:`~repro.devices.schema.DeviceSchemaError` naming both files —
silent shadowing could pair a spec with the wrong calibration, which
the content-addressed store would faithfully persist.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.devices.schema import (
    DeviceDefinition,
    DeviceSchemaError,
    UnknownDeviceError,
    parse_device_document,
    read_device_document,
)
from repro.machines.specs import CPUSpec, GPUSpec
from repro.simgpu.calibration import GPUCalibration

__all__ = [
    "DeviceRegistry",
    "bundled_dir",
    "bundled_registry",
    "default_registry",
    "refresh_default_registry",
    "get_device",
    "device_spec",
    "device_calibration",
    "gpu_device_choices",
    "validate_bundled",
]


class DeviceRegistry:
    """Immutable-after-build lookup of device definitions.

    Entries are addressable by registry key (``"k40c"``) and by full
    spec name (``"Nvidia K40c"``), both case-insensitively — cache
    records, store shard trailers and provenance manifests carry the
    full spec name, while CLIs and experiments use the short key.
    """

    def __init__(self, definitions: list[DeviceDefinition] | None = None):
        self._by_key: dict[str, DeviceDefinition] = {}
        self._by_name: dict[str, DeviceDefinition] = {}
        for definition in definitions or []:
            self.add(definition)

    def add(self, definition: DeviceDefinition) -> None:
        """Insert one definition; duplicate key/name is a schema error."""
        key = definition.key.lower()
        name = definition.spec.name.lower()
        clash = self._by_key.get(key)
        if clash is not None:
            raise DeviceSchemaError(
                f"duplicate device key {definition.key!r}: defined by "
                f"both {clash.source} and {definition.source}"
            )
        clash = self._by_name.get(name)
        if clash is not None:
            raise DeviceSchemaError(
                f"duplicate device name {definition.spec.name!r}: "
                f"defined by both {clash.source} (key "
                f"{clash.key!r}) and {definition.source} (key "
                f"{definition.key!r})"
            )
        self._by_key[key] = definition
        self._by_name[name] = definition

    # -- lookup -------------------------------------------------------------

    def find(self, name: str) -> DeviceDefinition | None:
        """Entry for a key or full spec name, or None."""
        lowered = name.lower()
        return self._by_key.get(lowered) or self._by_name.get(lowered)

    def get(self, name: str) -> DeviceDefinition:
        """Entry for a key or full spec name.

        Raises
        ------
        UnknownDeviceError
            Listing every registered device, so the caller can see
            whether a device file is missing from ``$REPRO_DEVICE_DIR``.
        """
        entry = self.find(name)
        if entry is None:
            raise UnknownDeviceError(
                f"unknown device {name!r}; registered devices: "
                f"{self.describe()}"
            )
        return entry

    def describe(self) -> str:
        """One-line ``key (spec name)`` listing for error messages."""
        if not self._by_key:
            return "(none)"
        return ", ".join(
            f"{key} ({entry.spec.name})"
            for key, entry in sorted(self._by_key.items())
        )

    # -- enumeration --------------------------------------------------------

    def entries(self) -> tuple[DeviceDefinition, ...]:
        return tuple(
            self._by_key[key] for key in sorted(self._by_key)
        )

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_key))

    def gpu_keys(self) -> tuple[str, ...]:
        return tuple(
            key
            for key in sorted(self._by_key)
            if self._by_key[key].kind == "gpu"
        )

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, name: str) -> bool:
        return self.find(name) is not None

    # -- construction -------------------------------------------------------

    @classmethod
    def load_dirs(cls, dirs: list[Path]) -> "DeviceRegistry":
        """Build a registry from every device file under ``dirs``.

        Files are loaded in sorted order per directory; any schema
        violation (including cross-file duplicates) propagates as a
        :class:`DeviceSchemaError` naming the file.
        """
        registry = cls()
        for directory in dirs:
            directory = Path(directory)
            if not directory.is_dir():
                raise DeviceSchemaError(
                    f"device directory {directory} does not exist"
                )
            paths = sorted(
                p
                for p in directory.iterdir()
                if p.suffix in (".json", ".toml") and p.is_file()
            )
            for path in paths:
                doc = read_device_document(path)
                # Other repro artifact families (fit samples, sweep
                # saves) may share a device directory; skip them by
                # their format tag.  A *device* document with a wrong
                # version tag still fails validation loudly.
                if (
                    isinstance(doc, dict)
                    and isinstance(doc.get("format"), str)
                    and not doc["format"].startswith("repro-device")
                ):
                    continue
                registry.add(parse_device_document(doc, source=str(path)))
        return registry


def bundled_dir() -> Path:
    """Directory of the bundled device definitions."""
    return Path(__file__).resolve().parent / "data"


@lru_cache(maxsize=1)
def bundled_registry() -> DeviceRegistry:
    """Registry of the bundled definitions only (no user directories)."""
    return DeviceRegistry.load_dirs([bundled_dir()])


def _user_dirs() -> list[Path]:
    raw = os.environ.get("REPRO_DEVICE_DIR", "")
    return [Path(part) for part in raw.split(os.pathsep) if part]


@lru_cache(maxsize=1)
def default_registry() -> DeviceRegistry:
    """The process-wide registry: bundled files + ``$REPRO_DEVICE_DIR``.

    Cached per process (device files are immutable inputs of a run);
    :func:`refresh_default_registry` drops the cache after the
    environment changes (tests, long-lived sessions).
    """
    return DeviceRegistry.load_dirs([bundled_dir()] + _user_dirs())


def refresh_default_registry() -> None:
    """Forget the cached default registry (and bundled cache)."""
    default_registry.cache_clear()
    bundled_registry.cache_clear()


# -- convenience lookups ----------------------------------------------------

def get_device(name: str) -> DeviceDefinition:
    """Default-registry lookup by key or spec name (raising)."""
    return default_registry().get(name)


def device_spec(name: str) -> GPUSpec | CPUSpec:
    """The spec of one registered device."""
    return get_device(name).spec


def device_calibration(name: str) -> GPUCalibration:
    """The calibration of one registered GPU.

    Raises
    ------
    UnknownDeviceError
        For unregistered names, or registered CPUs (which carry no
        GPU calibration block).
    """
    entry = get_device(name)
    if entry.calibration is None:
        raise UnknownDeviceError(
            f"device {entry.key!r} ({entry.spec.name}) is a "
            f"{entry.kind} and has no GPU calibration"
        )
    return entry.calibration


def gpu_device_choices() -> tuple[str, ...]:
    """GPU registry keys for CLI ``--device`` flags.

    Falls back to the bundled registry when ``$REPRO_DEVICE_DIR``
    contains a broken file, so parser construction (and ``repro
    devices validate``, the command that diagnoses the breakage) never
    dies while building argument choices; the underlying error still
    surfaces the moment a command resolves a device through
    :func:`default_registry`.
    """
    try:
        return default_registry().gpu_keys()
    except DeviceSchemaError:
        return bundled_registry().gpu_keys()


# -- bundled-parity validation ----------------------------------------------

def validate_bundled() -> list[str]:
    """Check the bundled files reproduce the legacy in-code constants.

    Returns a list of human-readable problems (empty = sound).  This
    is the ``repro devices validate --all`` CI gate: the bundled K40c,
    P100 and Haswell definitions must stay *bit-identical* to
    ``repro.machines.specs`` / ``repro.simgpu.calibration`` — content
    digests (cache keys, store shard identities, provenance) hang off
    those values.
    """
    import dataclasses

    from repro.machines.specs import HASWELL, K40C, P100
    from repro.simgpu.calibration import K40C_CAL, P100_CAL

    legacy: dict[str, tuple[object, object | None]] = {
        "k40c": (K40C, K40C_CAL),
        "p100": (P100, P100_CAL),
        "haswell": (HASWELL, None),
    }
    problems: list[str] = []
    try:
        registry = bundled_registry()
    except DeviceSchemaError as exc:
        return [str(exc)]
    for key, (spec, cal) in legacy.items():
        entry = registry.find(key)
        if entry is None:
            problems.append(
                f"bundled registry is missing the {key!r} definition"
            )
            continue
        if dataclasses.asdict(entry.spec) != dataclasses.asdict(spec):
            problems.append(
                f"{entry.source}: [spec] does not reproduce the "
                f"in-code {key} constants bit-for-bit"
            )
        if cal is not None:
            if entry.calibration is None or (
                dataclasses.asdict(entry.calibration)
                != dataclasses.asdict(cal)
            ):
                problems.append(
                    f"{entry.source}: [calibration] does not reproduce "
                    f"the in-code {key} calibration bit-for-bit"
                )
    return problems
