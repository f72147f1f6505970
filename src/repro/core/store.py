"""Persisting learned emulators: the spec *is* the artifact.

Because the learned emulator is an executable specification (text in
the Fig. 1 grammar) plus a little metadata, a build can be saved to a
directory and reloaded without re-running extraction or alignment —
the "compile once, test everywhere" deployment story for a learned
emulator.

Layout::

    <dir>/
      manifest.json        service, provider, not-found codes, versions
      specs/<sm>.sm        one spec file per state machine
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..durability.atomic import atomic_write
from ..interpreter.emulator import Emulator
from ..spec import ast
from ..spec.errors import SpecSyntaxError
from ..spec.parser import parse_sm
from ..spec.serializer import serialize_sm
from ..spec.validator import validate_module

MANIFEST_NAME = "manifest.json"
SPEC_SUFFIX = ".sm"
FORMAT_VERSION = 1


class StoreError(Exception):
    """The directory does not contain a valid saved emulator."""


@dataclass
class SavedEmulator:
    """A reloaded emulator bundle."""

    module: ast.SpecModule
    notfound_codes: dict[str, str]
    manifest: dict

    def make_backend(self) -> Emulator:
        return Emulator(self.module, notfound_codes=self.notfound_codes)


def save_module(
    module: ast.SpecModule,
    notfound_codes: dict[str, str],
    directory: str | Path,
    extra_manifest: dict | None = None,
) -> Path:
    """Write a spec module (and metadata) to ``directory``."""
    root = Path(directory)
    specs_dir = root / "specs"
    specs_dir.mkdir(parents=True, exist_ok=True)
    order = []
    # Every file lands via tmp-file + fsync + rename: a crash mid-save
    # leaves either the previous artifact or the new one, never a
    # half-written spec that would fail to parse on reload.
    for name, spec in module.machines.items():
        atomic_write(
            specs_dir / f"{name}{SPEC_SUFFIX}", serialize_sm(spec) + "\n"
        )
        order.append(name)
    manifest = {
        "format_version": FORMAT_VERSION,
        "service": module.service,
        "provider": module.provider,
        "machines": order,
        "notfound_codes": dict(notfound_codes),
    }
    manifest.update(extra_manifest or {})
    atomic_write(root / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n")
    return root


def _validate_manifest(manifest: dict) -> None:
    """Schema-check a manifest before trusting any field in it.

    A manifest that parses as JSON can still be structurally wrong
    (hand-edited, produced by a future tool, damaged storage); failing
    here with a precise message beats an ``AttributeError`` three
    layers down.
    """
    machines = manifest.get("machines", [])
    if not isinstance(machines, list) or not all(
        isinstance(name, str) for name in machines
    ):
        raise StoreError("manifest 'machines' must be a list of SM names")
    notfound = manifest.get("notfound_codes", {})
    if not isinstance(notfound, dict) or not all(
        isinstance(key, str) and isinstance(value, str)
        for key, value in notfound.items()
    ):
        raise StoreError(
            "manifest 'notfound_codes' must map resource names to codes"
        )
    for key in ("service", "provider"):
        if key in manifest and not isinstance(manifest[key], str):
            raise StoreError(f"manifest {key!r} must be a string")


def load_module(directory: str | Path) -> SavedEmulator:
    """Reload a saved emulator; validates the specs on the way in."""
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise StoreError(f"{root} has no {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise StoreError(f"unreadable manifest: {error}") from error
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported format version {manifest.get('format_version')!r}"
        )
    _validate_manifest(manifest)
    module = ast.SpecModule(
        service=manifest.get("service", ""),
        provider=manifest.get("provider", "aws"),
    )
    for name in manifest.get("machines", []):
        spec_path = root / "specs" / f"{name}{SPEC_SUFFIX}"
        if not spec_path.exists():
            raise StoreError(f"missing spec file for SM {name!r}")
        try:
            module.add(parse_sm(spec_path.read_text()))
        except SpecSyntaxError as error:
            raise StoreError(
                f"corrupt spec file for SM {name!r}: {error}"
            ) from error
    validate_module(module)
    return SavedEmulator(
        module=module,
        notfound_codes=dict(manifest.get("notfound_codes", {})),
        manifest=manifest,
    )


def save_build(build, directory: str | Path) -> Path:
    """Persist a :class:`~repro.core.builder.LearnedEmulatorBuild`."""
    extra = {
        "aligned": build.alignment is not None
        and build.alignment.converged,
        "llm_requests": build.llm.usage.requests,
    }
    return save_module(
        build.module,
        build.extraction.notfound_codes,
        directory,
        extra_manifest=extra,
    )
